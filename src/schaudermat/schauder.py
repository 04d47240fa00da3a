"""Finite-section basis analysis.

A square invertible section F together with its inverse G* stands in for a
basis: columns of F are the basis vectors, rows of G* the coefficient
functionals. Natural projections Q = F P G* (P a 0/1 diagonal) carry all
constants: the basis constant is the maximum over prefix index sets, the
unconditional constant the maximum over all index subsets.
"""

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .kernel import (
    _as_matrix_or_diagonal,
    as_matrix,
    condition_number,
    invert,
    permutation_matrix,
)

PAIR_TOL = 1e-9
# Largest accepted SearchBudget.exact_cutoff: exact enumeration of N indices
# evaluates 2^N subsets.
MAX_EXACT_CUTOFF = 20

# A greedy flip is taken only if it beats the best norm by more than this
# relative margin, so that a gain of a few rounding ulps ends the search.
GREEDY_RTOL = 1e-12

# Number of masks evaluated per vectorized kernel call.
_BATCH = 2048

# Largest Haar level k; 2^k = 4096 also bounds every other generated section.
HAAR_MAX_LEVEL = 12


@dataclass(frozen=True)
class BasisPair:
    """A section F and its two-sided inverse Gstar."""

    f: np.ndarray
    gstar: np.ndarray

    def __post_init__(self):
        f = as_matrix(self.f)
        g = as_matrix(self.gstar)
        if f.shape != g.shape or f.shape[0] != f.shape[1]:
            raise ValueError(f"pair must be square of equal shape, got {f.shape} and {g.shape}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "gstar", g)
        for a, b in ((f, g), (g, f)):
            r = a @ b  # one n x n product at a time, shifted by -I in place
            r.flat[:: r.shape[0] + 1] -= 1.0
            if np.max(np.abs(r, out=r)) >= PAIR_TOL:
                raise ValueError("F*Gstar and Gstar*F must equal the identity within 1e-9")
            del r

    @property
    def size(self):
        return self.f.shape[0]


@dataclass(frozen=True)
class ConstantEstimate:
    """A basis/unconditional constant with its maximizing witness set."""

    value: float
    mode: str  # "Exact" | "LowerBoundWitness"
    witness: tuple  # 1-based indices
    evaluations: int

    def to_json(self):
        return dict(asdict(self), witness=list(self.witness))


@dataclass(frozen=True)
class SearchBudget:
    """Configuration for the unconditional-constant subset search."""

    exact_cutoff: int = 16
    samples: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.exact_cutoff < 0:
            raise ValueError(f"exact cutoff must be >= 0, got {self.exact_cutoff}")
        if self.exact_cutoff > MAX_EXACT_CUTOFF:
            raise ValueError(f"exact cutoff {self.exact_cutoff} exceeds the limit "
                             f"{MAX_EXACT_CUTOFF} (exact enumeration evaluates 2^N subsets)")


@dataclass(frozen=True)
class RieszReport:
    section_sizes: tuple
    condition_numbers: tuple
    verdict: str  # "RieszConsistent" | "NotRiesz" | "Inconclusive"

    def to_json(self):
        return {
            "sectionSizes": list(self.section_sizes),
            "conditionNumbers": [
                "inf" if np.isinf(c) else c for c in self.condition_numbers
            ],
            "verdict": self.verdict,
        }


def biorthogonal_inverse(f):
    """Pair a nonsingular section with its inverse (the biorthogonal system)."""
    return BasisPair(f=f, gstar=invert(f))


def natural_projection(pair, indices):
    """Q = F P G* for the 1-based index subset *indices*."""
    n = pair.size
    mask = np.zeros(n)
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        mask[i - 1] = 1.0
    return (pair.f * mask) @ pair.gstar


def _masked_norms(f, gstar, masks, known=None):
    """Spectral norms of F diag(mask) G* for a (batch, n) stack of 0/1 masks.

    With Gf = F^T F, Gg = G* G*^T and S the support D of a mask, or its
    complement when n/2 < |D| < n, ||F P_D G*||^2 = lambda_max(M) with
    M = C^T Gg[S,S] C for the Cholesky factor C C^T = Gf[S,S]: an idempotent
    other than 0 and I has ||Q_D|| = ||I - Q_D|| = ||Q_{D^c}||, here to the
    pair tolerance PAIR_TOL. Each norm costs a min(|D|, n - |D|) square
    symmetric eigenvalue problem instead of an n x n SVD. Masks are grouped
    by |D|; a group whose Gf[S,S] is not numerically positive definite falls
    back to the SVD.

    Given *known*, each M whose bound 1 + ||(M - I)^4||_F^(1/4) on
    lambda_max falls below the larger of *known* and the norms found so far
    is not solved: its mask gets -inf. The bound holds for any symmetric M
    and is tight here: as F P_S G* is idempotent, every eigenvalue of M is
    >= 1, and M - I drops the unit eigenvalues. The 1e-9 relative margin on
    lambda is far above the rounding of the bound and of eigvalsh, so a
    pruned mask is provably below that norm, and the other masks get the
    same norms as without *known*.

    The relative rounding error is about eps * (s / ||F P_D G*||)^2 with
    s = max_i ||f_i|| ||g_i||, the square of the SVD's factor. The maxima the
    searches look for are at least s / 2, and there both agree to a few ulps;
    small norms of an ill-conditioned pair can be far less accurate, so
    reported values are recomputed by SVD (see _attained).
    """
    gf = f.T @ f
    gg = gstar @ gstar.T
    n = masks.shape[1]
    sizes = np.count_nonzero(masks, axis=1)
    out = np.zeros(masks.shape[0])
    for d in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == d)
        flip = d < n < 2 * d  # S = D^c, the smaller side: the mask's zeros
        idx = np.nonzero(masks[rows] != flip)[1].reshape(rows.size, n - d if flip else d)
        flat = idx[:, :, None] * n + idx[:, None, :]  # the S x S blocks, flattened
        try:
            c = np.linalg.cholesky(np.take(gf, flat))
        except np.linalg.LinAlgError:
            out[rows] = [_attained(f, gstar, mask) for mask in masks[rows]]
            continue
        m = np.take(gg, flat)
        del flat  # at most three batch-sized arrays are live at a time
        m = np.swapaxes(c, 1, 2) @ m
        m = m @ c
        del c  # hold only M from here on
        if known is not None:
            known = max(known, out.max())  # >= 0, as this group's rows are still 0
            e = m.copy()
            e.reshape(len(e), -1)[:, :: e.shape[1] + 1] -= 1.0  # E = M - I
            e2 = np.matmul(e, e, out=np.empty_like(e))
            np.matmul(e2, e2, out=e)  # E^4
            keep = 1.0 + np.einsum("ijk,ijk->i", e, e) ** 0.125 >= known ** 2 * (1 - 1e-9)
            del e, e2
            out[rows[~keep]] = -np.inf
            rows, m = rows[keep], m[keep]
        out[rows] = np.sqrt(np.linalg.eigvalsh(m)[:, -1])
    return out


def _best_mask(f, gstar, batches, floor=-np.inf, ceiling=np.inf):
    """(kernel norm, mask) of the first largest norm above *floor* in an
    iterable of mask stacks, or (floor, None) if no norm exceeds it.

    Each batch is screened by the bound of _masked_norms against the best
    norm so far, which leaves the first largest norm and its mask unchanged.
    No batch is drawn once the best norm is >= *ceiling*.
    """
    best_value, best_mask = floor, None
    for masks in batches:
        norms = _masked_norms(f, gstar, masks, known=best_value)
        i = int(np.argmax(norms))
        if norms[i] > best_value:
            best_value, best_mask = float(norms[i]), masks[i]
        if best_value >= ceiling:
            break
    return best_value, best_mask


def _upper_bound(f, gstar):
    """(kappa + 1/kappa) / 2 >= every ||F P_D G*||, kappa = ||F W|| ||W^-1 G*|| for the
    column-balancing W, w_i = (||g_i|| / ||f_i||)^(1/2): ||Q_D|| = 1 / sin of the angle
    between F(E_D) and F(E_D^c) (Szyld 2006), which the Wielandt inequality bounds
    (Bauer & Householder 1960), and W leaves every Q_D unchanged."""
    w = np.sqrt(np.linalg.norm(gstar, axis=1) / np.linalg.norm(f, axis=0))
    kappa = np.linalg.norm(f * w, 2) * np.linalg.norm(gstar / w[:, None], 2)
    return (kappa + 1 / kappa) / 2


def _attained(f, gstar, mask):
    """||F diag(mask) G*||, recomputed by one SVD of the formed projection."""
    return float(np.linalg.norm((f * mask) @ gstar, 2))


def _batches(masks):
    return (masks[start:start + _BATCH] for start in range(0, masks.shape[0], _BATCH))


def _subset_batches(n):
    """One mask of each complementary pair, _BATCH at a time so that memory
    stays bounded: the nonempty subsets without index n (bit i of the code
    selects index i+1), then the full set in place of the empty one. A subset
    stands for its complement, as ||Q_D|| = ||Q_{D^c}|| to PAIR_TOL."""
    bits = np.arange(n)
    for start in range(1, 2 ** (n - 1) + 1, _BATCH):
        codes = np.arange(start, min(start + _BATCH, 2 ** (n - 1) + 1))
        codes[codes == 2 ** (n - 1)] = 2 ** n - 1  # {n} pairs with code 2^(n-1) - 1
        yield ((codes[:, None] >> bits) & 1).astype(float)


def _estimate(f, gstar, mask, mode, evaluations):
    """The report of a search's best mask: its SVD norm and 1-based witness."""
    witness = tuple(int(i + 1) for i in np.flatnonzero(mask))
    return ConstantEstimate(_attained(f, gstar, mask), mode, witness, evaluations)


def basis_constant(pair):
    """Exact maximum of ||F P_n G*|| over prefixes n = 1..N."""
    n = pair.size
    _, mask = _best_mask(pair.f, pair.gstar, _batches(np.tril(np.ones((n, n)))))
    return _estimate(pair.f, pair.gstar, mask, "Exact", n)


def unconditional_constant(pair, budget=SearchBudget()):
    """Maximum of ||F P_D G*|| over index subsets D.

    Exhaustive (mode Exact) for N <= budget.exact_cutoff; otherwise a seeded
    lower-bound search over prefixes, random subsets and greedy single-index
    flips (mode LowerBoundWitness). The search compares kernel norms and ends
    once its best is within GREEDY_RTOL of _upper_bound; the reported value
    is the winning witness's norm recomputed by SVD.
    """
    n = pair.size
    f, gstar = pair.f, pair.gstar
    if n <= budget.exact_cutoff:
        _, mask = _best_mask(f, gstar, _subset_batches(n))
        return _estimate(f, gstar, mask, "Exact", 2 ** n)

    rng = np.random.default_rng(budget.seed)
    starts = iter(range(0, budget.samples, _BATCH))  # left at the first batch not drawn
    sampled = (rng.integers(0, 2, size=(min(_BATCH, budget.samples - start), n)).astype(float)
               for start in starts)
    ceiling = _upper_bound(f, gstar) / (1 + GREEDY_RTOL)
    best_value, best_mask = _best_mask(
        f, gstar, itertools.chain(_batches(np.tril(np.ones((n, n)))), sampled), ceiling=ceiling)
    evaluations = n + next(starts, budget.samples)  # and n per greedy round below

    while best_value < ceiling:
        flips = np.abs(best_mask - np.eye(n))  # row i flips index i+1
        evaluations += n
        value, mask = _best_mask(f, gstar, [flips], floor=best_value * (1 + GREEDY_RTOL))
        if mask is None:
            break
        best_value, best_mask = value, mask

    return _estimate(f, gstar, best_mask, "LowerBoundWitness", evaluations)


def dual_basis_constant(pair):
    """Exact maximum over prefixes of ||G P_n F^T|| with G = Gstar^T."""
    return basis_constant(BasisPair(f=pair.gstar.T, gstar=pair.f.T)).value


def quasinormality_bounds(f):
    """(min, max) Euclidean column norms of F."""
    a = as_matrix(f)
    norms = np.linalg.norm(a, axis=0)
    return float(np.min(norms)), float(np.max(norms))


def riesz_diagnostic(f, section_sizes, bound_threshold=1e2, divergence_threshold=1e3):
    """Condition numbers of leading principal sections with a three-way verdict.

    NotRiesz: the largest section exceeds divergence_threshold and the last
    three condition numbers are strictly increasing. RieszConsistent: all
    sections stay within bound_threshold and the last three are not strictly
    increasing. Anything else is Inconclusive. A 1-d *f* is read as the
    diagonal of a square matrix.
    """
    a = _as_matrix_or_diagonal(f)
    sizes = list(section_sizes)
    if not sizes or any(s <= 0 or s > a.shape[0] for s in sizes):
        raise ValueError(f"section sizes must lie in 1..{a.shape[0]}")
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("section sizes must be strictly increasing")
    conds = [condition_number(a[(slice(s),) * a.ndim]) for s in sizes]

    tail = conds[-3:]
    increasing = len(tail) >= 2 and all(x < y for x, y in zip(tail, tail[1:]))
    if (np.isinf(conds[-1]) or conds[-1] > divergence_threshold) and increasing:
        verdict = "NotRiesz"
    elif all(c <= bound_threshold for c in conds) and not increasing:
        verdict = "RieszConsistent"
    else:
        verdict = "Inconclusive"
    return RieszReport(
        section_sizes=tuple(sizes), condition_numbers=tuple(conds), verdict=verdict
    )


def summing_counterexample(n):
    """The upper-bidiagonal section whose inverse has non-l2 rows.

    F has 1 in the top-left corner, 1 on the superdiagonal and -1 on the rest
    of the diagonal; Gstar is the matching upper-triangular inverse. Both are
    integer matrices and exact inverses of each other.
    """
    if not 1 <= n <= 2 ** HAAR_MAX_LEVEL:
        raise ValueError(f"n must lie in 1..{2 ** HAAR_MAX_LEVEL}, got {n}")
    f = np.eye(n, k=1) - np.eye(n)
    f[0, 0] = 1.0
    gstar = np.triu(-np.ones((n, n)))
    gstar[0] = 1.0
    return BasisPair(f=f, gstar=gstar)


def transform_left(x, pair):
    """(X F, Gstar X^{-1}) for invertible X."""
    xm = as_matrix(x)
    if xm.shape != (pair.size, pair.size):
        raise ValueError(f"left factor must be {pair.size}x{pair.size}, got "
                         f"{xm.shape[0]}x{xm.shape[1]}")
    return BasisPair(f=xm @ pair.f, gstar=pair.gstar @ invert(xm))


def transform_right_diagonal(pair, d):
    """(F D, D^{-1} Gstar) for a nonzero diagonal; projections are unchanged."""
    dv = np.asarray(list(d), dtype=float)
    if dv.ndim != 1 or dv.shape[0] != pair.size:
        raise ValueError(f"diagonal must have length {pair.size}")
    if np.any(dv == 0.0):
        raise ValueError("diagonal entries must be nonzero")
    return BasisPair(f=pair.f * dv, gstar=pair.gstar / dv[:, None])


def transform_right_permutation(pair, perm):
    """(F U_perm, U_perm^T Gstar); the exact unconditional constant is invariant."""
    u = permutation_matrix(perm)
    if u.shape[0] != pair.size:
        raise ValueError(f"permutation must act on 1..{pair.size}")
    return BasisPair(f=pair.f @ u, gstar=u.T @ pair.gstar)
