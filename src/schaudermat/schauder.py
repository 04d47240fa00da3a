"""Finite-section basis analysis.

A square invertible section F together with its inverse G* stands in for a
basis: columns of F are the basis vectors, rows of G* the coefficient
functionals. Natural projections Q = F P G* (P a 0/1 diagonal) carry all
constants: the basis constant is the maximum over prefix index sets, the
unconditional constant the maximum over all index subsets.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .kernel import _as_matrix_or_diagonal, as_matrix, condition_number, invert

PAIR_TOL = 1e-9
# Largest accepted SearchBudget.exact_cutoff: exact enumeration of N indices
# evaluates 2^N subsets.
MAX_EXACT_CUTOFF = 20

# A greedy flip is taken only if it beats the best norm by more than this
# relative margin, so that a gain of a few rounding ulps ends the search.
GREEDY_RTOL = 1e-12

# Number of masks evaluated per vectorized kernel call.
_BATCH = 2048

# Most values per array that _masked_norms gathers (8 MiB of float64).
_GATHERED = 2 ** 20

# Largest Haar level k; 2^k = 4096 also bounds every other generated section.
HAAR_MAX_LEVEL = 12

# Cells per chunk of whole columns whose norms _column_norms takes at once.
_COLUMN_CELLS = 2 ** 16

# riesz_diagnostic's verdict thresholds on the condition numbers: RieszConsistent
# needs every section within RIESZ_BOUND, NotRiesz the largest above RIESZ_DIVERGENCE.
RIESZ_BOUND = 1e2
RIESZ_DIVERGENCE = 1e3


@np.errstate(over="ignore", invalid="ignore")  # inf or nan is not below PAIR_TOL
def _deviation(a, b):
    """(max|a b - I|, a bound on max|b a - I|) of square *a* and *b*, each tested against
    zero once. When the nonzero terms a[i,l] b[l,j] number at most an eighth of the cells,
    a b - I is read off the sums of the terms that reach each cell (Gustavson, ACM TOMS 4,
    1978), a diagonal cell that none reaches deviating by 1; otherwise a b is formed by BLAS.
    With R = a b - I and rho = n max|R| >= ||R||_2, b a - I = b R (I + R)^-1 a, so entry
    (i, j) is at most ||b_i|| ||a_j|| rho / (1 - rho) for row b_i of b and column a_j of a.
    The largest norms are the 2-norms of _column_norms after BLAS, and on the sparse path
    ||a||_1 ||b||_inf, which bounds them, over the listed nonzeros; 2^-e a, 2^e b leave
    either product unchanged."""
    n = a.shape[0]
    ma, mb = a.T != 0, b != 0
    nb = np.count_nonzero(mb, axis=1)
    if not 0 < 8 * (terms := int(np.count_nonzero(ma, axis=1) @ nb)) <= n * n:
        del ma, mb  # neither mask is live while a b is
        r = a @ b
        r.flat[:: n + 1] -= 1.0
        dev = float(np.max(np.abs(r, out=r)))
        del r
        scale = _column_norms(a).max() * _column_norms(b.T).max()
    else:  # a's nonzeros by column, b's by row: row l of b is start[l] + range(nb[l])
        (l, i), (k, j) = (np.divmod(np.flatnonzero(m), n) for m in (ma, mb))
        del ma, mb
        av, bv = a[i, l], b[k, j]
        reps = nb[l]  # the terms of each a[i,l]
        # at: the index in (k, j) of each term's entry of b, row l's run once per a[i,l]
        at = np.arange(terms) + np.repeat((np.cumsum(nb) - nb)[l] - (np.cumsum(reps) - reps), reps)
        term = np.repeat(av, reps) * bv[at]
        cell = np.repeat(i * n, reps) + j[at]
        order = np.argsort(cell, kind="stable")
        cell, term = cell[order], term[order]
        first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])  # where each cell's terms start
        cell, r = cell[first], np.add.reduceat(term, first)
        diagonal = cell % (n + 1) == 0  # cell i n + j with i = j
        r[diagonal] -= 1.0
        dev = float(np.max(np.abs(r), initial=float(np.count_nonzero(diagonal) < n)))
        scale = np.bincount(l, abs(av)).max() * np.bincount(k, abs(bv)).max()
    rho = n * dev
    return dev, (rho / (1 - rho) * scale if rho < 1 else np.inf)


@dataclass(frozen=True)
class BasisPair:
    """A section F and its two-sided inverse Gstar.

    Each entry of R = F G* - I must lie below PAIR_TOL. _deviation bounds G*F - I from
    it; only when that bound misses PAIR_TOL is G*F formed and checked in the same way.
    The bound is judged on the computed entries of R, as each check judges computed entries.
    """

    f: np.ndarray
    gstar: np.ndarray

    def __post_init__(self):
        f = as_matrix(self.f)
        g = as_matrix(self.gstar)
        if f.shape != g.shape or f.shape[0] != f.shape[1]:
            raise ValueError(f"pair must be square of equal shape, got {f.shape} and {g.shape}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "gstar", g)
        dev, bound = _deviation(f, g)
        if dev < PAIR_TOL and not bound < PAIR_TOL:
            dev, _ = _deviation(g, f)
        if not dev < PAIR_TOL:  # nan when a product overflows
            raise ValueError("F*Gstar and Gstar*F must equal the identity within 1e-9; "
                             f"the largest deviation is {dev:.3g}")

    @property
    def size(self):
        return self.f.shape[0]


@dataclass(frozen=True)
class ConstantEstimate:
    """A basis/unconditional constant with its maximizing witness set."""

    value: float
    mode: str  # "Exact" (every subset) | "LowerBoundWitness" (sign witness or search)
    witness: tuple  # 1-based indices
    evaluations: int


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RieszReport:
    section_sizes: tuple
    condition_numbers: tuple
    verdict: str  # "RieszConsistent" | "NotRiesz" | "Inconclusive"


def biorthogonal_inverse(f):
    """Pair a nonsingular section with its inverse (the biorthogonal system)."""
    return BasisPair(f=f, gstar=invert(f))


def _masked_norms(f, gstar, masks, known=None):
    """Spectral norms of F diag(mask) G* for a (batch, n) stack of 0/1 masks.

    With Gf = F^T F, Gg = G* G*^T and S the support D of a mask, or its
    complement when n/2 < |D| < n, ||F P_D G*||^2 = lambda_max(M) with
    M = C^T Gg[S,S] C for the Cholesky factor C C^T = Gf[S,S]: an idempotent
    other than 0 and I has ||Q_D|| = ||I - Q_D|| = ||Q_{D^c}||, here to the
    pair tolerance PAIR_TOL. Each norm costs a min(|D|, n - |D|) square
    symmetric eigenvalue problem instead of an n x n SVD. Masks are grouped
    by |D|, in chunks of _GATHERED values; a chunk whose Gf[S,S] is not
    numerically positive definite falls back to the SVD.

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
    for d in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        flip = d < n < 2 * d  # S = D^c, the smaller side: the mask's zeros
        size = n - d if flip else d
        group = np.flatnonzero(sizes == d)
        step = max(1, _GATHERED // size ** 2)
        for rows in np.split(group, range(step, group.size, step)):
            idx = np.nonzero(masks[rows] != flip)[1].reshape(rows.size, size)
            flat = idx[:, :, None] * n + idx[:, None, :]  # the S x S blocks, flattened
            try:
                c = np.linalg.cholesky(np.take(gf, flat))
            except np.linalg.LinAlgError:
                out[rows] = [_attained(f, gstar, mask) for mask in masks[rows]]
                continue
            m = np.take(gg, flat)
            del flat  # at most three chunk-sized arrays are live at a time
            m = np.swapaxes(c, 1, 2) @ m
            m = m @ c
            del c  # hold only M from here on
            if known is not None:
                known = max(known, out.max())  # >= 0, as this chunk's rows are still 0
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


def _best_mask(f, gstar, batches, floor=-np.inf):
    """(kernel norm, mask) of the winner among the norms above *floor* in an iterable
    of mask stacks, or (floor, None) if no norm exceeds it. Norms within GREEDY_RTOL of
    the largest tie, and a tie goes to the fewest indices, then to the lexicographically
    first index tuple, so that last-ulp rounding does not pick the witness.

    Each batch is screened by the bound of _masked_norms against the largest norm so
    far, which keeps every norm within 1e-9 of it. Of the masks that tie with it, only
    those that no mask beats in both norm and order can still win, and only they are kept.
    """
    top, kept_norms, kept_masks = floor, np.empty(0), np.empty((0, f.shape[0]), bool)
    for masks in batches:
        norms = _masked_norms(f, gstar, masks, known=top)
        top = max(top, float(norms.max()))
        norms, masks = np.append(kept_norms, norms), np.vstack([kept_masks, masks])
        near = (norms > floor) & (norms >= top / (1 + GREEDY_RTOL))
        norms, masks = norms[near], masks[near]
        # fewest indices first, then the mask that holds the first index where two differ
        order = np.lexsort([*(masks.T[::-1] == 0), np.count_nonzero(masks, axis=1)])
        norms, masks = norms[order], masks[order]
        front = norms > np.maximum.accumulate(np.append(-np.inf, norms[:-1]))
        kept_norms, kept_masks = norms[front], masks[front]
    if not kept_norms.size:
        return floor, None
    return float(kept_norms[0]), kept_masks[0]


def _sign_witness(f, gstar):
    """(bound, mask): the Wielandt bound (kappa + 1/kappa) / 2 >= every ||F P_D G*||,
    kappa = ||F W|| ||W^-1 G*|| for the column-balancing W, w_i = (||g_i|| / ||f_i||)^(1/2),
    which leaves every Q_D unchanged, and the only D that can attain it, {i : x_i y_i > 0}
    for x and y in the right singular subspaces of F W for sigma_max and sigma_min:
    ||Q_D|| = 1 / sin of the angle between F(E_D) and F(E_D^c) (Szyld 2006), and equality
    needs x + y on D and x - y on D^c (Bauer & Householder 1960). x and y project the fixed
    generic z_i = sin(i), so a repeated extreme singular value (within GREEDY_RTOL) does not
    leave D to the SVD's basis; z needs no numpy.random, which only the seeded search loads."""
    w = np.sqrt(np.linalg.norm(gstar, axis=1) / np.linalg.norm(f, axis=0))
    _, s, vt = np.linalg.svd(f * w)
    kappa = s[0] * np.linalg.norm(gstar / w[:, None], 2)  # G* inverts F only to PAIR_TOL
    z = np.sin(np.arange(1.0, len(s) + 1))
    top, bottom = vt[s >= s[0] / (1 + GREEDY_RTOL)], vt[s <= s[-1] * (1 + GREEDY_RTOL)]
    return (kappa + 1 / kappa) / 2, (top @ z) @ top * ((bottom @ z) @ bottom) > 0


def _attained(f, gstar, mask):
    """||F diag(mask) G*||, recomputed by one SVD of the formed projection."""
    return float(np.linalg.norm((f * mask) @ gstar, 2))


def _prefix_batches(n):
    """The boolean prefix masks {1..m}, m = 1..n, _BATCH at a time."""
    for start in range(0, n, _BATCH):
        yield np.arange(n) < np.arange(start + 1, min(start + _BATCH, n) + 1)[:, None]


def _subset_batches(n):
    """One mask of each complementary pair, _BATCH at a time so that memory
    stays bounded: the nonempty subsets without index n (bit i of the code
    selects index i+1), then the full set in place of the empty one. A subset
    stands for its complement, as ||Q_D|| = ||Q_{D^c}|| to PAIR_TOL."""
    bits = np.arange(n)
    for start in range(1, 2 ** (n - 1) + 1, _BATCH):
        codes = np.arange(start, min(start + _BATCH, 2 ** (n - 1) + 1))
        codes[codes == 2 ** (n - 1)] = 2 ** n - 1  # {n} pairs with code 2^(n-1) - 1
        yield ((codes[:, None] >> bits) & 1).astype(bool)


def _estimate(f, gstar, mask, mode, evaluations):
    """The report of a search's best mask: its SVD norm and 1-based witness."""
    witness = tuple(int(i + 1) for i in np.flatnonzero(mask))
    return ConstantEstimate(_attained(f, gstar, mask), mode, witness, evaluations)


def _in_range(pair):
    """(F, G*) of *pair*, or when an entry exceeds sqrt(max float / N), where F^T F or G* G*^T
    may overflow, (2^-e F, 2^e G*) for the power of two e that makes the larger of their largest
    entries least. That is exact and keeps every F P G*; a pair still out of range is refused."""
    f, g = pair.f, pair.gstar
    limit = np.sqrt(np.finfo(float).max / pair.size)
    top_f, top_g = max(f.max(), -f.min()), max(g.max(), -g.min())
    if max(top_f, top_g) <= limit:
        return f, g
    e = (np.frexp(top_f)[1] - np.frexp(top_g)[1]) // 2
    e += np.ldexp(top_f, -e) > np.ldexp(top_g, e + 1)  # one more step if G* doubled stays below F
    if max(np.ldexp(top_f, -e), np.ldexp(top_g, e)) > limit:
        raise ValueError(f"pair entries {top_f:.3g} of F and {top_g:.3g} of G* are out of range "
                         "for F^T F and G* G*^T at every power-of-two scaling")
    return np.ldexp(f, -e), np.ldexp(g, e)


def basis_constant(pair):
    """Exact maximum of ||F P_n G*|| over prefixes n = 1..N."""
    f, gstar = _in_range(pair)
    _, mask = _best_mask(f, gstar, _prefix_batches(pair.size))
    return _estimate(f, gstar, mask, "Exact", pair.size)


def unconditional_constant(pair, budget=SearchBudget()):
    """Maximum of ||F P_D G*|| over index subsets D.

    Exhaustive (mode Exact) for N <= budget.exact_cutoff. Otherwise (mode
    LowerBoundWitness) the mask of _sign_witness, if its norm is within GREEDY_RTOL of
    the bound, after one evaluation. Else no subset attains the bound (the equality
    case of Wielandt's inequality), and a seeded search walks by greedy single-index
    flips, until no flip gains more than GREEDY_RTOL, from the best of that mask, all
    prefixes and budget.samples random subsets. When that start is the mask, a second
    walk from the best prefix or sample may end higher, so both are taken and the larger
    end is kept. The value is the witness's SVD norm.
    """
    f, gstar = _in_range(pair)
    n = pair.size
    if n <= budget.exact_cutoff:
        _, mask = _best_mask(f, gstar, _subset_batches(n))
        return _estimate(f, gstar, mask, "Exact", 2 ** n)

    bound, sign_mask = _sign_witness(f, gstar)
    ceiling = bound / (1 + GREEDY_RTOL)
    settled = _estimate(f, gstar, sign_mask, "LowerBoundWitness", 1)
    if settled.value >= ceiling:
        return settled

    rng = np.random.default_rng(budget.seed)
    sampled = (rng.integers(0, 2, size=(min(_BATCH, budget.samples - start), n)).astype(bool)
               for start in range(0, budget.samples, _BATCH))
    searched = _best_mask(f, gstar, itertools.chain(_prefix_batches(n), sampled))
    start = _best_mask(f, gstar, [np.vstack([sign_mask, searched[1]])])
    starts = [searched] if np.array_equal(start[1], searched[1]) else [start, searched]
    evaluations = 1 + n + budget.samples  # and n per greedy round below

    ends = []
    for best_value, best_mask in starts:
        while True:
            flips = best_mask ^ np.eye(n, dtype=bool)  # row i flips index i+1
            evaluations += n
            value, mask = _best_mask(f, gstar, [flips], floor=best_value * (1 + GREEDY_RTOL))
            if mask is None:
                break
            best_value, best_mask = value, mask
        ends.append(best_mask)
    _, best_mask = _best_mask(f, gstar, [np.vstack(ends)])
    return _estimate(f, gstar, best_mask, "LowerBoundWitness", evaluations)


def _column_norms(a):
    """Euclidean column norms of *a*, each column scaled first by the power of two of its
    largest entry (exact), so that no square overflows or underflows. They are taken over
    chunks of at least two whole columns and about _COLUMN_CELLS cells: the sum along axis 0
    runs in each chunk in the order it runs on all of *a* (a chunk of one C-ordered column
    would not), and no temporary is as large as *a*."""
    step = max(2, _COLUMN_CELLS // a.shape[0])
    norms = []
    for c in np.array_split(a, max(1, a.shape[1] // step), axis=1):
        e = np.frexp(np.maximum(c.max(axis=0), -c.min(axis=0)))[1]
        b = np.ldexp(c, -e)
        norms.append(np.ldexp(np.sqrt(np.add.reduce(np.multiply(b, b, out=b), axis=0)), e))
    return np.concatenate(norms)


def quasinormality_bounds(f):
    """(min, max) Euclidean column norms of F (_column_norms)."""
    norms = _column_norms(as_matrix(f))
    return float(np.min(norms)), float(np.max(norms))


def riesz_diagnostic(f, section_sizes):
    """Condition numbers of leading principal sections with a three-way verdict.

    NotRiesz: the largest section exceeds RIESZ_DIVERGENCE and the last
    three condition numbers are strictly increasing. RieszConsistent: all
    sections stay within RIESZ_BOUND and the last three are not strictly
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
    if (np.isinf(conds[-1]) or conds[-1] > RIESZ_DIVERGENCE) and increasing:
        verdict = "NotRiesz"
    elif all(c <= RIESZ_BOUND for c in conds) and not increasing:
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
    if not np.all(np.isfinite(dv) & (dv != 0.0)):
        raise ValueError("diagonal entries must be finite and nonzero")
    with np.errstate(over="ignore"):
        f, gstar = pair.f * dv, pair.gstar / dv[:, None]
    if not (np.isfinite(f).all() and np.isfinite(gstar).all()):
        raise ValueError("F D or D^-1 G* overflows: the diagonal is out of range")
    return BasisPair(f=f, gstar=gstar)


def transform_right_permutation(pair, perm):
    """(F U, U^T Gstar) for the 0/1 matrix U with U e_{perm(n)} = e_n and the 1-based
    bijection *perm*, formed by indexing; the exact unconditional constant is invariant."""
    p = list(perm)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a bijection on 1..{len(p)}: {p}")
    if len(p) != pair.size:
        raise ValueError(f"permutation must act on 1..{pair.size}")
    q = np.argsort(p)  # 0-based inverse: column j of F U is column q[j] of F
    return BasisPair(f=pair.f[:, q], gstar=pair.gstar[q])
