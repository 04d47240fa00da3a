"""Concrete conditional-basis generators.

Builds the Haar-type orthogonal matrices A_k, the diagonal weight matrices
T_(k,alpha), their product blocks T_(k,alpha) A_k^T, and the key-lemma
assembly that turns a diagonal operator with a suitable spectrum plan into a
model mapping an orthonormal basis into a conditional basis. Also provides
the rank-1 conjugation witnesses showing that non-invertible operators can
blow up natural projections.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlanValidationError
from .schauder import BasisPair

HAAR_MAX_LEVEL = 12
ALPHA_LOW = 1.0 / math.sqrt(2.0)


def _check_alpha(alpha):
    if not ALPHA_LOW < alpha < 1.0:
        raise ValueError(f"alpha must lie in (1/sqrt(2), 1), got {alpha}")


def haar_matrix(k):
    """The 2^k x 2^k Haar-type orthogonal matrix A_k.

    Column 1 is constant 2^(-k/2); column j = 2^s + v takes +/- 2^((s-k)/2)
    on the two halves of its dyadic support and 0 elsewhere.
    """
    if not 1 <= k <= HAAR_MAX_LEVEL:
        raise ValueError(f"k must lie in 1..{HAAR_MAX_LEVEL}, got {k}")
    n = 2 ** k
    a = np.zeros((n, n))
    a[:, 0] = 2.0 ** (-k / 2.0)
    for s in range(k):
        for v in range(1, 2 ** s + 1):
            j = 2 ** s + v  # 1-based column
            lo = (v - 1) * 2 ** (k - s)
            mid = (2 * v - 1) * 2 ** (k - s - 1)
            hi = v * 2 ** (k - s)
            a[lo:mid, j - 1] = 2.0 ** ((s - k) / 2.0)
            a[mid:hi, j - 1] = -(2.0 ** ((s - k) / 2.0))
    return a


def weight_exponents(k):
    """Diagonal exponents of T_(k,alpha) in printed order.

    Exponent k with multiplicity 2, then j = k-1 down to 1 with multiplicity
    2^(k-j); this is also the position-to-exponent map for the reversed
    spectral blocks of the key-lemma assembly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    exps = [k, k]
    for j in range(k - 1, 0, -1):
        exps.extend([j] * 2 ** (k - j))
    return exps


def weight_matrix(k, alpha):
    """Diagonal 2^k x 2^k weight matrix with entries alpha^j in printed order."""
    _check_alpha(alpha)
    return np.diag([alpha ** j for j in weight_exponents(k)])


def olevskii_block(k, alpha):
    """The basis pair (T_(k,alpha) A_k^T, A_k T_(k,alpha)^{-1})."""
    a = haar_matrix(k)
    w = np.array([alpha ** j for j in weight_exponents(k)])
    f = a.T * w[:, None]  # diag(w) @ A^T
    a /= w  # G* = A @ diag(1/w), formed in place
    return BasisPair(f=f, gstar=a)


@dataclass(frozen=True)
class OlevskiiPlan:
    """Level parameters driving the key-lemma assembly.

    subsets[k-1] lists 2^k 1-based spectrum indices in block-position order
    (the reversed-diagonal order: exponent k twice, then exponent j groups);
    c_bounds[k-1] = (c_k, d_k); leftovers[k-1] lists inert spectrum indices
    appended to level k's block.
    """

    levels: int
    alpha: float
    subsets: tuple
    c_bounds: tuple
    leftovers: tuple = ()

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if len(self.subsets) != self.levels or len(self.c_bounds) != self.levels:
            raise ValueError("subsets and c_bounds must have one entry per level")
        lo = self.leftovers if self.leftovers else tuple(() for _ in range(self.levels))
        object.__setattr__(self, "subsets", tuple(tuple(s) for s in self.subsets))
        object.__setattr__(self, "c_bounds", tuple(tuple(cd) for cd in self.c_bounds))
        object.__setattr__(self, "leftovers", tuple(tuple(s) for s in lo))
        if any(len(cd) != 2 for cd in self.c_bounds):
            raise ValueError("each c_bounds entry must be a pair (c_k, d_k)")
        if len(self.leftovers) != self.levels:
            raise ValueError("leftovers must have one entry per level")

    def to_json(self):
        return {
            "levels": self.levels,
            "alpha": self.alpha,
            "subsets": [list(s) for s in self.subsets],
            "cBounds": [list(cd) for cd in self.c_bounds],
            "leftovers": [list(s) for s in self.leftovers],
        }

    @classmethod
    def from_json(cls, obj):
        """Parse a plan object; a missing or ill-typed key raises ValueError."""
        def field(key, cast, nested=True):
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"plan has no key {key!r}")
            value = obj[key]
            try:
                return tuple(tuple(map(cast, row)) for row in value) if nested else cast(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"plan key {key!r} is ill-typed: {exc}") from None

        return cls(levels=field("levels", int, False), alpha=field("alpha", float, False),
                   subsets=field("subsets", int), c_bounds=field("cBounds", float),
                   leftovers=field("leftovers", int) if "leftovers" in obj else ())


@dataclass(frozen=True)
class PlanValidation:
    ok: bool
    violations: tuple

    def to_json(self):
        return {"ok": self.ok, "violations": list(self.violations)}


# Default cap on sup_k d_k/c_k (condition (a) at finite scale).
RATIO_BOUND_DEFAULT = 100.0


def validate_plan(spectrum, plan, ratio_bound=RATIO_BOUND_DEFAULT):
    """Check the three key-lemma conditions on a finite spectrum sample.

    (a) max_k d_k/c_k <= ratio_bound; (b) c_k <= alpha^w(p)/lambda <= d_k at
    every block position p, where w is the position-to-exponent map of
    weight_exponents; (c) subsets pairwise disjoint, each of size 2^k, with
    max index of level k below min index of level k' for k < k'.
    Violations are reported as data, not raised.
    """
    values = np.asarray(spectrum.values if hasattr(spectrum, "values") else spectrum, dtype=float)
    bad = []
    _check_alpha(plan.alpha)

    ratios = [d / c for c, d in plan.c_bounds if 0 < c <= d]
    if ratios and max(ratios) > ratio_bound:
        bad.append(
            f"condition (a): max d_k/c_k = {max(ratios):.6g} exceeds bound {ratio_bound:.6g}"
        )

    seen = set()
    prev_max = 0
    for k, subset in enumerate(plan.subsets, start=1):
        c_k, d_k = plan.c_bounds[k - 1]
        if c_k <= 0 or d_k < c_k:
            bad.append(f"level {k}: invalid bounds c={c_k}, d={d_k}")
            continue
        if len(subset) != 2 ** k:
            bad.append(f"condition (c): level {k} has {len(subset)} indices, expected {2 ** k}")
            continue
        for idx in subset + plan.leftovers[k - 1]:
            if not 1 <= idx <= values.shape[0]:
                bad.append(f"level {k}: index {idx} outside spectrum of length {values.shape[0]}")
                return PlanValidation(ok=False, violations=tuple(bad))
            if idx in seen:
                bad.append(f"condition (c): index {idx} reused at level {k}")
            seen.add(idx)
        if min(subset) <= prev_max:
            bad.append(
                f"condition (c): level {k} min index {min(subset)} does not exceed "
                f"previous max {prev_max}"
            )
        prev_max = max(prev_max, max(subset + plan.leftovers[k - 1]))

        exps = weight_exponents(k)
        for p, (idx, w) in enumerate(zip(subset, exps), start=1):
            ratio = plan.alpha ** w / values[idx - 1]
            if not (c_k * (1 - 1e-9) <= ratio <= d_k * (1 + 1e-9)):
                bad.append(
                    f"condition (b): level {k} position {p} (index {idx}, exponent {w}): "
                    f"alpha^w/lambda = {ratio:.9g} outside [{c_k:.9g}, {d_k:.9g}]"
                )
    return PlanValidation(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class ConditionalModel:
    """Assembled finite-section model of the key lemma.

    basis_matrix F and inverse_matrix G* carry the conditional-basis section;
    scaling X and block_unitary U realize the factorization of the reversed
    diagonal; rearrangement is the permutation matrix sorting the blocks back
    into original spectrum order; onb_images C = T_section rearrangement U
    holds the images of the orthonormal basis.
    """

    basis_matrix: np.ndarray
    inverse_matrix: np.ndarray
    scaling: np.ndarray
    block_unitary: np.ndarray
    rearrangement: np.ndarray
    onb_images: np.ndarray
    diagonal_section: np.ndarray
    level_sizes: tuple


def keylemma_assemble(spectrum, plan, lead=None):
    """Build the conditional model for a validated plan.

    Per level k: reversed diagonal (selected lambdas in position order, then
    leftovers), scaling X_k = diag(c_k lambda/alpha^w) (+) I, block unitary
    A_k^T (+) I, and pair blocks T_(k,alpha) A_k^T (+) S_k with inverse
    A_k T^{-1} (+) S_k^{-1}. An optional *lead* value prepends a 1x1
    passthrough block. Diagonals and the rearrangement are kept as vectors;
    the dense fields of the model are formed from them once at the end.
    """
    report = validate_plan(spectrum, plan)
    if not report.ok:
        raise PlanValidationError(report)
    values = np.asarray(spectrum.values if hasattr(spectrum, "values") else spectrum, dtype=float)

    # Per assembled (tilde) position: its lambda and the position it takes
    # in original order; each level's block starts at offsets[k - 1].
    lam_parts, order_parts, offsets, sizes = [], [], [], []
    if lead is not None:
        if lead <= 0:
            raise ValueError("lead block value must be positive")
        lam_parts.append(np.array([lead], dtype=float))
        order_parts.append(np.zeros(1, dtype=int))
        sizes.append(1)

    for k, subset in enumerate(plan.subsets, start=1):
        idx = np.array(subset + plan.leftovers[k - 1])
        offsets.append(sum(sizes))
        lam_parts.append(values[idx - 1])
        # Original order sorts each level's indices increasingly (decreasing lambda).
        order_parts.append(offsets[-1] + np.argsort(idx))
        sizes.append(idx.size)

    lam = np.concatenate(lam_parts)
    order = np.concatenate(order_parts)
    n = lam.size
    # Outside the Haar blocks, F, G*, X and U are diag(lambda), diag(1/lambda), I and I.
    f, gstar, x, u = np.diag(lam), np.diag(1.0 / lam), np.ones(n), np.eye(n)
    for k, offset in enumerate(offsets, start=1):
        sl = slice(offset, offset + 2 ** k)
        exps = np.array(weight_exponents(k), dtype=float)
        x[sl] = plan.c_bounds[k - 1][0] * lam[sl] / plan.alpha ** exps
        block = olevskii_block(k, plan.alpha)
        f[sl, sl], gstar[sl, sl], u[sl, sl] = block.f, block.gstar, haar_matrix(k).T
    t = lam[order]

    return ConditionalModel(
        basis_matrix=f,
        inverse_matrix=gstar,
        scaling=np.diag(x),
        block_unitary=u,
        rearrangement=np.eye(n)[order],
        onb_images=t[:, None] * u[order],
        diagonal_section=np.diag(t),
        level_sizes=tuple(sizes),
    )


def rank1_conjugation_witness(lambda1, lambda2, delta=0.0, epsilon=1e-9):
    """Rank-1 projection blowing up under conjugation by diag spectrum endpoints.

    On the 2-d section A = diag(lambda1 + delta, lambda2 - delta) (the worst
    admissible endpoints) and e = (e1 + e2)/sqrt(2), P = e e^T, the value
    ||A P A^{-1}|| = ||Ae|| ||A^{-1}e|| is returned together with the bound
    lambda2/(2 sqrt(2) lambda1); the value is certified >= bound - epsilon.
    """
    if lambda1 <= 0 or lambda2 < lambda1:
        raise ValueError("need 0 < lambda1 <= lambda2")
    if delta < 0 or (lambda1 < lambda2 and delta >= (lambda2 - lambda1) / 2):
        raise ValueError("delta must satisfy 0 <= delta < (lambda2 - lambda1)/2")
    a1 = lambda1 + delta
    a2 = lambda2 - delta
    e = np.array([1.0, 1.0]) / math.sqrt(2.0)
    p = np.outer(e, e)
    norm_value = math.sqrt((a1 ** 2 + a2 ** 2) / 2.0) * math.sqrt(
        (a1 ** -2 + a2 ** -2) / 2.0
    )
    bound = lambda2 / (2.0 * math.sqrt(2.0) * lambda1)
    if norm_value < bound - epsilon:
        raise AssertionError(
            f"witness norm {norm_value} fell below certified bound {bound}"
        )
    return p, norm_value, bound


def projection_blowup_witness(pairs):
    """Witness norms ||A P A^{-1}|| for a list of (lambda_large, lambda_small) pairs.

    With pairs whose ratio lambda_large/lambda_small >= (n+1) 2 sqrt(2), the
    n-th norm exceeds n: no uniform unconditional constant survives.
    """
    norms = []
    for lam_big, lam_small in pairs:
        if lam_small <= 0 or lam_small > lam_big:
            raise ValueError(f"invalid pair ({lam_big}, {lam_small})")
        _, value, _ = rank1_conjugation_witness(lam_small, lam_big, delta=0.0)
        norms.append(value)
    return norms
