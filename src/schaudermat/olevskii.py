"""Concrete conditional-basis generators.

Builds the Haar-type orthogonal matrices A_k, the diagonals of the weight
matrices T_(k,alpha), their product blocks T_(k,alpha) A_k^T, and the key-lemma
assembly that turns a diagonal operator with a suitable spectrum plan into a
model mapping an orthonormal basis into a conditional basis. Also provides
the rank-1 conjugation witnesses showing that non-invertible operators can
blow up natural projections.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlanValidationError
from .schauder import HAAR_MAX_LEVEL, BasisPair

ALPHA_LOW = 1.0 / math.sqrt(2.0)
# rank1_conjugation_witness certifies its norm to this absolute slack.
WITNESS_TOL = 1e-9


def _check_alpha(alpha):
    if not ALPHA_LOW < alpha < 1.0:
        raise ValueError(f"alpha must lie in (1/sqrt(2), 1), got {alpha}")


def _check_level(k):
    if not 1 <= k <= HAAR_MAX_LEVEL:
        raise ValueError(f"k must lie in 1..{HAAR_MAX_LEVEL}, got {k}")


def haar_matrix(k):
    """The 2^k x 2^k Haar-type orthogonal matrix A_k.

    Column 1 is constant 2^(-k/2); column j = 2^s + v takes +/- 2^((s-k)/2)
    on the two halves of its dyadic support and 0 elsewhere. So row i meets
    one level-s column, 2^s + i // 2^(k-s) 0-based, and A_k is filled per level.
    """
    _check_level(k)
    rows = np.arange(2 ** k)
    a = np.zeros((rows.size, rows.size))
    a[:, 0] = 2.0 ** (-k / 2.0)
    for s in range(k):
        h = 2.0 ** ((s - k) / 2.0)
        a[rows, 2 ** s + (rows >> (k - s))] = np.where((rows >> (k - s - 1)) & 1, -h, h)
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


def weight_vector(k, alpha):
    """Diagonal of T_(k,alpha): alpha^j in printed order, by Python's float power."""
    _check_level(k)
    _check_alpha(alpha)
    return np.array([alpha ** j for j in weight_exponents(k)])


def olevskii_block(k, alpha):
    """The basis pair (T_(k,alpha) A_k^T, A_k T_(k,alpha)^{-1})."""
    _check_alpha(alpha)  # before weight_vector's level check: a bad alpha is named first
    w = weight_vector(k, alpha)
    a = haar_matrix(k)
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

    @classmethod
    def from_json(cls, obj):
        """Parse a plan object; a missing or ill-typed key raises ValueError."""
        def field(key, types, nested=True):
            def cast(x):  # int() and float() would read 1.7 as 1, true as 1 and "0.8" as 0.8
                if type(x) not in types:
                    raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {x!r}")
                return types[-1](x)

            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"plan has no key {key!r}")
            value = obj[key]
            try:
                return tuple(tuple(map(cast, row)) for row in value) if nested else cast(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"plan key {key!r} is ill-typed: {exc}") from None

        return cls(levels=field("levels", (int,), False), alpha=field("alpha", (int, float), False),
                   subsets=field("subsets", (int,)), c_bounds=field("cBounds", (int, float)),
                   leftovers=field("leftovers", (int,)) if "leftovers" in obj else ())


@dataclass(frozen=True)
class PlanValidation:
    ok: bool
    violations: tuple


# Cap on sup_k d_k/c_k (condition (a)), and the relative slack of the (a) and (b) bounds.
RATIO_BOUND = 100.0
PLAN_RTOL = 1e-9


def validate_plan(spectrum, plan):
    """Check the three key-lemma conditions on a finite spectrum sample.

    (a) max_k d_k/c_k <= RATIO_BOUND; (b) c_k <= alpha^w(p)/lambda <= d_k at
    every block position p, where w is the position-to-exponent map of
    weight_exponents; (c) subsets pairwise disjoint, each of size 2^k, with
    max index of level k below min index of level k' for k < k'; (a) and (b)
    within the relative slack PLAN_RTOL. select_subsets and keylemma_assemble
    check plans by this one rule. Violations are reported as data, not raised.
    """
    values = spectrum.values
    bad = []
    _check_alpha(plan.alpha)

    ratios = [d / c for c, d in plan.c_bounds if 0 < c <= d]
    if ratios and max(ratios) > RATIO_BOUND * (1 + PLAN_RTOL):
        bad.append(f"condition (a): max d_k/c_k = {max(ratios):.6g} exceeds bound "
                   f"{RATIO_BOUND:.6g}")

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
            if not c_k * (1 - PLAN_RTOL) <= ratio <= d_k * (1 + PLAN_RTOL):
                bad.append(
                    f"condition (b): level {k} position {p} (index {idx}, exponent {w}): "
                    f"alpha^w/lambda = {ratio:.9g} outside [{c_k:.9g}, {d_k:.9g}]"
                )
    return PlanValidation(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class ConditionalModel:
    """Assembled finite-section model of the key lemma.

    basis_matrix F and inverse_matrix G* carry the conditional-basis section;
    they are the only n x n fields. scaling x is the diagonal of X, and
    diagonal_section t that of the section T in original spectrum order.
    rearrangement is the index vector order with R = I[order]: entry i is the
    assembled position of the i-th spectrum value. The block unitary is
    U = (+)_k (A_k^T (+) I) over level_sizes, and the images of the
    orthonormal basis are C = T R U = t[:, None] * U[order].
    """

    basis_matrix: np.ndarray
    inverse_matrix: np.ndarray
    scaling: np.ndarray
    rearrangement: np.ndarray
    diagonal_section: np.ndarray
    level_sizes: tuple


def keylemma_assemble(spectrum, plan):
    """Build the conditional model for a validated plan.

    Per level k: reversed diagonal (selected lambdas in position order, then
    leftovers), scaling X_k = diag(c_k lambda/alpha^w) (+) I, block unitary
    A_k^T (+) I, and pair blocks T_(k,alpha) A_k^T (+) S_k with inverse
    A_k T^{-1} (+) S_k^{-1}. Only F and G* are dense; X, T and the rearrangement
    stay vectors, and U follows from level_sizes (see ConditionalModel).
    """
    report = validate_plan(spectrum, plan)
    if not report.ok:
        raise PlanValidationError(report)
    values = spectrum.values

    # Per assembled (tilde) position: its lambda and the position it takes
    # in original order; each level's block starts at offsets[k - 1].
    lam_parts, order_parts, offsets, sizes = [], [], [], []
    for k, subset in enumerate(plan.subsets, start=1):
        idx = np.array(subset + plan.leftovers[k - 1])
        offsets.append(sum(sizes))
        lam_parts.append(values[idx - 1])
        # Original order sorts each level's indices increasingly (decreasing lambda).
        order_parts.append(offsets[-1] + np.argsort(idx))
        sizes.append(idx.size)

    lam = np.concatenate(lam_parts)
    order = np.concatenate(order_parts)
    # Outside the Haar blocks, F, G* and X are diag(lambda), diag(1/lambda) and I.
    f, gstar, x = np.diag(lam), np.diag(1.0 / lam), np.ones(lam.size)
    for k, offset in enumerate(offsets, start=1):
        sl = slice(offset, offset + 2 ** k)
        x[sl] = plan.c_bounds[k - 1][0] * lam[sl] / weight_vector(k, plan.alpha)
        block = olevskii_block(k, plan.alpha)
        f[sl, sl], gstar[sl, sl] = block.f, block.gstar

    return ConditionalModel(basis_matrix=f, inverse_matrix=gstar, scaling=x,
                            rearrangement=order, diagonal_section=lam[order],
                            level_sizes=tuple(sizes))


def rank1_conjugation_witness(lambda1, lambda2, delta=0.0):
    """Rank-1 projection blowing up under conjugation by diag spectrum endpoints.

    On the 2-d section A = diag(lambda1 + delta, lambda2 - delta) (the worst
    admissible endpoints) and e = (e1 + e2)/sqrt(2), P = e e^T, the value
    ||A P A^{-1}|| = ||Ae|| ||A^{-1}e|| is returned together with the bound
    lambda2/(2 sqrt(2) lambda1); the value is certified >= bound - WITNESS_TOL,
    and a delta for which it is not raises ValueError.
    """
    if not 0 < lambda1 <= lambda2 < math.inf:  # NaN fails too
        raise ValueError(f"need 0 < lambda1 <= lambda2 < inf, got {lambda1}, {lambda2}")
    if not (delta == 0 or 0 < delta < (lambda2 - lambda1) / 2):  # NaN fails too
        raise ValueError(f"delta must be 0 or lie in (0, (lambda2 - lambda1)/2), got {delta}")
    a1 = lambda1 + delta
    a2 = lambda2 - delta
    e = np.array([1.0, 1.0]) / math.sqrt(2.0)
    p = np.outer(e, e)
    norm_value = math.sqrt((a1 ** 2 + a2 ** 2) / 2.0) * math.sqrt(
        (a1 ** -2 + a2 ** -2) / 2.0
    )
    bound = lambda2 / (2.0 * math.sqrt(2.0) * lambda1)
    if norm_value < bound - WITNESS_TOL:  # a large delta brings a2 / a1 towards 1
        raise ValueError(f"witness norm {norm_value} falls below the bound {bound}: "
                         "delta is too large for this spectrum")
    return p, norm_value, bound

