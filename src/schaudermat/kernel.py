"""Dense linear-algebra substrate: norms, inversion, direct sums, polar factors.

All matrices are real 2-d numpy arrays (row-major, float64). Indices in
documentation and file formats are 1-based.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

# Relative threshold below which a matrix counts as singular.
SINGULAR_RTOL = 1e-12
# Relative threshold below which the condition number is reported as infinite.
CONDITION_INF_RTOL = 1e-14


def as_matrix(m):
    """Validate and return *m* as a 2-d float64 array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _require_square(a):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def _is_diagonal(a):
    return a.shape[0] == a.shape[1] and np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def spectral_norm(m):
    """Largest singular value of *m*: max |a_ii| for a diagonal, else a full SVD."""
    a = as_matrix(m)
    if _is_diagonal(a):
        return float(np.max(np.abs(np.diagonal(a))))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def invert(m):
    """Inverse of a square matrix; raises SingularMatrixError near singularity."""
    a = as_matrix(m)
    _require_square(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] < SINGULAR_RTOL * s[0]:
        raise SingularMatrixError(
            f"matrix is singular to working precision (sigma_min/sigma_max = "
            f"{s[-1] / s[0] if s[0] > 0 else 0.0:.3e})"
        )
    return np.linalg.inv(a)


def condition_number(m):
    """sigma_max / sigma_min of a square matrix; math.inf when effectively singular."""
    a = as_matrix(m)
    _require_square(a)
    if _is_diagonal(a):
        s = np.abs(np.diagonal(a))
        smax, smin = float(np.max(s)), float(np.min(s))
    else:
        s = np.linalg.svd(a, compute_uv=False)
        smax, smin = float(s[0]), float(s[-1])
    if smin < CONDITION_INF_RTOL * smax:
        return float("inf")
    return smax / smin


def direct_sum(blocks):
    """Block-diagonal matrix assembled from an ordered list of blocks."""
    mats = [as_matrix(b) for b in blocks]
    if not mats:
        raise ValueError("direct_sum requires at least one block")
    rows = sum(b.shape[0] for b in mats)
    cols = sum(b.shape[1] for b in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in mats:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def permutation_matrix(perm):
    """0/1 matrix U with U e_{perm(n)} = e_n for the 1-based bijection *perm*."""
    p = list(perm)
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a bijection on 1..{n}: {p}")
    u = np.zeros((n, n))
    for i, image in enumerate(p):
        u[i, image - 1] = 1.0
    return u


@dataclass(frozen=True)
class PolarFactors:
    """Factors of M = U A with U orthogonal and A symmetric positive definite."""

    unitary: np.ndarray
    positive: np.ndarray


def polar_decompose(m):
    """Polar decomposition M = U A via SVD, for nonsingular square M."""
    a = as_matrix(m)
    _require_square(a)
    w, s, vt = np.linalg.svd(a)
    if s[0] == 0.0 or s[-1] < SINGULAR_RTOL * s[0]:
        raise SingularMatrixError("polar decomposition requires a nonsingular matrix")
    unitary = w @ vt
    positive = vt.T @ np.diag(s) @ vt
    return PolarFactors(unitary=unitary, positive=positive)
