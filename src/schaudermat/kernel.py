"""Dense linear-algebra substrate: inversion, condition numbers, polar factors.

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


def _as_matrix_or_diagonal(m):
    """*m* checked as by as_matrix, or a nonempty finite 1-d array (a diagonal)."""
    a = np.asarray(m, dtype=float)
    return as_matrix(a[None, :])[0] if a.ndim == 1 else as_matrix(a)


def condition_number(m):
    """sigma_max / sigma_min of a square matrix; math.inf when effectively singular.

    A 1-d array is read as the diagonal of a square matrix.
    """
    a = _as_matrix_or_diagonal(m)
    if a.ndim == 2:
        _require_square(a)
        if _is_diagonal(a):
            a = np.diagonal(a)
    if a.ndim == 1:
        s = np.abs(a)
        smax, smin = float(np.max(s)), float(np.min(s))
    else:
        s = np.linalg.svd(a, compute_uv=False)
        smax, smin = float(s[0]), float(s[-1])
    if smin < CONDITION_INF_RTOL * smax:
        return float("inf")
    return smax / smin


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
