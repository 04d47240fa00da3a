"""Dense linear-algebra substrate: inversion, condition numbers, polar factors.

All matrices are real 2-d numpy arrays (row-major, float64). Indices in
documentation and file formats are 1-based. The singular values of a matrix with
orthogonal rows or columns (T U or U T, T diagonal) are read off their norms; a
singular matrix has condition number inf, which a JSON report writes as "inf".
"""

from dataclasses import dataclass

import numpy as np

# Relative threshold below which a matrix counts as singular.
SINGULAR_RTOL = 1e-12
# Relative threshold below which the condition number is reported as infinite.
CONDITION_INF_RTOL = 1e-14


@np.errstate(over="ignore", invalid="ignore")  # a sum that is not finite: entry by entry
def as_matrix(m):
    """Validate and return *m* as a 2-d float64 array with finite entries. A sum with an
    infinite or NaN term is not finite, so a finite sum clears every entry at once."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a.sum()) and not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision (sigma_min < SINGULAR_RTOL * sigma_max)."""


def _require_square(a):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def invert(m):
    """Inverse of a square matrix; SingularMatrixError near singularity, ValueError on overflow."""
    a = as_matrix(m)
    if (kappa := condition_number(a)) > 1 / SINGULAR_RTOL:
        raise SingularMatrixError(
            f"matrix is singular to working precision (sigma_min/sigma_max = {1 / kappa:.3e})")
    inverse = np.linalg.inv(a)
    if not (np.isfinite(inverse.min()) and np.isfinite(inverse.max())):  # nan reaches both
        raise ValueError("the inverse of the matrix is out of range: an entry overflows")
    return inverse


def _as_matrix_or_diagonal(m):
    """*m* checked as by as_matrix, or a nonempty finite 1-d array (a diagonal)."""
    a = np.asarray(m, dtype=float)
    return as_matrix(a[None, :])[0] if a.ndim == 1 else as_matrix(a)


@np.errstate(over="ignore", invalid="ignore")  # overflow: inf or nan fail the checks below
def _orthogonal_rows_extremes(b):
    """(sigma_max, sigma_min) of square *b* from its row norms, or None unless its
    rows are orthogonal to within rounding: one Gram row b @ b[0] screens, then
    max d / min d <= kappa^2 <= max(d + r) / min(d - r) (Rayleigh, Gershgorin),
    d = diag(b b^T) and r its off-diagonal absolute row sums, must agree to n*eps,
    the relative rounding of each computed d_i (Higham, Accuracy and Stability,
    sec. 3.1) and below the SVD's n*eps*kappa. Norms under n*tiny would underflow.
    """
    n, eps = b.shape[0], np.finfo(float).eps
    g = b @ b[0]  # if orthogonal, |g_j| <= n*eps*|b_0||b_j| <= n*eps*|b_0||b|_F
    if np.any(np.abs(g[1:]) > n * eps * np.sqrt(g[0]) * np.linalg.norm(b)):
        return None
    h = b @ b.T  # the one n x n temporary; |H| is taken in place
    d = np.diagonal(h).copy()
    np.fill_diagonal(h, 0.0)
    r = np.abs(h, out=h).sum(axis=1)
    lo, hi = d.min(), d.max()
    if n * np.finfo(float).tiny < lo and (d + r).max() / hi <= (1 + n * eps) * (d - r).min() / lo:
        return np.sqrt(hi), np.sqrt(lo)
    return None


def condition_number(m):
    """sigma_max / sigma_min of a square matrix; math.inf when effectively singular.

    A 1-d array is read as the diagonal of a square matrix.
    """
    a = _as_matrix_or_diagonal(m)
    if a.ndim == 2:
        _require_square(a)
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):  # diagonal
            a = np.diagonal(a)
    s = (np.max(np.abs(a)), np.min(np.abs(a))) if a.ndim == 1 else (
        _orthogonal_rows_extremes(a) or _orthogonal_rows_extremes(a.T)
        or np.linalg.svd(a, compute_uv=False)[[0, -1]])
    smax, smin = float(s[0]), float(s[1])
    if smin == 0.0 or smin < CONDITION_INF_RTOL * smax:
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
    positive = (vt.T * s) @ vt  # V^T diag(s) V, with the diagonal kept as a vector
    return PolarFactors(unitary=unitary, positive=positive)
