"""Dense-matrix primitives: skinny SVD, pseudoinverse, matrix norms, and the
proximal operators (singular-value thresholding, column/entry shrinkage) that
the nuclear-norm solvers are assembled from.

All functions are pure: they never mutate their arguments and hold no state,
so they are safe to call concurrently.
"""

import numpy as np

from .errors import DegenerateInputError, NumericalError

NORM_KINDS = ("l1", "l21", "frobenius", "nuclear", "spectral", "linf")

_EPS = np.finfo(np.float64).eps


def as_matrix(M, name="matrix"):
    """Coerce ``M`` to a 2-D float64 array with positive dimensions and
    finite entries. Raises ``ValueError`` otherwise."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


class SkinnySvd:
    """SVD factors keeping only the strictly positive singular values.

    Attributes
    ----------
    U : (d, r) ndarray with orthonormal columns
    sigma : (r,) ndarray, positive, sorted non-increasing
    V : (n, r) ndarray with orthonormal columns

    ``r`` may be zero (zero input matrix), in which case all factors are
    empty. Signs are fixed so that the first nonzero entry of each column
    of ``U`` is nonnegative, making repeated factorizations of the same
    matrix bit-identical.
    """

    __slots__ = ("U", "sigma", "V")

    def __init__(self, U, sigma, V):
        self.U = U
        self.sigma = sigma
        self.V = V

    @property
    def rank(self):
        return self.sigma.size

    def reconstruct(self):
        """Return ``U @ diag(sigma) @ V.T``."""
        return (self.U * self.sigma) @ self.V.T


def _raw_svd(M):
    d, n = M.shape
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge on a {d}x{n} matrix") from exc


def singular_values(M):
    """Singular values of ``M``, sorted non-increasing."""
    M = as_matrix(M)
    d, n = M.shape
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge on a {d}x{n} matrix") from exc


def skinny_svd(M, rank_tol=None):
    """Skinny SVD of ``M``, dropping singular values ``<= rank_tol * sigma_max``.

    Parameters
    ----------
    M : array_like
      Input matrix.
    rank_tol : float or None
      Relative cutoff below which singular values are treated as zero.
      ``None`` selects the standard numerical-rank convention
      ``max(d, n) * machine_epsilon``; ``0.0`` keeps every strictly
      positive singular value.

    Returns
    -------
    SkinnySvd
    """
    M = as_matrix(M)
    if rank_tol is None:
        rank_tol = max(M.shape) * _EPS
    elif rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    U, s, Vt = _raw_svd(M)
    smax = s[0] if s.size else 0.0
    if smax <= 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > rank_tol * smax))
    U = U[:, :r].copy()
    s = s[:r].copy()
    V = Vt[:r].T.copy()
    for j in range(r):
        nz = np.flatnonzero(U[:, j])
        if nz.size and U[nz[0], j] < 0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    return SkinnySvd(U, s, V)


def pseudoinverse(M):
    """Moore-Penrose pseudoinverse ``V @ diag(1/sigma) @ U.T`` from the
    skinny SVD. The zero matrix maps to the (transposed-shape) zero matrix."""
    f = skinny_svd(M)
    return (f.V / f.sigma) @ f.U.T if f.rank else np.zeros((f.V.shape[0], f.U.shape[0]))


def norm(M, kind):
    """Matrix norm of ``M``.

    ``kind`` is one of:

    - ``l1``        sum of absolute entries
    - ``l21``       sum of column-wise Euclidean norms
    - ``frobenius`` square root of the sum of squared entries
    - ``nuclear``   sum of singular values
    - ``spectral``  largest singular value
    - ``linf``      largest absolute entry
    """
    M = as_matrix(M)
    if kind == "l1":
        return float(np.abs(M).sum())
    if kind == "l21":
        return float(np.linalg.norm(M, axis=0).sum())
    if kind == "frobenius":
        return float(np.linalg.norm(M))
    if kind == "nuclear":
        return float(singular_values(M).sum())
    if kind == "spectral":
        s = singular_values(M)
        return float(s[0]) if s.size else 0.0
    if kind == "linf":
        return float(np.abs(M).max())
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def nonzero_entry_count(M, tol=0.0):
    """Number of entries with ``|m_ij| > tol`` (the l0 counting functional)."""
    return int(np.count_nonzero(np.abs(as_matrix(M)) > tol))


def nonzero_column_count(M, tol=0.0):
    """Number of columns with Euclidean norm ``> tol`` (the l2,0 counting
    functional)."""
    return int(np.count_nonzero(np.linalg.norm(as_matrix(M), axis=0) > tol))


def svt_with_nuclear(M, theta):
    """Singular-value thresholding plus the nuclear norm of the result.

    Shrinks every singular value by ``theta`` (clamping at zero) and
    reconstructs. The second return value, ``sum(max(sigma_i - theta, 0))``,
    comes for free and is the nuclear norm of the output.

    When ``||M||_F <= theta`` the result is zero without an SVD: the largest
    singular value is at most the Frobenius norm, so every shrunk value
    clamps to zero. This certificate is exact, not a tolerance.
    """
    if np.linalg.norm(M) <= theta:
        return np.zeros(M.shape), 0.0
    U, s, Vt = _raw_svd(M)
    t = s - theta
    keep = t > 0
    if not keep.any():
        return np.zeros(M.shape), 0.0
    return (U[:, keep] * t[keep]) @ Vt[keep, :], float(t[keep].sum())


def svt(M, theta):
    """Singular-value thresholding ``U diag(max(sigma - theta, 0)) V^T``.

    This is the proximal operator of the nuclear norm: the unique minimizer
    of ``theta * ||J||_* + 0.5 * ||J - M||_F^2``.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return svt_with_nuclear(as_matrix(M), theta)[0]


def column_shrink(Q, alpha):
    """Columnwise shrinkage, the proximal operator of the l2,1 norm.

    Column ``i`` of the output is ``(1 - alpha/||q_i||) * q_i`` when
    ``||q_i|| > alpha`` and zero otherwise; the result minimizes
    ``alpha * ||W||_{2,1} + 0.5 * ||W - Q||_F^2``. Zero columns map to zero
    columns.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    Q = as_matrix(Q)
    norms = np.linalg.norm(Q, axis=0)
    scale = np.zeros_like(norms)
    over = norms > alpha
    scale[over] = (norms[over] - alpha) / norms[over]
    return Q * scale


def entry_shrink(Q, alpha):
    """Entrywise soft threshold ``sign(q) * max(|q| - alpha, 0)``, the
    proximal operator of the l1 norm."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    Q = as_matrix(Q)
    return np.sign(Q) * np.maximum(np.abs(Q) - alpha, 0.0)


def row_space_projector(A):
    """Orthogonal projector ``V V^T`` onto the row space of ``A``.

    Raises ``DegenerateInputError`` for the zero matrix, whose row space
    projector would be the useless zero map.
    """
    A = as_matrix(A, "A")
    if not A.any():
        raise DegenerateInputError("row-space projector of the zero matrix")
    V = skinny_svd(A).V
    return V @ V.T
