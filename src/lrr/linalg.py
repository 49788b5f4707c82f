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

    Otherwise only the singular triplets above ``theta`` are computed. With
    ``N = M / ||M||_F`` (so no square over- or underflows) turned to have
    at least as many rows as columns, and ``tau = theta / ||M||_F``:

    1. ``eigh`` of the Gram matrix ``N^T N`` on the smaller side. Its
       eigenvectors with eigenvalue above ``tau^2 - (m + n) eps`` span the
       kept basis ``B``. The margin bounds the rounding of the Gram product
       (``m eps ||N||_F^2``) plus the backward error of ``eigh``
       (``n eps lambda_max <= n eps ||N||_F^2``), so no singular value
       above ``theta`` is cut. An empty basis means a zero result.
    2. Rayleigh-Ritz: the SVD ``N B = U S W^T`` gives the singular values
       and ``U`` accurately, with ``V = B W``; ``N V = U S`` then holds to
       the SVD's own roundoff.
    3. The triplets with ``s > tau`` are checked by their other residual,
       ``||N^T U - V S||_inf <= 4 max(m, n) eps``. It is large only when
       ``B`` misses part of the leading row space, as when the kept singular
       values sit near the ``eigh`` noise floor ``sqrt(eps) sigma_max``;
       the full SVD of ``N`` then answers instead.

    The result equals the full-SVD threshold to roundoff.
    """
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(M)
    if scale <= theta:
        return np.zeros(M.shape), 0.0
    if not np.isfinite(scale):
        # ||M||_F overflows (entries near 1e154 and beyond), so there is no
        # scale to normalize by: take the full SVD, which gesdd scales itself.
        U, s, Vt = _raw_svd(M)
        keep = s > theta
        t = s[keep] - theta
        return (U[:, keep] * t) @ Vt[keep], float(t.sum())
    wide = M.shape[0] < M.shape[1]
    N = (M.T if wide else M) / scale
    m, n = N.shape
    tau = theta / scale
    try:
        w, B = np.linalg.eigh(N.T @ N)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed on a {n}x{n} Gram matrix") from exc
    B = B[:, w > tau * tau - (m + n) * _EPS]
    if not B.shape[1]:
        return np.zeros(M.shape), 0.0
    U, s, Wt = _raw_svd(N @ B)
    keep = s > tau
    U, s, V = U[:, keep], s[keep], B @ Wt[keep].T
    if s.size and np.abs(N.T @ U - V * s).max() > 4 * m * _EPS:
        U, s, Vt = _raw_svd(N)
        keep = s > tau
        U, s, V = U[:, keep], s[keep], Vt[keep].T
    t = (s - tau) * scale
    J = (V * t) @ U.T if wide else (U * t) @ V.T
    return J, float(t.sum())


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
