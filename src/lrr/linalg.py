"""Dense-matrix primitives: skinny SVD, pseudoinverse, matrix norms, and the
proximal operators (singular-value thresholding, column/entry shrinkage) that
the nuclear-norm solvers are assembled from.

All functions are pure: they never mutate their arguments and hold no state,
so they are safe to call concurrently.
"""

import math

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


def _raw_svd(M, compute_uv=True):
    d, n = M.shape
    try:
        return np.linalg.svd(M, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge on a {d}x{n} matrix") from exc


def singular_values(M):
    """Singular values of ``M``, sorted non-increasing."""
    return _raw_svd(as_matrix(M), compute_uv=False)


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
    # s[0] = 0 keeps no value, since none is above 0
    r = int(np.count_nonzero(s > rank_tol * s[0]))
    U = U[:, :r].copy()
    s = s[:r].copy()
    V = Vt[:r].T.copy()
    # negate the columns whose first nonzero entry of U is negative
    flip = U[np.argmax(U != 0, axis=0), np.arange(r)] < 0
    U[:, flip] *= -1.0
    V[:, flip] *= -1.0
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


# Extra vectors appended to the previous basis in the warm start, so that a
# singular value crossing theta between sweeps is caught.
_WARM_EXTRA = 8
# Cap on the warm start's subspace-iteration steps. It stops as soon as its
# Ritz pairs above theta are well inside the residual check's bound; over
# the fig6 solve (seed 0) the steps needed fall from 12 in the first sweeps
# with a 40-column basis to 3, of which 2 or 3 are checked.
_WARM_STEPS = 30
# The candidate path runs only when GATE * (k + _WARM_EXTRA) <= n for a
# previous basis of k columns and an n x n Gram matrix. A step multiplies
# the Gram matrix by the block and factors small matrices of its width, so
# once the block passes about a quarter of n the steps cost more than the
# full eigh they replace: ungated, the 70x70 Gram matrices of fig4 (k = 20)
# made its five solves 40% slower.
_WARM_GATE = 4


def _cholesky_qr(Y):
    """One CholeskyQR pass: a basis of the columns of ``Y``, orthonormal up
    to about ``cond(Y)^2 eps``. Raises ``LinAlgError`` when ``Y`` is too
    ill-conditioned for it."""
    L = np.linalg.cholesky(Y.T @ Y)
    return Y @ np.linalg.inv(L).T


def _orthonormalize(Y):
    """CholeskyQR2: an orthonormal basis of the columns of ``Y``. Raises
    ``LinAlgError`` when ``Y`` is too ill-conditioned for it."""
    return _cholesky_qr(_cholesky_qr(Y))


def _ritz_triplets(N, B, tau, fro):
    """Rayleigh-Ritz on the basis ``B``: the triplets ``(U, s, V)`` of ``N``
    with ``s > tau``, or ``None`` when they fail the residual check."""
    m = N.shape[0]
    U, s, Wt = _raw_svd(N @ B)
    keep = s > tau
    U, s, V = U[:, keep], s[keep], B @ Wt[keep].T
    if s.size and np.abs(N.T @ U - V * s).max() > 4 * m * _EPS * fro:
        return None
    return U, s, V


def _certified_triplets(N, G, tau, fro, basis):
    """The triplets above ``tau`` from a cheap candidate, or ``None`` when
    the candidate is not proven exact."""
    m, n = N.shape
    k = 0 if basis is None else basis.shape[1]
    if _WARM_GATE * (k + _WARM_EXTRA) > n:
        return None
    try:
        if k:
            # a fixed seed keeps the result a function of the inputs
            extra = np.random.default_rng(0).standard_normal((n, _WARM_EXTRA))
            GY = G @ np.hstack([basis, extra])
            # a sixteenth of the residual check's bound: the accepted
            # triplets then pass it with room to spare
            target = m * _EPS * fro / 4
            Y = _orthonormalize(GY)
            steps = 1
            while True:
                GY = G @ Y
                w, Q = np.linalg.eigh(Y.T @ GY)
                kept = w > tau * tau
                if kept.all():
                    # the block cannot show where the kept values end
                    return None
                Q, w_kept = Q[:, kept], w[kept]
                residual = np.linalg.norm(GY @ Q - (Y @ Q) * w_kept, axis=0)
                excess = (residual / (target * np.sqrt(w_kept))).max(initial=0.0)
                if excess <= 1.0 or steps == _WARM_STEPS:
                    break
                # each step shrinks the residuals by about the largest
                # dropped Ritz value over the smallest kept one: skip the
                # checks of the steps that cannot pass. An estimate past the
                # cap skips none, so the checks still see a block that
                # saturates, and the last step the cap allows is checked.
                rate = w[~kept].max() / w_kept.min()
                need = math.log(excess) / -math.log(rate) if rate > 0.0 else 1.0
                for _ in range(math.ceil(need) - 1 if need <= _WARM_STEPS - steps else 0):
                    Y = _cholesky_qr(GY)
                    GY = G @ Y
                    steps += 1
                Y = _orthonormalize(GY)
                steps += 1
            found = _ritz_triplets(N, Y, tau, fro)
            if found is None:
                return None
        else:
            found = np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
        U, s, V = found
        VS = V * s
        tail = VS @ VS.T
        tail -= G
        margin = (m + n + n * (n + 1)) * _EPS * (tau * tau + fro * fro)
        tail[np.diag_indices(n)] += tau * tau - margin
        np.linalg.cholesky(tail)
    except np.linalg.LinAlgError:
        return None
    return found


def _eigh_triplets(N, G, tau, fro):
    """The triplets above ``tau`` from the full eigendecomposition of the
    Gram matrix ``G``, or from the full SVD when its basis is not accurate
    enough."""
    m, n = N.shape
    try:
        w, B = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed on a {n}x{n} Gram matrix") from exc
    B = B[:, w > tau * tau - (m + n) * _EPS * fro * fro]
    if not B.shape[1]:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
    found = _ritz_triplets(N, B, tau, fro)
    if found is None:
        U, s, Vt = _raw_svd(N)
        keep = s > tau
        found = U[:, keep], s[keep], Vt[keep].T
    return found


def svt_with_nuclear(M, theta, basis=None):
    """Singular-value thresholding plus the nuclear norm of the result.

    Shrinks every singular value by ``theta`` (clamping at zero) and
    reconstructs. Returns ``(J, nuclear, V)``: the result; its nuclear norm
    ``sum(max(sigma_i - theta, 0))``, which comes for free; and the kept
    right singular basis ``V`` of ``M`` (of ``M^T`` when ``M`` is wide), with
    one column per kept value and ``min(M.shape)`` rows. ``basis`` is such a
    ``V`` from a previous call on a nearby matrix of the same shape, as in
    consecutive sweeps of a solver. It only selects how the answer is
    found: a bad basis can cost time, never accuracy.

    ``M`` is scaled by its largest absolute entry ``peak``: ``N = M / peak``,
    turned to have at least as many rows as columns, has an entry of
    magnitude 1 and none larger, so at any scale of ``M`` no square taken
    below overflows, and any that underflows is negligible next to 1.
    ``tau = theta / peak``. A non-finite ``peak`` (a NaN or infinite entry)
    raises ``NumericalError``, and a zero ``M`` maps to zero.

    When ``||N||_F <= tau`` (that is, ``||M||_F <= theta``) the result is
    zero without an SVD: the largest singular value is at most the
    Frobenius norm, so every shrunk value clamps to zero. This certificate
    is exact, not a tolerance.

    Otherwise, with ``G = N^T N`` (``n x n``) and ``k`` columns in
    ``basis`` (0 without one), a cheap candidate is tried first when
    ``4 (k + 8) <= n``; smaller Gram matrices, or larger bases, go straight
    to step 1 below.

    - Without a basis the candidate is zero. With one, it comes from
      subspace iteration on ``G`` from ``[basis, 8 fixed-seed Gaussian
      vectors]``. A checked step is orthonormalised by CholeskyQR2 and
      takes the Ritz pairs ``(w, y)`` of the block (an ``eigh`` of its
      width). It passes when the pairs with ``w > tau^2`` have Gram
      residuals ``||G y - w y|| / sqrt(w) <= m eps ||N||_F / 4``, a
      sixteenth of the bound of the residual check below (``N^T u - s v =
      (G v - s^2 v) / s``). Only a passing check, or the check of step 30,
      ends the iteration; the block then goes through the Rayleigh-Ritz SVD
      and residual check of steps 2 and 3. When every Ritz value exceeds
      ``tau^2``, the block cannot show where the kept values end, and the
      candidate fails at once.
    - Check schedule: a failed check estimates the steps still needed from
      its own Ritz values. The residuals shrink per step by about ``rho``,
      the largest dropped Ritz value over the smallest kept one, so ``t =
      log(excess) / log(1 / rho)`` steps bring the largest ratio
      ``excess`` of residual to bound down to 1. The next ``ceil(t) - 1``
      steps run unchecked, each one ``G`` product and one CholeskyQR pass,
      and the step after them is checked. An estimate that runs past step
      30 skips nothing. On the fig6 solve (seed 0) 113 of 338 steps are
      checked, where checking every step took 366 (30 of them in the one
      sweep whose block saturates, now 2). Every accepted sweep runs the
      same number of steps either way, and the same two sweeps need the
      full ``eigh``.
    - Tail certificate: the candidate ``(U, S, V)`` is accepted only if the
      Cholesky factorisation of ``(tau^2 - margin) I - (G - V S^2 V^T)``
      succeeds. With ``r`` candidate triplets, the deflated matrix
      ``G - V S^2 V^T`` differs from ``G`` by a matrix of rank ``r``, so by
      Weyl's inequality ``sigma_{r+1}(N)^2`` is at most its largest
      eigenvalue, which a successful factorisation puts below ``tau^2``,
      however inaccurate ``V``: no singular value above ``tau`` is missed,
      and step 3's check has shown the ``r`` kept ones accurate. The margin
      ``(m + n + n (n + 1)) eps (tau^2 + ||N||_F^2)`` bounds the rounding of
      ``G`` (``m eps ||N||_F^2``), of the deflation and the shift
      (``n eps (tau^2 + ||N||_F^2)``), and the backward error of Cholesky,
      whose success proves the factored matrix plus a perturbation of norm
      at most ``(n + 1) eps trace <= n (n + 1) eps (tau^2 + ||N||_F^2)``
      positive definite (Higham, *Accuracy and Stability of Numerical
      Algorithms*, Thm 10.5). With no triplets, the same factorisation
      certifies that the result is zero.
    - Any failure of the candidate (a ``LinAlgError`` in CholeskyQR2, in
      the block's ``eigh`` or in the certificate, or a failed residual
      check) falls through to step 1. The extra vectors come from a fixed
      seed, so the result is a deterministic function of
      ``(M, theta, basis)``.

    The full path computes only the singular triplets above ``theta``:

    1. ``eigh`` of ``G``. Its eigenvectors with eigenvalue above
       ``tau^2 - (m + n) eps ||N||_F^2`` span the kept basis ``B``. The
       margin bounds the rounding of the Gram product (``m eps ||N||_F^2``)
       plus the backward error of ``eigh`` (``n eps lambda_max <= n eps
       ||N||_F^2``), so no singular value above ``theta`` is cut. An empty
       basis means a zero result.
    2. Rayleigh-Ritz: the SVD ``N B = U S W^T`` gives the singular values
       and ``U`` accurately, with ``V = B W``; ``N V = U S`` then holds to
       the SVD's own roundoff.
    3. The triplets with ``s > tau`` are checked by their other residual,
       ``||N^T U - V S||_inf <= 4 m eps ||N||_F``. It is large only when
       ``B`` misses part of the leading row space, as when the kept singular
       values sit near the ``eigh`` noise floor ``sqrt(eps) sigma_max``;
       the full SVD of ``N`` then answers instead.

    The result equals the full-SVD threshold to roundoff on every path.
    """
    peak = max(M.max(), -M.min())
    if not np.isfinite(peak):
        raise NumericalError(f"non-finite entries in a {M.shape[0]}x{M.shape[1]} SVT input")
    wide = M.shape[0] < M.shape[1]
    n = min(M.shape)
    if basis is not None:
        if basis.shape[0] != n:
            raise ValueError(f"basis has {basis.shape[0]} rows, expected {n}")
        if not np.isfinite(basis).all():
            raise ValueError("basis contains non-finite entries")
    zero = np.zeros(M.shape), 0.0, np.zeros((n, 0))
    if peak == 0.0:
        return zero
    N = (M.T if wide else M) / peak
    with np.errstate(over="ignore"):
        # inf when theta dwarfs every entry; the certificate then answers
        tau = theta / peak
    fro = np.linalg.norm(N)
    if fro <= tau:
        return zero
    G = N.T @ N
    found = _certified_triplets(N, G, tau, fro, basis)
    if found is None:
        found = _eigh_triplets(N, G, tau, fro)
    U, s, V = found
    if not s.size:
        return zero
    t = (s - tau) * peak
    J = (V * t) @ U.T if wide else (U * t) @ V.T
    return J, float(t.sum()), V


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
    return _column_shrink(as_matrix(Q), alpha)[0]


def _column_shrink(Q, alpha):
    """:func:`column_shrink` of a finite 2-D float array, without the
    checks, plus the column norms ``max(||q_i|| - alpha, 0)`` of the result.
    For the solver's sweep, whose operands are finite by construction."""
    norms = np.linalg.norm(Q, axis=0)
    kept = np.maximum(norms - alpha, 0.0)
    scale = np.zeros_like(norms)
    over = kept > 0.0
    scale[over] = kept[over] / norms[over]
    return Q * scale, kept


def entry_shrink(Q, alpha):
    """Entrywise soft threshold ``sign(q) * max(|q| - alpha, 0)``, the
    proximal operator of the l1 norm."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return _entry_shrink(as_matrix(Q), alpha)[0]


def _entry_shrink(Q, alpha):
    """:func:`entry_shrink` of a finite 2-D float array, without the checks,
    plus the magnitudes ``max(|q| - alpha, 0)`` of the result, whose sum is
    its l1 norm exactly. For the solver's sweep, like :func:`_column_shrink`."""
    kept = np.maximum(np.abs(Q) - alpha, 0.0)
    return np.sign(Q) * kept, kept


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
