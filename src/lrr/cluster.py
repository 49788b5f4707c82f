"""From representation to decisions: affinity construction, spectral
segmentation, subspace-count estimation, and outlier detection."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _EPS, _blas_threads, _low_rank_svd, as_matrix
from .solver import SOLUTION_RANK_TOL, LrrSolution, solve_lrr_self

DEFAULT_TAU = 0.08
# k-means of ncut_segment: restarts from a farthest-point init, run side by
# side as one batch (the lowest cost wins, the first restart on a tie), and
# the cap on assignment sweeps per restart.
KMEANS_RESTARTS = 20
KMEANS_MAX_SWEEPS = 100


def _check_tau(tau):
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")


def _check_delta(delta):
    if not delta > 0:
        raise ValueError("delta must be positive")


def _check_k(k, n):
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")


@dataclass(frozen=True)
class SegmentationResult:
    """Labels of :func:`segment` and the stages behind them: the solver's
    ``solution``, the n x n ``affinity`` W, the sorted Laplacian
    ``spectrum`` and the cluster count ``k_hat`` estimated from it. ``k`` is
    the count the labels use. Outliers: :func:`detect_outliers` of ``solution.E``."""

    labels: np.ndarray
    k: int
    k_hat: int
    solution: LrrSolution
    affinity: np.ndarray
    spectrum: np.ndarray


def build_affinity(Z_star):
    """Affinity from a representation matrix.

    Factor ``Z* = U S V^T`` (skinny, singular values up to
    ``SOLUTION_RANK_TOL * sigma_max`` dropped; from a certified sketch when
    Z* has low rank, see :func:`~lrr.linalg._low_rank_svd`), weight the
    columns of U by sqrt(S), scale each row to unit length, and square the
    resulting Gram matrix entrywise:

        W_ij = ([U_tilde U_tilde^T]_ij)^2

    A row whose norm is at most ``SOLUTION_RANK_TOL`` times the largest row
    norm is roundoff, not a direction (the rows of outliers that ``E``
    absorbs fall far below it): it is set to zero rather than scaled up, so
    its sample gets no affinity and a permutation of the samples permutes W.

    Returns the n x n array W for an n-row input. Squaring makes every
    entry nonnegative, and the entries lie in [0, 1]. W is exactly symmetric
    by construction. A zero input yields the zero matrix. A small Z* is
    factored on one BLAS thread, as in :func:`segment` and the recipes, so
    W has the same bits there and here.
    """
    Z_star = as_matrix(Z_star, "Z_star")
    with _blas_threads(Z_star.size):
        f = _low_rank_svd(Z_star, SOLUTION_RANK_TOL)
        n = f.U.shape[0]
        if f.rank == 0:
            return np.zeros((n, n))
        U = f.U * np.sqrt(f.sigma)
        rn = np.linalg.norm(U, axis=1)
        nz = rn > SOLUTION_RANK_TOL * rn.max()
        U[nz] /= rn[nz, None]
        U[~nz] = 0.0
        G = U @ U.T
        G = (G + G.T) / 2.0
        return G * G


def _laplacian(W):
    """``L = I - D^{-1/2} W D^{-1/2}`` of the square affinity array ``W``
    with its diagonal zeroed, and the mask of samples with positive degree
    (a zero-degree sample keeps a unit row of L). Self-affinities play no
    part in a cut: unit self-loops would account for a large share of each
    degree and blur the eigenstructure of weakly connected blocks."""
    W = as_matrix(W, "W")
    if W.shape[0] != W.shape[1]:
        raise ValueError(f"affinity must be square, got {W.shape}")
    W = W.copy()
    np.fill_diagonal(W, 0.0)
    deg = W.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    L = np.eye(W.shape[0]) - (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
    return (L + L.T) / 2.0, pos


def laplacian_spectrum(W):
    """Singular values of the normalized Laplacian of ``W`` (without its
    diagonal, see :func:`_laplacian`) as an array sorted non-decreasing,
    one per sample.

    L is symmetric positive semidefinite, so its singular values are its
    eigenvalues; tiny negative eigenvalues from roundoff are folded back by
    absolute value. For an affinity with entries in [0, 1] every value lies
    in [0, 2] up to roundoff.
    """
    L, _ = _laplacian(W)
    return np.sort(np.abs(np.linalg.eigvalsh(L)))


def estimate_k(spectrum, tau=DEFAULT_TAU):
    """Estimated cluster count from the array of Laplacian singular values
    (as :func:`laplacian_spectrum` returns them; their order plays no part).

    Counts singular values via the soft threshold f_tau (1 at or above tau,
    ``log2(1 + sigma^2/tau^2)`` below), rounds the total to the nearest
    integer (half away from zero), and returns ``n - total`` clamped to at
    least 1.
    """
    _check_tau(tau)
    s = np.asarray(spectrum, dtype=float)
    soft = np.where(s >= tau, 1.0, np.log2(1.0 + (s / tau) ** 2))
    k_hat = s.size - int(math.floor(soft.sum() + 0.5))
    return max(k_hat, 1)


def _farthest_point_init(points, firsts, k):
    """Greedy farthest-point init of every restart at once: restart r starts
    at ``points[firsts[r]]`` and k - 1 times adds the point farthest from
    its centres so far (the lowest index on a tie). Returns the R x k
    indices of the centres."""
    idx = np.empty((firsts.size, k), dtype=np.intp)
    idx[:, 0] = firsts
    d2 = ((points[None, :, :] - points[firsts][:, None, :]) ** 2).sum(axis=2)
    for j in range(1, k):
        idx[:, j] = np.argmax(d2, axis=1)
        np.minimum(d2, ((points[None, :, :] - points[idx[:, j]][:, None, :]) ** 2).sum(axis=2),
                   out=d2)
    return idx


def _nearest(points, centers):
    """Index of the nearest centre of every point in every restart (a x n)
    for a x k x dim centres, the lowest index on a tie.

    One stacked product gives ``||c||^2 - 2 c.x``, the squared distance less
    ``||x||^2``. A point with a second centre within that form's rounding
    bound of its nearest is decided again by ``sum((x - c)^2)``, so every
    assignment is the one the difference form makes, however the product
    was summed.
    """
    k = centers.shape[1]
    cc = (centers ** 2).sum(axis=2)
    d2 = centers @ (-2.0 * points.T)
    d2 += cc[:, :, None]
    tol = 16.0 * (points.shape[1] + 3) * _EPS * ((points ** 2).sum(axis=1).max() + cc.max())
    near = d2 <= d2.min(axis=1, keepdims=True) + tol
    # Per point, the number of centres in reach and the sum of their ids:
    # the nearest centre's id where it has no rival.
    count, ids = (np.array([np.ones(k), np.arange(k)]) @ near).swapaxes(0, 1)
    nearest = ids.astype(np.intp)
    rival = count > 1
    for r in np.flatnonzero(rival.any(axis=1)):
        i = np.flatnonzero(rival[r])
        nearest[r, i] = ((points[i][:, None, :] - centers[r]) ** 2).sum(axis=2).argmin(axis=1)
    return nearest


def _refill_empty(points, centers, labels):
    """One restart's centre update when a cluster is empty, in place: cluster
    by cluster, a centre becomes the mean of its members, and an empty
    cluster takes the point farthest from its centre (by the centres before
    the update)."""
    n = points.shape[0]
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    dist_to_own = d2[np.arange(n), labels]
    for c in range(centers.shape[0]):
        members = labels == c
        if members.any():
            centers[c] = points[members].mean(axis=0)
        else:
            far = int(np.argmax(dist_to_own))
            centers[c] = points[far]
            labels[far] = c
            dist_to_own[far] = 0.0


def _kmeans(points, k, rng):
    """Seeded k-means with greedy farthest-point init; returns the labeling
    with the lowest within-cluster sum of squares over the restarts, the
    first restart on a tie.

    The ``KMEANS_RESTARTS`` restarts run side by side. Each draws its first
    centre from ``rng`` in turn. A sweep assigns the points of every restart
    still running and moves its centres to the means of their clusters. A
    restart stops when its labels repeat, or after ``KMEANS_MAX_SWEEPS``
    sweeps.
    """
    n, dim = points.shape
    firsts = np.array([rng.integers(n) for _ in range(KMEANS_RESTARTS)])
    centers = points[_farthest_point_init(points, firsts, k)]
    labels = np.full((KMEANS_RESTARTS, n), -1)
    # Each coordinate of the points, once per restart. bincount adds a
    # cluster's members one by one in index order, as the mean of two or
    # more coordinates does, so the centres have the bits of that mean.
    coords = np.tile(points.T, (1, KMEANS_RESTARTS))
    active = np.arange(KMEANS_RESTARTS)
    for _ in range(KMEANS_MAX_SWEEPS):
        a = active.size
        new = _nearest(points, centers[active])
        bins = (np.arange(a)[:, None] * k + new).ravel()
        counts = np.bincount(bins, minlength=a * k).reshape(a, k)
        sums = np.stack([np.bincount(bins, weights=w[: a * n], minlength=a * k)
                         for w in coords], axis=1).reshape(a, k, dim)
        full = counts.all(axis=1)
        centers[active[full]] = sums[full] / counts[full][:, :, None]
        for j in np.flatnonzero(~full):
            _refill_empty(points, centers[active[j]], new[j])
        done = (new == labels[active]).all(axis=1)
        labels[active] = new
        active = active[~done]
        if not active.size:
            break
    own = centers[np.arange(KMEANS_RESTARTS)[:, None], labels]
    cost = ((points[None, :, :] - own) ** 2).sum(axis=2).sum(axis=1)
    return labels[np.argmin(cost)]


def ncut_segment(W, k, seed=0):
    """Normalized-cut style spectral segmentation of the n x n affinity
    array ``W`` into ``k`` clusters; returns n integer labels.

    Embeds the samples with the k eigenvectors of the normalized Laplacian
    (that of :func:`laplacian_spectrum`, without W's diagonal) belonging to
    the smallest eigenvalues, scales the rows to unit length, and clusters
    with seeded k-means: ``KMEANS_RESTARTS`` restarts from a greedy
    farthest-point initialization, run side by side as one batch; the
    restart with the lowest within-cluster sum of squares wins, and the
    first restart on a tie. Isolated (zero-degree) samples all join the
    cluster that k-means labelled last. Cluster ids are then numbered by
    first appearance (sample 0 is in cluster 0, the next new cluster is 1,
    ...), so the ids do not depend on which basis of a repeated eigenvalue
    ``eigh`` returns.
    """
    L, connected = _laplacian(W)
    _check_k(k, L.shape[0])
    return _cut(np.linalg.eigh(L)[1] if k > 1 else None, connected, k, seed)


def _cut(vecs, connected, k, seed):
    """The labels of :func:`ncut_segment` from the Laplacian's eigenvectors
    ``vecs`` (columns in non-decreasing eigenvalue order; not read when k
    is 1) and its mask of samples with positive degree."""
    if k == 1:
        return np.zeros(connected.size, dtype=int)
    emb = vecs[:, :k].copy()
    rn = np.linalg.norm(emb, axis=1)
    nz = rn > 0
    emb[nz] /= rn[nz, None]
    rng = np.random.default_rng(seed)
    labels = _kmeans(emb, k, rng).astype(int)
    if not connected.all():
        labels[~connected] = k - 1
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def detect_outliers(E_star, delta):
    """Indices of columns of ``E_star`` whose Euclidean norm exceeds
    ``delta``, sorted ascending."""
    _check_delta(delta)
    E = as_matrix(E_star, "E_star")
    return np.flatnonzero(np.linalg.norm(E, axis=0) > delta)


def segment(X, k, model="l21", opts=None, tau=DEFAULT_TAU, seed=0):
    """End-to-end pipeline: self-expressive solve, affinity, optional
    cluster-count estimation (``k="auto"``; else an integer, or a string
    such as ``"3"``), and spectral segmentation (k-means seeded by
    ``seed``). Outliers are a step of their own: :func:`detect_outliers`.

    ``tau`` and an integer ``k`` are checked before the solve.
    A small X runs every stage on one BLAS thread, as the solvers do.
    Returns a :class:`SegmentationResult` carrying labels plus every
    intermediate product as diagnostics.
    """
    X = as_matrix(X, "X")
    _check_tau(tau)
    auto = isinstance(k, str) and k == "auto"
    if not auto:
        k = int(k) if isinstance(k, str) else k
        _check_k(k, X.shape[1])
    with _blas_threads(X.size):
        sol = solve_lrr_self(X, model, opts)
        W = build_affinity(sol.Z)
        # one eigendecomposition gives the spectrum and the cut
        L, connected = _laplacian(W)
        vals, vecs = np.linalg.eigh(L)
        spectrum = np.sort(np.abs(vals))
        k_hat = estimate_k(spectrum, tau)
        k_used = k_hat if auto else k
        labels = _cut(vecs, connected, k_used, seed)
    return SegmentationResult(labels=labels, k=k_used, k_hat=k_hat, solution=sol,
                              affinity=W, spectrum=spectrum)
