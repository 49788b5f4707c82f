"""From representation to decisions: affinity construction, spectral
segmentation, subspace-count estimation, and outlier detection."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, skinny_svd
from .solver import SOLUTION_RANK_TOL, LrrSolution, solve_lrr_self

DEFAULT_TAU = 0.08
# k-means of ncut_segment: restarts from a farthest-point init, and the cap
# on assignment sweeps per restart.
KMEANS_RESTARTS = 20
KMEANS_MAX_SWEEPS = 100


def _check_tau(tau):
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")


def _check_delta(delta):
    if not delta > 0:
        raise ValueError("delta must be positive")


def _check_k(k, n):
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")


@dataclass(frozen=True)
class SegmentationResult:
    """Labels of :func:`segment` and the stages behind them: the solver's
    ``solution``, the n x n ``affinity`` W, the sorted Laplacian
    ``spectrum`` and the cluster count ``k_hat`` estimated from it. ``k`` is
    the count the labels use; ``outliers`` is ``None`` without ``delta``."""

    labels: np.ndarray
    k: int
    outliers: np.ndarray | None
    k_hat: int
    solution: LrrSolution
    affinity: np.ndarray
    spectrum: np.ndarray


def build_affinity(Z_star):
    """Affinity from a representation matrix.

    Factor ``Z* = U S V^T`` (skinny, singular values up to
    ``SOLUTION_RANK_TOL * sigma_max`` dropped), weight the columns of U by
    sqrt(S), scale each row to unit length (zero rows stay zero), and square
    the resulting Gram matrix entrywise:

        W_ij = ([U_tilde U_tilde^T]_ij)^2

    Returns the n x n array W for an n-row input. Squaring makes every
    entry nonnegative, and the entries lie in [0, 1]. W is exactly symmetric
    by construction. A zero input yields the zero matrix.
    """
    return _affinity(skinny_svd(as_matrix(Z_star, "Z_star"), SOLUTION_RANK_TOL))


def _affinity(f):
    """:func:`build_affinity` from the factor ``f = skinny_svd(Z_star,
    SOLUTION_RANK_TOL)``, for callers that factor ``Z_star`` once for
    several uses."""
    n = f.U.shape[0]
    if f.rank == 0:
        return np.zeros((n, n))
    U = f.U * np.sqrt(f.sigma)
    rn = np.linalg.norm(U, axis=1)
    nz = rn > 0
    U[nz] /= rn[nz, None]
    G = U @ U.T
    G = (G + G.T) / 2.0
    return G * G


def _as_affinity_array(W):
    W = as_matrix(W, "W")
    if W.shape[0] != W.shape[1]:
        raise ValueError(f"affinity must be square, got {W.shape}")
    return W


def _normalized_laplacian(W):
    """``I - D^{-1/2} W D^{-1/2}`` of an affinity array that
    :func:`_as_affinity_array` has checked, and the mask of samples with
    positive degree."""
    deg = W.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])  # isolated nodes stay at 0
    L = np.eye(W.shape[0]) - (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
    return (L + L.T) / 2.0, pos


def laplacian_spectrum(W):
    """Singular values of ``L = I - D^{-1/2} W D^{-1/2}`` as an array sorted
    non-decreasing, one per sample.

    L is symmetric positive semidefinite, so its singular values are its
    eigenvalues; tiny negative eigenvalues from roundoff are folded back by
    absolute value. For an affinity with entries in [0, 1] every value lies
    in [0, 2] up to roundoff.
    """
    L, _ = _normalized_laplacian(_as_affinity_array(W))
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


def _farthest_point_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = points[int(np.argmax(d2))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _kmeans(points, k, rng):
    """Seeded k-means with greedy farthest-point init; returns the labeling
    with the best within-cluster sum of squares over the restarts."""
    n = points.shape[0]
    best_labels = None
    best_cost = np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _farthest_point_init(points, k, rng)
        labels = np.full(n, -1)
        for _ in range(KMEANS_MAX_SWEEPS):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            dist_to_own = d2[np.arange(n), new_labels]
            for c in range(k):
                members = new_labels == c
                if members.any():
                    centers[c] = points[members].mean(axis=0)
                else:
                    far = int(np.argmax(dist_to_own))
                    centers[c] = points[far]
                    new_labels[far] = c
                    dist_to_own[far] = 0.0
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        cost = d2[np.arange(n), labels].sum()
        if cost < best_cost:
            best_cost = cost
            best_labels = labels
    return best_labels


def ncut_segment(W, k, seed=0):
    """Normalized-cut style spectral segmentation of the n x n affinity
    array ``W`` into ``k`` clusters; returns n integer labels.

    Embeds the samples with the k eigenvectors of the normalized Laplacian
    belonging to the smallest eigenvalues, scales the rows to unit length,
    and clusters with seeded k-means (greedy farthest-point initialization,
    ``KMEANS_RESTARTS`` restarts, lowest within-cluster sum of squares
    kept). Isolated (zero-degree) samples all join the cluster that k-means
    labelled last. Cluster ids are then numbered by first appearance
    (sample 0 is in cluster 0, the next new cluster is 1, ...), so the ids
    do not depend on which basis of a repeated eigenvalue ``eigh`` returns.

    Self-affinities play no part in a cut, so the diagonal of W is zeroed
    before the Laplacian is formed; with unit self-affinities the loops
    would account for a large share of each degree and blur the
    eigenstructure of weakly connected blocks.
    """
    W = _as_affinity_array(W)
    n = W.shape[0]
    _check_k(k, n)
    if k == 1:
        return np.zeros(n, dtype=int)
    W = W.copy()
    np.fill_diagonal(W, 0.0)
    L, connected = _normalized_laplacian(W)
    _, vecs = np.linalg.eigh(L)
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


def segment(X, k, model="l21", opts=None, tau=DEFAULT_TAU, delta=None, seed=0):
    """End-to-end pipeline: self-expressive solve, affinity, optional
    cluster-count estimation (``k="auto"``), spectral segmentation (k-means
    seeded by ``seed``), and optional outlier detection (when ``delta`` is
    given).

    ``tau``, ``delta`` and an integer ``k`` are checked before the solve.
    Returns a :class:`SegmentationResult` carrying labels plus every
    intermediate product as diagnostics.
    """
    X = as_matrix(X, "X")
    _check_tau(tau)
    if delta is not None:
        _check_delta(delta)
    auto = isinstance(k, str) and k == "auto"
    if not auto:
        k = int(k)
        _check_k(k, X.shape[1])
    sol = solve_lrr_self(X, model, opts)
    W = build_affinity(sol.Z)
    spectrum = laplacian_spectrum(W)
    k_hat = estimate_k(spectrum, tau)
    k_used = k_hat if auto else k
    labels = ncut_segment(W, k_used, seed)
    outliers = detect_outliers(sol.E, delta) if delta is not None else None
    return SegmentationResult(
        labels=labels,
        k=k_used,
        outliers=outliers,
        k_hat=k_hat,
        solution=sol,
        affinity=W,
        spectrum=spectrum,
    )
