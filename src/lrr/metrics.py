"""Evaluation metrics: segmentation accuracy under a one-to-one (or, on
request, majority) label matching, ROC AUC for outlier scoring, and
row-space recovery error."""

import numpy as np

from .errors import UndefinedMetricError
from .linalg import _blas_threads, _low_rank_svd, as_matrix
from .solver import SOLUTION_RANK_TOL

STRATEGIES = ("global", "local")


def _as_labels(labels, name):
    """``labels`` as a flat integer array; any value that is not an integer
    of int64 range (a fraction, NaN, an infinity, 1e300) raises
    ``ValueError``."""
    a = np.asarray(labels).ravel()
    if a.dtype.kind not in "biu":
        a = a.astype(float)
        if not ((np.abs(a) < 2.0**63) & (a == np.round(a))).all():
            raise ValueError(f"{name} labels must be integers below 2^63")
    return a.astype(int)


def _check_labels(predicted, truth):
    p = _as_labels(predicted, "predicted")
    t = _as_labels(truth, "truth")
    if p.size == 0:
        raise ValueError("empty labelings")
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {t.size} truths")
    if p.min() < 0 or t.min() < 0:
        raise ValueError("labels must be nonnegative")
    return p, t


def _confusion(p, t):
    """Counts of each (cluster, class) pair, over the ids in use on each
    side only: ids may be large or sparse, and an unused id adds an empty
    row or column, which changes neither matching."""
    _, pi = np.unique(p, return_inverse=True)
    _, ti = np.unique(t, return_inverse=True)
    C = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(C, (pi, ti), 1)
    return C


def segmentation_accuracy(predicted, truth, strategy="global"):
    """Fraction of samples whose cluster, after relabeling, matches the
    ground-truth class.

    ``global``, the default, finds the best one-to-one matching of cluster
    ids to class ids (linear assignment on the confusion matrix) at any
    cluster count, so a class split across two clusters counts only one of
    them. ``local`` gives each cluster the class contributing most of its
    members; two clusters may collide on a label, so it never scores below
    ``global``. Ids may be any nonnegative integers, also as floats; only
    the ids in use are counted. Any other value (a fraction, NaN, an
    infinity or one of 2^63 or more) raises ``ValueError``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    p, t = _check_labels(predicted, truth)
    C = _confusion(p, t)
    m = p.size
    if strategy == "local":
        return float(C.max(axis=1).sum() / m)
    # Kuhn-Munkres on the integer counts: the matched total is the exact optimum.
    rows, cols = _max_assignment(C)
    return float(C[rows, cols].sum() / m)


def _max_assignment(C):
    """Rows and columns of a maximum-weight one-to-one matching of the
    smaller side of the nonnegative integer matrix ``C`` (Kuhn-Munkres).

    A tall ``C`` is matched as its transpose, so k rows against n >= k
    columns take O(k^2) vectorized steps of length n. The reduction phase
    of Jonker-Volgenant seeds the potentials and a partial matching first:
    each row's potential is its least cost, and a row whose least-cost
    column is still free takes it, so only the rows left over need an
    augmenting path. The potentials stay integers, so the matched total is
    exact; ties may pick any optimum."""
    if C.shape[0] > C.shape[1]:
        cols, rows = _max_assignment(C.T)
        return rows, cols
    k, n = C.shape
    # column 0 is a virtual start column and row 0 means "unmatched"
    cost = np.zeros((k + 1, n + 1), dtype=np.int64)
    cost[1:, 1:] = -C
    # with v = 0 every reduced cost is nonnegative and each least-cost edge
    # tight, as the augmenting steps require of every matched row
    u = cost.min(axis=1)
    v = np.zeros(n + 1, dtype=np.int64)
    match = np.zeros(n + 1, dtype=np.intp)  # row matched to each column
    way = np.zeros(n + 1, dtype=np.intp)  # previous column on the augmenting path
    big = np.iinfo(np.int64).max
    unmatched = []
    for i in range(1, k + 1):
        free = np.flatnonzero((cost[i, 1:] == u[i]) & (match[1:] == 0))
        if free.size:
            match[free[0] + 1] = i
        else:
            unmatched.append(i)
    for i in unmatched:
        match[0] = i
        j0 = 0
        slack = np.full(n + 1, big)
        used = np.zeros(n + 1, dtype=bool)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            free = ~used
            reduced = cost[i0] - u[i0] - v
            tighter = free & (reduced < slack)
            slack[tighter] = reduced[tighter]
            way[tighter] = j0
            j0 = int(np.argmin(np.where(free, slack, big)))
            delta = slack[j0]
            u[match[used]] += delta
            v[used] -= delta
            slack[free] -= delta
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    cols = np.flatnonzero(match[1:]) + 1
    return match[cols] - 1, cols - 1


def _check_scores(scores, truth, metric):
    """Scores and outlier flags as flat arrays of equal length, with the
    counts of positives and negatives; both classes must be present, and no
    score may be NaN."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(truth, dtype=bool).ravel()
    if s.size != y.size:
        raise ValueError(f"length mismatch: {s.size} scores vs {y.size} truths")
    # np.unique and argsort put NaN past every score, so it would rank first
    if np.isnan(s).any():
        raise ValueError(f"{metric} scores contain NaN")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(f"{metric} needs at least one positive and one negative")
    return s, y, n_pos, n_neg


def auc(scores, truth):
    """Area under the ROC curve via the rank statistic (ties get half
    credit). ``truth`` marks the positives (outliers); higher scores must
    mean more outlier-like. Raises ``UndefinedMetricError`` unless both
    classes are present, and ``ValueError`` on a NaN score."""
    s, y, n_pos, n_neg = _check_scores(scores, truth, "AUC")
    # 1-based ranks, averaged over ties: a tie group ending at rank `end`
    # with `count` members has mean rank end - (count - 1) / 2.
    _, group, count = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(count) - 0.5 * (count - 1))[group]
    rank_sum = ranks[y].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def recovery_error(Z_star, V0):
    """Distance between the column-space projector of ``Z_star`` (singular
    values up to ``SOLUTION_RANK_TOL * sigma_max`` dropped) and the
    projector ``V0 V0^T``, relative to ``||V0 V0^T||_F``.

    Both sides are projectors, so the value is basis-independent. A zero
    ``Z_star`` gives exactly 1. A small ``Z_star`` is factored on one BLAS
    thread, as in the recipes, so the value has the same bits there and
    here.
    """
    V0 = as_matrix(V0, "V0")
    gram = V0.T @ V0
    if not np.allclose(gram, np.eye(V0.shape[1]), atol=1e-6):
        raise ValueError("V0 must have orthonormal columns")
    Z_star = as_matrix(Z_star, "Z_star")
    with _blas_threads(Z_star.size):
        U = _low_rank_svd(Z_star, SOLUTION_RANK_TOL).U
        P = U @ U.T
        Q = V0 @ V0.T
        return float(np.linalg.norm(P - Q) / np.linalg.norm(Q))


def roc_sweep(scores, truth):
    """ROC points (false-positive rate, true-positive rate) over every
    distinct threshold, suitable for plotting; thresholds descend so the
    curve runs from (0,0) to (1,1)."""
    s, y, n_pos, n_neg = _check_scores(scores, truth, "ROC")
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    # a threshold admits a whole tie group, so keep the last index of each
    last = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tpr = np.cumsum(y)[last] / n_pos
    fpr = np.cumsum(~y)[last] / n_neg
    return np.vstack([[0.0, 0.0], np.column_stack([fpr, tpr])])
