"""Evaluation metrics: segmentation accuracy with global/local label
matching, ROC AUC for outlier scoring, row-space recovery error, and the
truncation-based error-level estimate."""

import numpy as np

from .errors import UndefinedMetricError
from .linalg import as_matrix, skinny_svd, singular_values
from .solver import SOLUTION_RANK_TOL

STRATEGIES = ("global", "local", "auto")


def _check_labels(predicted, truth):
    p = np.asarray(predicted, dtype=int).ravel()
    t = np.asarray(truth, dtype=int).ravel()
    if p.size == 0:
        raise ValueError("empty labelings")
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {t.size} truths")
    if p.min() < 0 or t.min() < 0:
        raise ValueError("labels must be nonnegative")
    return p, t


def _confusion(p, t):
    kp = int(p.max()) + 1
    kt = int(t.max()) + 1
    C = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(C, (p, t), 1)
    return C


def segmentation_accuracy(predicted, truth, strategy="auto"):
    """Fraction of samples whose cluster, after relabeling, matches the
    ground-truth class.

    ``global`` finds the best one-to-one matching of cluster ids to class
    ids (linear assignment on the confusion matrix). ``local`` gives each
    cluster the class contributing most of its members; two clusters may
    collide on a label. ``auto`` uses global below 10 clusters and local
    from 10 up.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    p, t = _check_labels(predicted, truth)
    C = _confusion(p, t)
    kp, kt = C.shape
    if strategy == "auto":
        strategy = "global" if kp < 10 else "local"
    m = p.size
    if strategy == "local":
        hits = sum(C[c, np.argmax(C[c])] for c in range(kp))
        return float(hits / m)
    # Imported on first use: loading scipy.sparse adds about 4 MB and 50 ms
    # to the start of every process.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    # Zero entries of a sparse matrix are missing edges; shifting every
    # count by one keeps all edges and leaves the best matching unchanged.
    rows, cols = min_weight_full_bipartite_matching(csr_array(C + 1), maximize=True)
    return float(C[rows, cols].sum() / m)


def auc(scores, truth):
    """Area under the ROC curve via the rank statistic (ties get half
    credit). ``truth`` marks the positives (outliers); higher scores must
    mean more outlier-like. Raises ``UndefinedMetricError`` unless both
    classes are present."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(truth, dtype=bool).ravel()
    if s.size != y.size:
        raise ValueError(f"length mismatch: {s.size} scores vs {y.size} truths")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
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
    ``Z_star`` gives exactly 1.
    """
    V0 = as_matrix(V0, "V0")
    gram = V0.T @ V0
    if not np.allclose(gram, np.eye(V0.shape[1]), atol=1e-6):
        raise ValueError("V0 must have orthonormal columns")
    f = skinny_svd(Z_star, SOLUTION_RANK_TOL)
    P = f.U @ f.U.T
    Q = V0 @ V0.T
    return float(np.linalg.norm(P - Q) / np.linalg.norm(Q))


def rank_r_error_level(X, r):
    """Relative residual of the best rank-``r`` approximation,
    ``||X - X_r||_F / ||X||_F``, computed from the singular values."""
    X = as_matrix(X, "X")
    if not 1 <= r <= min(X.shape):
        raise ValueError(f"r must be in [1, {min(X.shape)}], got {r}")
    s = singular_values(X)
    total = float((s**2).sum())
    if total == 0.0:
        return 0.0
    tail = float((s[r:] ** 2).sum())
    return float(np.sqrt(tail / total))


def roc_sweep(scores, truth):
    """ROC points (false-positive rate, true-positive rate) over every
    distinct threshold, suitable for plotting; thresholds descend so the
    curve runs from (0,0) to (1,1)."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(truth, dtype=bool).ravel()
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs at least one positive and one negative")
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    # a threshold admits a whole tie group, so keep the last index of each
    last = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tpr = np.cumsum(y)[last] / n_pos
    fpr = np.cumsum(~y)[last] / n_neg
    return np.vstack([[0.0, 0.0], np.column_stack([fpr, tpr])])
