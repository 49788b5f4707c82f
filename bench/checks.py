"""Output checks for the benchmark workloads.

Every check recomputes its quantity from the program's outputs with NumPy
and SciPy alone, without calling into ``lrr``, so a fault in the program
cannot hide behind the same fault in its check. Each check returns a list
of problems; an empty list means the output passed.

SciPy's ``optimize`` and ``stats`` are imported where they are used, so
that the benchmark's own imports do not count as the program's set-up.
"""

import numpy as np

# The solver stops once ||X - AZ - E||_inf < eps = 1e-8. Recomputing the
# residual from the returned iterates (and, for the reduced path, against
# the original dictionary) adds roundoff on top of that.
FEASIBILITY_TOL = 1e-7
OBJECTIVE_RTOL = 1e-9
# A feasible step of relative size PERTURB_SCALE may not lower the
# objective by more than DESCENT_RTOL of its value. At a converged solve
# the objective rises by about PERTURB_SCALE along every such step (the
# optimum sits on a kink of both norms); a representation scaled off the
# optimum by more than about PERTURB_SCALE fails.
PERTURB_SCALE = 1e-4
DESCENT_RTOL = 1e-8
ROW_SPACE_RTOL = 1e-8
RECOVERY_RANK_TOL = 1e-4


def objective(Z, E, lam, model):
    """||Z||_* + lam * err(E), from a NumPy SVD and column norms."""
    nuclear = float(np.linalg.svd(Z, compute_uv=False).sum())
    if model == "l21":
        err = float(np.linalg.norm(E, axis=0).sum())
    elif model == "l1":
        err = float(np.abs(E).sum())
    elif model == "frobenius_sq":
        err = float((E * E).sum())
    else:
        raise ValueError(f"unknown error model {model!r}")
    return nuclear + lam * err


def feasibility(X, A, Z, E):
    """``X = AZ + E`` holds to FEASIBILITY_TOL in the largest entry."""
    if not (np.isfinite(Z).all() and np.isfinite(E).all()):
        return ["Z or E holds non-finite entries"]
    r = float(np.abs(X - A @ Z - E).max())
    if r <= FEASIBILITY_TOL:
        return []
    return [f"||X - AZ - E||_inf = {r:.3e} > {FEASIBILITY_TOL:.0e}"]


def objective_matches(Z, E, lam, model, reported):
    """The reported objective equals the one recomputed from Z and E."""
    value = objective(Z, E, lam, model)
    if abs(value - reported) <= OBJECTIVE_RTOL * max(abs(value), 1.0):
        return []
    return [f"objective {reported!r} reported, {value!r} recomputed"]


def no_descent(A, Z, E, lam, model, seed):
    """No feasible step ``(Z + tD, E - tAD)`` lowers the objective.

    The directions are the scaling ray D = Z and two seeded random ones,
    dense Gaussian and rank one, each tried with both signs, with
    ||tD||_F = PERTURB_SCALE * max(||Z||_F, 1).
    """
    rng = np.random.default_rng(seed)
    base = objective(Z, E, lam, model)
    directions = [
        ("scaling", Z),
        ("gaussian", rng.standard_normal(Z.shape)),
        ("rank-one", np.outer(rng.standard_normal(Z.shape[0]),
                              rng.standard_normal(Z.shape[1]))),
    ]
    step = PERTURB_SCALE * max(float(np.linalg.norm(Z)), 1.0)
    problems = []
    for label, D in directions:
        size = float(np.linalg.norm(D))
        if size == 0.0:
            continue
        D = D * (step / size)
        AD = A @ D
        for sign in (1.0, -1.0):
            value = objective(Z + sign * D, E - sign * AD, lam, model)
            if value < base - DESCENT_RTOL * max(abs(base), 1.0):
                problems.append(
                    f"{'+' if sign > 0 else '-'}{label} step lowers the objective "
                    f"from {base!r} to {value!r}")
    return problems


def in_row_space(X, Z):
    """Every column of Z lies in the row space of X."""
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.count_nonzero(s > max(X.shape) * np.finfo(float).eps * s[0]))
    V = Vt[:rank].T
    off = float(np.linalg.norm(Z - V @ (V.T @ Z)))
    limit = ROW_SPACE_RTOL * max(float(np.linalg.norm(Z)), 1.0)
    return [] if off <= limit else [f"||Z - P_row(X) Z||_F = {off:.3e} > {limit:.1e}"]


def recovery_error(Z, V0):
    """||P_col(Z) - V0 V0^T||_F / ||V0 V0^T||_F with the column space of Z
    cut at RECOVERY_RANK_TOL times its largest singular value."""
    U, s, _ = np.linalg.svd(Z, full_matrices=False)
    rank = int(np.count_nonzero(s > RECOVERY_RANK_TOL * s[0])) if s[0] > 0 else 0
    P = U[:, :rank] @ U[:, :rank].T
    Q = V0 @ V0.T
    return float(np.linalg.norm(P - Q) / np.linalg.norm(Q))


def recovery_within(Z, V0, lo, hi):
    err = recovery_error(Z, V0)
    return [] if lo <= err <= hi else [f"recovery error {err:.4g} outside [{lo}, {hi}]"]


def outliers_separated(E, planted):
    """Every planted outlier column of E is longer than every other column,
    so a threshold between the two groups finds exactly the planted set."""
    norms = np.linalg.norm(E, axis=0)
    planted = np.asarray(planted, dtype=int)
    clean = np.setdiff1d(np.arange(norms.size), planted)
    if planted.size == 0 or clean.size == 0:
        return True
    return bool(norms[planted].min() > norms[clean].max())


def confusion(labels, truth):
    labels = np.asarray(labels, dtype=int).ravel()
    truth = np.asarray(truth, dtype=int).ravel()
    C = np.zeros((labels.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(C, (labels, truth), 1)
    return C


def assignment_accuracy(labels, truth):
    """Share of samples matched under the best one-to-one relabeling."""
    import scipy.optimize

    C = confusion(labels, truth)
    rows, cols = scipy.optimize.linear_sum_assignment(C, maximize=True)
    return float(C[rows, cols].sum() / C.sum())


def majority_accuracy(labels, truth):
    """Share of samples whose cluster's most common class is their own."""
    C = confusion(labels, truth)
    return float(C.max(axis=1).sum() / C.sum())


def mann_whitney_auc(scores, positive):
    """AUC from the Mann-Whitney U statistic on average ranks."""
    import scipy.stats

    scores = np.asarray(scores, dtype=float).ravel()
    positive = np.asarray(positive, dtype=bool).ravel()
    ranks = scipy.stats.rankdata(scores)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def equal(name, reported, recomputed, rtol=1e-12):
    """The reported value equals the recomputed one to ``rtol``."""
    if reported is not None and abs(reported - recomputed) <= rtol * max(abs(recomputed), 1.0):
        return []
    return [f"{name} {reported!r} reported, {recomputed!r} recomputed"]


def solution(X, A, Z, E, lam, model, reported_objective, seed):
    """Feasibility, objective and no-descent checks of one solve."""
    problems = feasibility(X, A, Z, E)
    problems += objective_matches(Z, E, lam, model, reported_objective)
    problems += no_descent(A, Z, E, lam, model, seed)
    return problems
