"""Built-in benchmark recipes over the synthetic generators.

Each recipe generates a seeded multi-subspace dataset, normalizes the
observed columns to unit length (the reference tradeoff weights assume
unit-magnitude samples), runs the pipeline with its reference parameters,
and returns metrics plus plot-ready tables (affinity heatmap, error-column
norms, parameter sweeps). These are the desk-scale experiments the test
suite gates on; the CLI exposes them under ``replicate``.
"""

from dataclasses import dataclass

import numpy as np

from . import cluster, metrics, solver, synth
from .linalg import skinny_svd

# Reference parameter sets. fig4's lambda grid spans the window where
# outliers are identified exactly; fig6's noise/corruption/outlier split is
# calibrated so the planted error ratio ||E0||_F/||X0||_F lands near 0.63.
FIG4_LAMBDAS = (0.16, 0.20, 0.25, 0.30, 0.34)
FIG5_LAMBDA = 0.26
FIG6_LAMBDA = 0.30
FIG6_NOISE_LEVEL = 0.24
FIG6_CORRUPT_SCALE = 1.2
FIG6_OUTLIER_SCALE = 1.0
# Fraction of the samples that fig5 and fig6 corrupt.
CORRUPT_FRACTION = 0.10

# The dataset of each figure, as the keywords of _dataset; each recipe's
# config repeats them.
FIG3 = {"k": 11, "dim": 20, "ambient": 200, "per_subspace": 20}
FIG4 = {"k": 5, "dim": 4, "ambient": 200, "per_subspace": 40,
        "n_outliers": 50, "outlier_scale": 3.0}
FIG5 = {"k": 5, "dim": 4, "ambient": 200, "per_subspace": 40}
FIG6 = {"k": 10, "dim": 4, "ambient": 2000, "per_subspace": 40, "n_outliers": 100,
        "noise_level": FIG6_NOISE_LEVEL, "corrupt_scale": FIG6_CORRUPT_SCALE,
        "outlier_scale": FIG6_OUTLIER_SCALE}


@dataclass
class ReplicationOutput:
    """What a recipe returns: its ``config`` and ``metrics``, the plot-ready
    ``tables`` (name -> matrix), the ``dataset`` it ran on, and the
    predicted ``labels`` or detected ``outliers`` where the figure has
    them."""

    config: dict
    metrics: dict
    tables: dict
    dataset: synth.SyntheticDataset
    labels: np.ndarray | None = None
    outliers: np.ndarray | None = None


def _dataset(seed, k, dim, ambient, per_subspace, corrupt_scale=None, noise_level=None,
             n_outliers=None, outlier_scale=None):
    """``per_subspace`` samples from each of ``k`` pairwise disjoint
    rank-``dim`` subspaces of R^``ambient``; then, for each parameter given,
    ``CORRUPT_FRACTION`` of them grossly corrupted, noise added and
    outliers appended, in that order, each step seeded by the next subseed
    of ``seed``. Columns are normalized to unit length last."""
    # the first words of a longer state equal a shorter state, so every
    # figure keeps the subseeds it had when each drew only as many as it used
    seeds = iter(np.random.SeedSequence(seed).generate_state(5).tolist())
    ens = synth.gen_ensemble(k, dim, ambient, mode="disjoint", seed=next(seeds))
    ds = synth.sample(ens, per_subspace, seed=next(seeds))
    if corrupt_scale is not None:
        ds = synth.corrupt_samples(ds, CORRUPT_FRACTION, corrupt_scale, seed=next(seeds))
    if noise_level is not None:
        ds = synth.add_noise(ds, noise_level, seed=next(seeds))
    if n_outliers is not None:
        ds = synth.add_outliers(ds, n_outliers, outlier_scale, seed=next(seeds))
    return synth.normalize_columns(ds)


def _solve(ds, lam):
    """The ``l21`` self solve of ``ds.X`` at ``lam``; the factor of its Z,
    taken once for both :func:`metrics.recovery_error` and
    :func:`cluster.build_affinity`; the recovery error against ``ds.V0``;
    and the column norms of E."""
    sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=lam))
    f = skinny_svd(sol.Z, solver.SOLUTION_RANK_TOL)
    return sol, f, metrics._recovery_error(f, ds.V0), np.linalg.norm(sol.E, axis=0)


def make_fig3_dataset(seed=0):
    """11 pairwise disjoint rank-20 subspaces in R^200, 20 clean samples
    each (the dimensions sum past the ambient one, so the subspaces are
    dependent)."""
    return _dataset(seed, **FIG3)


def make_fig4_dataset(seed=0):
    """5 pairwise disjoint rank-4 subspaces in R^200, 40 samples each, plus
    50 appended Gaussian outliers at 3x the sample magnitude."""
    return _dataset(seed, **FIG4)


def make_fig5_dataset(seed=0, corrupt_scale=0.7):
    """fig4-style clean samples with 10% of them grossly corrupted
    (no appended outliers)."""
    return _dataset(seed, **FIG5, corrupt_scale=corrupt_scale)


def make_fig6_dataset(seed=0):
    """10 pairwise disjoint rank-4 subspaces in R^2000, 40 samples each;
    10% of the samples grossly corrupted, the rest lightly noised, and 100
    outliers appended. The ``FIG6_*`` levels put the planted error ratio
    near 0.63."""
    return _dataset(seed, **FIG6)


def replicate_fig3(seed=0):
    ds = make_fig3_dataset(seed)
    Z = solver.solve_lrr_clean(ds.X, ds.X)
    W = cluster.build_affinity(Z)
    labels = cluster.ncut_segment(W, FIG3["k"], seed=seed)
    acc = metrics.segmentation_accuracy(labels, ds.true_labels)
    return ReplicationOutput(
        config={**FIG3, "seed": seed},
        metrics={"segmentation_accuracy": acc, "k": FIG3["k"]},
        tables={"affinity": W},
        labels=labels,
        dataset=ds,
    )


def replicate_fig4(seed=0):
    """One ``l21`` self-expressive solve per lambda of ``FIG4_LAMBDAS`` on
    :func:`make_fig4_dataset`: recovery error, exact outlier identification
    and iterations per lambda, the outlier AUC, and plot tables of the
    lambda = 0.25 solve."""
    ds = make_fig4_dataset(seed)
    out = ds.outlier_indices
    clean = np.setdiff1d(np.arange(ds.n), out)
    rows = []
    per_lambda = {}
    for lam in FIG4_LAMBDAS:
        sol, f, rec, norms = _solve(ds, lam)
        # exact when every outlier column of E is longer than every other
        # column: a threshold in the gap then flags exactly the outliers
        max_clean = float(norms[clean].max())
        min_out = float(norms[out].min())
        supports_exact = min_out > max_clean
        exact = supports_exact and rec <= 1e-3
        rows.append([lam, rec, float(exact), sol.iterations])
        per_lambda[f"{lam:g}"] = {
            "recovery_error": rec,
            "exact_recovery": bool(exact),
            "supports_exact": bool(supports_exact),
            "max_clean_column_norm": max_clean,
            "min_outlier_column_norm": min_out,
            "iterations": sol.iterations,
            "converged": bool(sol.converged),
        }
        if lam == 0.25:
            scores, rep_f = norms, f
    truth = np.zeros(ds.n, dtype=bool)
    truth[out] = True
    return ReplicationOutput(
        config={**FIG4, "lambdas": list(FIG4_LAMBDAS), "seed": seed},
        metrics={
            "per_lambda": per_lambda,
            "all_exact": all(v["exact_recovery"] for v in per_lambda.values()),
            "outlier_auc": metrics.auc(scores, truth),
        },
        tables={
            "lambda_sweep": np.asarray(rows),
            "error_column_norms": scores.reshape(1, -1),
            "affinity": cluster._affinity(rep_f),
        },
        outliers=out,
        dataset=ds,
    )


def _replicate_fig5(seed, corrupt_scale):
    ds = make_fig5_dataset(seed, corrupt_scale)
    sol, f, rec, norms = _solve(ds, FIG5_LAMBDA)
    truth = np.zeros(ds.n, dtype=bool)
    truth[ds.corrupted_indices] = True
    support_auc = metrics.auc(norms, truth)
    # threshold at the widest gap between sorted norms
    order = np.sort(norms)
    gaps = np.diff(order)
    split = float((order[np.argmax(gaps)] + order[np.argmax(gaps) + 1]) / 2.0)
    detected = np.flatnonzero(norms > split)
    supports_exact = np.array_equal(detected, ds.corrupted_indices)
    return ReplicationOutput(
        config={**FIG5, "corrupt_fraction": CORRUPT_FRACTION, "corrupt_scale": corrupt_scale,
                "lambda": FIG5_LAMBDA, "seed": seed},
        metrics={
            "support_auc": support_auc,
            "supports_exact": bool(supports_exact),
            "n_detected": int(detected.size),
            "n_corrupted": int(ds.corrupted_indices.size),
            "recovery_error": rec,
            "iterations": sol.iterations,
        },
        tables={
            "error_column_norms": norms.reshape(1, -1),
            "affinity": cluster._affinity(f),
        },
        outliers=detected,
        dataset=ds,
    )


def replicate_fig5a(seed=0):
    return _replicate_fig5(seed, 0.7)


def replicate_fig5b(seed=0):
    return _replicate_fig5(seed, 3.5)


def replicate_fig6(seed=0):
    """One ``l21`` self-expressive solve at ``FIG6_LAMBDA`` on
    :func:`make_fig6_dataset`, its affinity and a 10-way segmentation:
    recovery error, planted error ratio and segmentation accuracy on the
    authentic samples."""
    ds = make_fig6_dataset(seed)
    sol, f, rec, norms = _solve(ds, FIG6_LAMBDA)
    W = cluster._affinity(f)
    labels = cluster.ncut_segment(W, FIG6["k"], seed=seed)
    auth = ds.authentic_indices()
    return ReplicationOutput(
        config={**FIG6, "lambda": FIG6_LAMBDA, "seed": seed},
        metrics={
            "recovery_error": rec,
            "planted_error_ratio": ds.error_ratio,
            "iterations": sol.iterations,
            "converged": bool(sol.converged),
            "segmentation_accuracy_authentic": metrics.segmentation_accuracy(
                labels[auth], ds.true_labels[auth]
            ),
        },
        tables={"error_column_norms": norms.reshape(1, -1), "affinity": W},
        labels=labels,
        dataset=ds,
    )


RECIPES = {
    "fig3": replicate_fig3,
    "fig4": replicate_fig4,
    "fig5a": replicate_fig5a,
    "fig5b": replicate_fig5b,
    "fig6": replicate_fig6,
}


def run_replication(figure, seed=0):
    if figure not in RECIPES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {tuple(RECIPES)}")
    return RECIPES[figure](seed)
