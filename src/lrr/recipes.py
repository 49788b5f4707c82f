"""Built-in benchmark recipes over the synthetic generators.

Each recipe generates a seeded multi-subspace dataset, normalizes the
observed columns to unit length (the reference tradeoff weights assume
unit-magnitude samples), runs the pipeline with its reference parameters,
and returns metrics plus plot-ready tables (affinity heatmap, error-column
norms, parameter sweeps). These are the desk-scale experiments the test
suite gates on; the CLI exposes them under ``replicate``.
"""

from dataclasses import dataclass, field

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


@dataclass
class ReplicationOutput:
    figure: str
    config: dict
    metrics: dict
    tables: dict = field(default_factory=dict)
    labels: np.ndarray | None = None
    outliers: np.ndarray | None = None
    dataset: synth.SyntheticDataset | None = None


def _subseeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _factor(Z):
    """The factor of ``Z`` that :func:`metrics.recovery_error` and
    :func:`cluster.build_affinity` each take; a recipe takes it once and
    hands it to both."""
    return skinny_svd(Z, solver.SOLUTION_RANK_TOL)


def _outlier_gap(E, dataset):
    """Largest clean-column norm, smallest outlier-column norm, and the set
    detected at the midpoint threshold."""
    norms = np.linalg.norm(E, axis=0)
    out = dataset.outlier_indices
    clean = np.setdiff1d(np.arange(dataset.n), out)
    max_clean = float(norms[clean].max()) if clean.size else 0.0
    min_out = float(norms[out].min()) if out.size else np.inf
    detected = None
    if min_out > max_clean:
        detected = cluster.detect_outliers(E, (max_clean + min_out) / 2.0)
    return max_clean, min_out, detected


def make_fig3_dataset(seed=0):
    """11 pairwise disjoint rank-20 subspaces in R^200, 20 clean samples
    each (the dimensions sum past the ambient one, so the subspaces are
    dependent)."""
    s = _subseeds(seed, 2)
    ens = synth.gen_ensemble(11, 20, 200, mode="disjoint", seed=s[0])
    return synth.normalize_columns(synth.sample(ens, 20, seed=s[1]))


def make_fig4_dataset(seed=0):
    """5 pairwise disjoint rank-4 subspaces in R^200, 40 samples each, plus
    50 appended Gaussian outliers at 3x the sample magnitude."""
    s = _subseeds(seed, 3)
    ens = synth.gen_ensemble(5, 4, 200, mode="disjoint", seed=s[0])
    ds = synth.sample(ens, 40, seed=s[1])
    ds = synth.add_outliers(ds, 50, 3.0, seed=s[2])
    return synth.normalize_columns(ds)


def make_fig5_dataset(seed=0, corrupt_scale=0.7):
    """fig4-style clean samples with 10% of them grossly corrupted
    (no appended outliers)."""
    s = _subseeds(seed, 3)
    ens = synth.gen_ensemble(5, 4, 200, mode="disjoint", seed=s[0])
    ds = synth.sample(ens, 40, seed=s[1])
    ds = synth.corrupt_samples(ds, 0.10, corrupt_scale, seed=s[2])
    return synth.normalize_columns(ds)


def make_fig6_dataset(seed=0):
    """10 pairwise disjoint rank-4 subspaces in R^2000, 40 samples each;
    10% of the samples grossly corrupted, the rest lightly noised, and 100
    outliers appended. The ``FIG6_*`` levels put the planted error ratio
    near 0.63."""
    s = _subseeds(seed, 5)
    ens = synth.gen_ensemble(10, 4, 2000, mode="disjoint", seed=s[0])
    ds = synth.sample(ens, 40, seed=s[1])
    ds = synth.corrupt_samples(ds, 0.10, FIG6_CORRUPT_SCALE, seed=s[2])
    ds = synth.add_noise(ds, FIG6_NOISE_LEVEL, seed=s[3])
    ds = synth.add_outliers(ds, 100, FIG6_OUTLIER_SCALE, seed=s[4])
    return synth.normalize_columns(ds)


def replicate_fig3(seed=0):
    ds = make_fig3_dataset(seed)
    Z = solver.solve_lrr_clean(ds.X, ds.X)
    W = cluster.build_affinity(Z)
    labels = cluster.ncut_segment(W, 11, seed=seed)
    acc = metrics.segmentation_accuracy(labels, ds.true_labels)
    return ReplicationOutput(
        figure="fig3",
        config={"k": 11, "dim": 20, "ambient": 200, "per_subspace": 20, "seed": seed},
        metrics={"segmentation_accuracy": acc, "k": 11},
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
    rows = []
    per_lambda = {}
    for lam in FIG4_LAMBDAS:
        sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=lam))
        f = _factor(sol.Z)
        rec = metrics._recovery_error(f, ds.V0)
        max_clean, min_out, detected = _outlier_gap(sol.E, ds)
        supports_exact = detected is not None and np.array_equal(
            detected, ds.outlier_indices
        )
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
            rep_sol, rep_f = sol, f
    scores = np.linalg.norm(rep_sol.E, axis=0)
    truth = np.zeros(ds.n, dtype=bool)
    truth[ds.outlier_indices] = True
    return ReplicationOutput(
        figure="fig4",
        config={"k": 5, "dim": 4, "ambient": 200, "per_subspace": 40,
                "n_outliers": 50, "outlier_scale": 3.0,
                "lambdas": list(FIG4_LAMBDAS), "seed": seed},
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
        outliers=ds.outlier_indices,
        dataset=ds,
    )


def _replicate_fig5(figure, seed, corrupt_scale):
    ds = make_fig5_dataset(seed, corrupt_scale)
    sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=FIG5_LAMBDA))
    f = _factor(sol.Z)
    norms = np.linalg.norm(sol.E, axis=0)
    truth = np.zeros(ds.n, dtype=bool)
    truth[ds.corrupted_indices] = True
    support_auc = metrics.auc(norms, truth)
    # threshold at the widest gap between sorted norms
    order = np.sort(norms)
    gaps = np.diff(order)
    split = float((order[np.argmax(gaps)] + order[np.argmax(gaps) + 1]) / 2.0)
    detected = cluster.detect_outliers(sol.E, split)
    supports_exact = np.array_equal(detected, ds.corrupted_indices)
    return ReplicationOutput(
        figure=figure,
        config={"k": 5, "dim": 4, "ambient": 200, "per_subspace": 40,
                "corrupt_fraction": 0.10, "corrupt_scale": corrupt_scale,
                "lambda": FIG5_LAMBDA, "seed": seed},
        metrics={
            "support_auc": support_auc,
            "supports_exact": bool(supports_exact),
            "n_detected": int(detected.size),
            "n_corrupted": int(ds.corrupted_indices.size),
            "recovery_error": metrics._recovery_error(f, ds.V0),
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
    return _replicate_fig5("fig5a", seed, 0.7)


def replicate_fig5b(seed=0):
    return _replicate_fig5("fig5b", seed, 3.5)


def replicate_fig6(seed=0):
    """One ``l21`` self-expressive solve at ``FIG6_LAMBDA`` on
    :func:`make_fig6_dataset`, its affinity and a 10-way segmentation:
    recovery error, planted error ratio and segmentation accuracy on the
    authentic samples."""
    ds = make_fig6_dataset(seed)
    sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=FIG6_LAMBDA))
    f = _factor(sol.Z)
    rec = metrics._recovery_error(f, ds.V0)
    out = {
        "recovery_error": rec,
        "planted_error_ratio": ds.error_ratio,
        "iterations": sol.iterations,
        "converged": bool(sol.converged),
    }
    W = cluster._affinity(f)
    labels = cluster.ncut_segment(W, 10, seed=seed)
    auth = ds.authentic_indices()
    out["segmentation_accuracy_authentic"] = metrics.segmentation_accuracy(
        labels[auth], ds.true_labels[auth]
    )
    return ReplicationOutput(
        figure="fig6",
        config={"k": 10, "dim": 4, "ambient": 2000, "per_subspace": 40,
                "n_outliers": 100, "lambda": FIG6_LAMBDA,
                "noise_level": FIG6_NOISE_LEVEL,
                "corrupt_scale": FIG6_CORRUPT_SCALE,
                "outlier_scale": FIG6_OUTLIER_SCALE, "seed": seed},
        metrics=out,
        tables={
            "error_column_norms": np.linalg.norm(sol.E, axis=0).reshape(1, -1),
            "affinity": W,
        },
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
