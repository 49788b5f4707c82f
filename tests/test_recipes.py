"""Benchmark-recipe checks. These run full solves and take a few minutes
combined; the per-criterion gates live in test_acceptance.py."""

import numpy as np
import pytest

from lrr import cluster, linalg, metrics, recipes, solver


def test_fig3_accuracy_gate():
    out = recipes.replicate_fig3(seed=0)
    assert out.metrics["segmentation_accuracy"] >= 0.90
    assert out.tables["affinity"].shape == (220, 220)
    assert out.labels.shape == (220,)


def test_fig3_reports_majority_matching():
    # at seed 1 two clusters share a class, so the two rules differ
    out = recipes.replicate_fig3(seed=1)
    truth = out.dataset.true_labels
    local = metrics.segmentation_accuracy(out.labels, truth, "local")
    assert out.metrics["segmentation_accuracy"] == local
    assert local > metrics.segmentation_accuracy(out.labels, truth, "global")


def test_fig4_full_lambda_grid_exact():
    out = recipes.replicate_fig4(seed=0)
    per_lambda = out.metrics["per_lambda"]
    assert sorted(per_lambda) == sorted(f"{l:g}" for l in recipes.FIG4_LAMBDAS)
    assert out.metrics["all_exact"]
    for stats in per_lambda.values():
        assert stats["exact_recovery"] and stats["supports_exact"]
        assert stats["recovery_error"] <= 1e-3
    assert out.metrics["outlier_auc"] >= 0.99
    sweep = out.tables["lambda_sweep"]
    assert sweep.shape == (len(recipes.FIG4_LAMBDAS), 4)
    norms = out.tables["error_column_norms"]
    assert norms.shape == (1, 250)
    # the detected outliers: the columns above the widest gap of the norms
    order = np.sort(norms[0])
    i = np.argmax(np.diff(order))
    assert np.array_equal(out.outliers, np.flatnonzero(norms[0] > (order[i] + order[i + 1]) / 2))
    assert np.array_equal(out.outliers, out.dataset.outlier_indices)


def test_fig5a_moderate_corruption_identified():
    out = recipes.replicate_fig5a(seed=0)
    assert out.metrics["support_auc"] >= 0.99
    assert out.metrics["supports_exact"]
    assert out.metrics["n_corrupted"] == 20
    # supports are the guarantee here; the row space is only partially kept
    assert out.metrics["recovery_error"] <= 1.0


def test_fig5b_heavy_corruption_identified():
    out = recipes.replicate_fig5b(seed=0)
    assert out.metrics["support_auc"] >= 0.99
    assert out.metrics["supports_exact"]


def test_fig4_recovery_error_matches_dense_recomputation(monkeypatch):
    # the recipe factors each Z from a certified sketch; a dense SVD cut at
    # the same rank gives the same error to roundoff
    sols = []
    real = solver.solve_lrr_self

    def recorded(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(solver, "solve_lrr_self", recorded)
    out = recipes.replicate_fig4(seed=0)
    assert len(sols) == len(recipes.FIG4_LAMBDAS)
    Q = out.dataset.V0 @ out.dataset.V0.T
    for lam, sol in zip(recipes.FIG4_LAMBDAS, sols):
        U, s, _ = np.linalg.svd(sol.Z, full_matrices=False)
        U = U[:, s > solver.SOLUTION_RANK_TOL * s[0]]
        dense = np.linalg.norm(U @ U.T - Q) / np.linalg.norm(Q)
        reported = out.metrics["per_lambda"][f"{lam:g}"]["recovery_error"]
        assert abs(reported - dense) <= 1e-9


@pytest.fixture(scope="module")
def fig6_run():
    """``replicate_fig6(0)`` and the solution of its one solve."""
    sols = []
    real = solver.solve_lrr_self

    def recorded(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_lrr_self", recorded)
        out = recipes.replicate_fig6(seed=0)
    assert len(sols) == 1
    return out, sols[0]


def test_fig6_recovery_and_segmentation(fig6_run):
    out, _ = fig6_run
    m = out.metrics
    assert 0.10 <= m["recovery_error"] <= 0.25
    assert abs(m["planted_error_ratio"] - 0.63) <= 0.07
    assert m["segmentation_accuracy_authentic"] >= 0.85
    auth = out.dataset.authentic_indices()
    assert m["segmentation_accuracy_authentic"] == metrics.segmentation_accuracy(
        out.labels[auth], out.dataset.true_labels[auth], "global")
    assert out.tables["error_column_norms"].shape == (1, 500)


def test_fig6_factor_of_z_matches_public_functions(fig6_run):
    # the recipe reports the public functions' values on its Z, bit for bit,
    # also when they run outside its one-thread scope
    out, sol = fig6_run
    assert out.metrics["recovery_error"] == metrics.recovery_error(sol.Z, out.dataset.V0)
    assert np.array_equal(out.tables["affinity"], cluster.build_affinity(sol.Z))


@pytest.mark.parametrize("figure, affinities, recovery_errors", [
    ("fig4", 1, len(recipes.FIG4_LAMBDAS)),
    ("fig5a", 1, 1),
    ("fig6", 1, 1),
])
def test_recipes_score_through_the_public_functions(monkeypatch, figure, affinities,
                                                     recovery_errors):
    # the recipes reach both through the module attributes, so a wrapper set
    # there (a tracer, this spy) sees every call
    calls = []
    for module, name in ((cluster, "build_affinity"), (metrics, "recovery_error")):
        def spy(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    getattr(recipes, f"replicate_{figure}")(seed=0)
    assert calls.count("build_affinity") == affinities
    assert calls.count("recovery_error") == recovery_errors


def test_recipe_determinism():
    a = recipes.replicate_fig3(seed=4)
    b = recipes.replicate_fig3(seed=4)
    assert a.metrics == b.metrics
    assert np.array_equal(a.labels, b.labels)
