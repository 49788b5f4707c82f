"""Each output check rejects a corrupted output, so none passes vacuously.

    python3 -m pytest bench -q

These run in seconds on small inputs and run none of the workloads.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import tracer
import workloads


def clean_problem(seed=0, d=12, n=9, rank=3):
    """Clean rank-3 data X and its optimum for a large lambda: Z* = V V^T
    (the shape-interaction matrix) with E* = 0."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
    _, _, Vt = np.linalg.svd(X, full_matrices=False)
    V = Vt[:rank].T
    return X, V @ V.T, np.zeros_like(X)


LAM = 10.0


def test_feasibility_rejects_perturbed_z():
    X, Z, E = clean_problem()
    assert checks.feasibility(X, X, Z, E) == []
    assert checks.feasibility(X, X, Z + 1e-5, E)


def test_feasibility_rejects_non_finite():
    X, Z, E = clean_problem()
    Z[0, 0] = np.nan
    assert checks.feasibility(X, X, Z, E)


def test_objective_rejects_perturbed_z():
    X, Z, E = clean_problem()
    reported = checks.objective(Z, E, LAM, "l21")
    assert abs(reported - 3.0) < 1e-9
    assert checks.objective_matches(Z, E, LAM, "l21", reported) == []
    Zp = Z.copy()
    Zp[0, 1] += 1e-3
    assert checks.objective_matches(Zp, E, LAM, "l21", reported)


@pytest.mark.parametrize("model", ["l21", "l1", "frobenius_sq"])
def test_objective_models(model):
    Z = np.eye(2)
    E = np.array([[3.0, 0.0], [4.0, -1.0]])
    err = {"l21": 6.0, "l1": 8.0, "frobenius_sq": 26.0}[model]
    assert checks.objective(Z, E, 0.5, model) == pytest.approx(2.0 + 0.5 * err)


def test_no_descent_accepts_the_optimum():
    X, Z, E = clean_problem()
    assert checks.no_descent(X, Z, E, LAM, "l21", seed=0) == []


def test_no_descent_rejects_a_scaled_representation():
    X, Z, _ = clean_problem()
    Zp = 1.05 * Z
    Ep = X - X @ Zp  # still feasible, no longer optimal
    assert checks.feasibility(X, X, Zp, Ep) == []
    assert checks.no_descent(X, Zp, Ep, LAM, "l21", seed=0)


def test_no_descent_random_directions_reject_zero_representation():
    X, _, _ = clean_problem()
    Z0 = np.zeros((X.shape[1], X.shape[1]))
    # the scaling ray is empty at Z = 0; only the random directions act
    problems = checks.no_descent(X, Z0, X.copy(), LAM, "l21", seed=0)
    assert problems and all("scaling" not in p for p in problems)


def test_row_space_rejects_outside_component():
    X, Z, _ = clean_problem()
    assert checks.in_row_space(X, Z) == []
    outside = np.random.default_rng(1).standard_normal(Z.shape)
    assert checks.in_row_space(X, Z + 1e-3 * outside)


def test_recovery_error_of_planted_and_wrong_space():
    X, Z, _ = clean_problem()
    V0 = np.linalg.svd(X, full_matrices=False)[2][:3].T
    assert checks.recovery_error(Z, V0) < 1e-12
    assert checks.recovery_within(Z, V0, 0.10, 0.25)
    wrong = np.random.default_rng(2).standard_normal(Z.shape)
    assert checks.recovery_error(wrong, V0) > 0.5


def test_outliers_separated_rejects_a_swapped_column():
    rng = np.random.default_rng(3)
    E = 1e-3 * rng.standard_normal((10, 20))
    planted = np.array([4, 11, 17])
    E[:, planted] += rng.standard_normal((10, 3))
    assert checks.outliers_separated(E, planted)
    assert not checks.outliers_separated(E, np.array([4, 11, 18]))


def test_assignment_accuracy_is_label_invariant_and_rejects_shuffled_labels():
    truth = np.repeat(np.arange(4), 5)
    labels = (truth + 1) % 4  # a relabeling: still all correct
    assert checks.assignment_accuracy(labels, truth) == 1.0
    shuffled = np.random.default_rng(4).permutation(labels)
    acc = checks.assignment_accuracy(shuffled, truth)
    assert checks.equal("accuracy", 1.0, acc)


def test_assignment_is_one_to_one_unlike_majority():
    truth = np.array([0, 0, 0, 1, 1, 1])
    labels = np.array([0, 0, 0, 0, 1, 1])
    # cluster 0 takes class 0 (3 hits) and cluster 1 class 1 (2 hits)
    assert checks.assignment_accuracy(labels, truth) == pytest.approx(5 / 6)
    labels = np.array([0, 0, 1, 1, 2, 2])
    truth = np.array([0, 0, 0, 0, 1, 1])
    assert checks.majority_accuracy(labels, truth) == 1.0
    assert checks.assignment_accuracy(labels, truth) == pytest.approx(4 / 6)


def test_mann_whitney_auc_rejects_permuted_scores():
    scores = np.array([0.1, 0.2, 0.2, 0.9, 0.8])
    positive = np.array([False, False, False, True, True])
    auc = checks.mann_whitney_auc(scores, positive)
    assert auc == 1.0
    assert checks.mann_whitney_auc(scores[::-1], positive) < 0.5
    assert checks.mann_whitney_auc(np.array([1.0, 1.0]), np.array([True, False])) == 0.5


def test_equal_rejects_missing_value():
    assert checks.equal("auc", None, 1.0)
    assert checks.equal("auc", 1.0, 1.0) == []


def _fake_solution(Z, E, X, lam, converged=True):
    return types.SimpleNamespace(Z=Z, E=E, converged=converged, iterations=5,
                                 objective=checks.objective(Z, E, lam, "l21"))


def test_fig6_check_rejects_perturbed_z_and_no_convergence():
    X, Z, E = clean_problem()
    V0 = np.linalg.svd(X, full_matrices=False)[2][:3].T
    out = types.SimpleNamespace(dataset=types.SimpleNamespace(X=X, V0=V0),
                                config={"lambda": LAM})
    w = workloads.Fig6Direct(0, None)
    # exact recovery lies outside the near-recovery window the paper reports
    [(_, failure, problems)] = w.check((out, [_fake_solution(Z, E, X, LAM)]))
    assert failure is None and problems and "recovery" in problems[0]
    [(_, _, problems)] = w.check((out, [_fake_solution(Z + 1e-4, E, X, LAM)]))
    assert any("X - AZ - E" in p for p in problems)
    [(_, _, problems)] = w.check((out, [_fake_solution(Z, E, X, LAM, converged=False)]))
    assert any("not converged" in p for p in problems)
    [(_, failure, _)] = w.check((out, []))
    assert failure is not None


def test_fig4_check_rejects_infeasible_and_misreported_recovery():
    rng = np.random.default_rng(5)
    X, Z, E = clean_problem(d=30, n=20)
    outliers = np.array([18, 19])
    V0 = np.linalg.svd(X, full_matrices=False)[2][:3].T
    ds = types.SimpleNamespace(X=X, V0=V0, outlier_indices=outliers)
    truthful = {"recovery_error": checks.recovery_error(Z, V0),
                "supports_exact": False, "exact_recovery": False}
    out = types.SimpleNamespace(dataset=ds, config={"lambdas": [LAM]},
                                metrics={"per_lambda": {"10": truthful}})
    w = workloads.Fig4Grid(0, None)
    [(_, failure, problems)] = w.check((out, [_fake_solution(Z, E, X, LAM)]))
    assert failure is None and problems == []
    # E with two outlier columns no longer satisfies X = XZ + E
    O = np.zeros_like(X)
    O[:, outliers] = rng.standard_normal((30, 2))
    [(_, _, problems)] = w.check((out, [_fake_solution(Z, O, X, LAM)]))
    assert any("X - AZ - E" in p for p in problems)
    # a recipe that claims what its solution does not show
    out.metrics["per_lambda"]["10"] = dict(truthful, recovery_error=0.5,
                                           exact_recovery=True)
    [(_, _, problems)] = w.check((out, [_fake_solution(Z, E, X, LAM)]))
    assert any("recovery_error" in p for p in problems)
    assert any("exact_recovery" in p for p in problems)


def test_cli_check_rejects_wrong_exit_code(tmp_path):
    w = workloads.CliPipeline(0, str(tmp_path))
    [(op, failure, _)] = w.check([("segment", 2)])
    assert op == "segment" and failure == "exit code 2, expected 0"
    [(_, failure, _)] = w.check([("solve-overflow", 2)])
    assert failure == "exit code 2, expected 3"
    [(_, failure, problems)] = w.check([("solve-overflow", 3)])
    assert failure is None and problems == []


def test_cli_check_rejects_accuracy_that_labels_do_not_give(tmp_path):
    w = workloads.CliPipeline(0, str(tmp_path))
    truth = np.repeat(np.arange(3), 4)
    w.data = {"seg_truth": truth}
    out = tmp_path / "outputs" / "segment"
    out.mkdir(parents=True)
    np.savetxt(out / "labels.csv", truth.reshape(-1, 1), fmt="%d")
    (out / "result.json").write_text(json.dumps({"metrics": {"accuracy": 1.0}}))
    assert w.check([("segment", 0)]) == [("segment", None, [])]
    labels = truth.copy()
    labels[[0, 4]] = labels[[4, 0]]
    np.savetxt(out / "labels.csv", labels.reshape(-1, 1), fmt="%d")
    [(_, failure, problems)] = w.check([("segment", 0)])
    assert failure is None and problems


def test_cli_check_reports_missing_output(tmp_path):
    w = workloads.CliPipeline(0, str(tmp_path))
    w.data = {"frob_X": np.ones((2, 2))}
    [(_, failure, problems)] = w.check([("solve-frobenius-self", 0)])
    assert failure is None and "unreadable output" in problems[0]


def test_tracer_counts_repeat_and_uninstall_restores():
    from lrr import cluster, linalg, solver

    original = linalg.svt_with_nuclear
    X, _, _ = clean_problem(d=10, n=8)
    opts = solver.SolverOptions(lam=LAM)
    t = tracer.Tracer()
    t.install()
    try:
        assert solver.svt_with_nuclear is not original
        assert cluster.solve_lrr_self is solver.solve_lrr_self
        runs = []
        for _ in range(2):
            sol = solver.solve_lrr_self(X, "l21", opts)
            runs.append(tracer.layer_metrics(t.take(), 1.0, 0.0))
    finally:
        t.uninstall()
    assert linalg.svt_with_nuclear is original
    assert solver.svt_with_nuclear is original
    assert solver.scipy.linalg.cho_solve.__module__.startswith("scipy")
    first, second = runs
    for name in tracer.COUNTS:
        assert first[name] == second[name], name
    assert first["solver.solves"] == 1
    assert first["solver.iterations"] == sol.iterations
    assert first["linalg.svt_calls"] == sol.iterations
    assert first["solver.reductions"] == 1
    assert 0 < first["solver.self_s"] < first["solver.solve_s"]


def test_layer_metrics_self_time_and_nesting():
    S = tracer.Span

    def span(name, layer, start, end, parent):
        s = S(name, layer, parent)
        s.start, s.end = start, end
        return s

    spans = [
        span("cli.main", "cli", 0.0, 10.0, None),
        span("matio.read_int_vector", "matio", 0.0, 2.0, 0),
        span("matio.read_matrix_csv", "matio", 0.5, 1.5, 1),
        span("solver.solve_lrr", "solver", 3.0, 9.0, 0),
        span("linalg.svt_with_nuclear", "linalg", 3.0, 5.0, 3),
        span("solver.cho_solve", "solver", 5.0, 6.0, 3),
    ]
    spans[2].info = {"bytes": 7}
    spans[1].info = {"bytes": 7}
    spans[4].info = {"zero": True}
    m = tracer.layer_metrics(spans, 20.0, 0.001)
    assert m["matio.read_s"] == 2.0  # nested read counted once
    assert m["matio.bytes_read"] == 7
    assert m["linalg.svt_zero"] == 1
    assert m["solver.z_solve_s"] == 1.0
    assert m["solver.self_s"] == 3.0  # 6 s solve - 2 s SVT - 1 s Z-step
    assert m["cli.self_s"] == 2.0  # 10 s - 2 s read - 6 s solve
    assert m["trace.cover"] == 0.5
    assert m["trace.overhead_s"] == pytest.approx(0.006)
    assert set(m) == set(tracer.METRICS)


def test_run_refuses_missing_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    bare = tmp_path / "bench"
    bare.mkdir()
    for name in ("run.py", "worker.py", "tracer.py", "workloads.py", "checks.py"):
        shutil.copy(os.path.join(here, name), bare / name)
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", "fig4_grid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
