"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to watch them stream), plus a
property that checks c11 over generated inputs.

Criteria with long-running solves share module-scoped fixtures. The
solver-vs-subgradient criterion checks against frozen oracle objectives;
set ``LRR_ORACLE_LIVE=1`` to regenerate them in-process instead
(adds ~80 s)."""

import os
import time

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from lrr import cluster, linalg, metrics, recipes, solver, synth

import oracles


def report(cid, name, ok, detail):
    print(f"ACCEPTANCE {cid:>2} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {cid} ({name}): {detail}"


def projector_distance(Z, V0):
    return np.linalg.norm(Z - V0 @ V0.T)


def row_space_drift(A, Z):
    P = linalg.row_space_projector(A)
    return np.linalg.norm(P @ Z - Z) / max(1.0, np.linalg.norm(Z))


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def clean5():
    """5 independent rank-4 subspaces, 20 samples each, ambient 100."""
    ens = synth.gen_ensemble(5, 4, 100, mode="independent", seed=101)
    return synth.sample(ens, 20, seed=102)


@pytest.fixture(scope="module")
def clean5_solves(clean5):
    started = time.perf_counter()
    Z_closed = solver.solve_lrr_clean(clean5.X, clean5.X)
    sol = solver.solve_lrr_self(clean5.X, "l21", solver.SolverOptions(lam=1e3))
    elapsed = time.perf_counter() - started
    return Z_closed, sol, elapsed


@pytest.fixture(scope="module")
def fig4_runs():
    ds = recipes.make_fig4_dataset(seed=0)
    runs = {}
    for lam in (0.16, 0.25, 0.34):
        started = time.perf_counter()
        sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=lam))
        runs[lam] = (sol, time.perf_counter() - started)
    return ds, runs


@pytest.fixture(scope="module")
def fig6_runs():
    runs = []
    for seed in range(5):
        started = time.perf_counter()
        ds = recipes.make_fig6_dataset(seed=seed)
        sol = solver.solve_lrr_self(ds.X, "l21",
                                    solver.SolverOptions(lam=recipes.FIG6_LAMBDA))
        runs.append((ds, sol, time.perf_counter() - started))
    return runs


# ---------------------------------------------------------------- criteria

def test_c01_clean_data_exactness(clean5, clean5_solves):
    Z_closed, sol, elapsed = clean5_solves
    VVt = clean5.V0 @ clean5.V0.T
    scale = np.linalg.norm(VVt)
    err_closed = np.linalg.norm(Z_closed - VVt) / scale
    err_alm = np.linalg.norm(sol.Z - VVt) / scale
    ok = err_closed <= 1e-3 and err_alm <= 1e-3 and elapsed < 10.0
    report(1, "clean-data exactness", ok,
           f"closed={err_closed:.2e} alm={err_alm:.2e} runtime={elapsed:.2f}s")


def test_c02_block_diagonality(clean5, clean5_solves):
    Z_closed, _, _ = clean5_solves
    labels = clean5.true_labels
    off = Z_closed[labels[:, None] != labels[None, :]]
    frac = np.linalg.norm(off) / np.linalg.norm(Z_closed)
    report(2, "block-diagonality", frac <= 1e-6, f"off-block fraction={frac:.2e}")


def test_c03_outlier_exactness(fig4_runs):
    ds, runs = fig4_runs
    out = ds.outlier_indices
    clean_idx = np.setdiff1d(np.arange(ds.n), out)
    details = []
    ok = True
    for lam, (sol, elapsed) in sorted(runs.items()):
        rec = metrics.recovery_error(sol.Z, ds.V0)
        norms = np.linalg.norm(sol.E, axis=0)
        max_clean = norms[clean_idx].max()
        min_out = norms[out].min()
        gap = min_out > max_clean
        exact_set = False
        if gap:
            detected = cluster.detect_outliers(sol.E, (max_clean + min_out) / 2.0)
            exact_set = np.array_equal(detected, out)
        ok &= rec <= 1e-3 and exact_set and elapsed < 60.0
        details.append(f"lam={lam}: rec={rec:.1e} exact={exact_set} t={elapsed:.1f}s")
        # row-space membership and the coarse recovery bound hold here too
        assert row_space_drift(ds.X, sol.Z) <= 1e-4
        assert projector_distance(sol.Z, ds.V0) <= min(ds.d, ds.n) + ds.rank0
    report(3, "outlier exactness", ok, "; ".join(details))


def test_c04_near_recovery_mixed_errors(fig6_runs):
    details = []
    ok = True
    for seed, (ds, sol, elapsed) in enumerate(fig6_runs):
        rec = metrics.recovery_error(sol.Z, ds.V0)
        ratio = ds.error_ratio
        ok &= 0.10 <= rec <= 0.25
        ok &= abs(ratio - 0.63) <= 0.07
        ok &= elapsed < 300.0
        details.append(f"s{seed}: rec={rec:.3f} ratio={ratio:.3f} t={elapsed:.0f}s")
        assert projector_distance(sol.Z, ds.V0) <= min(ds.d, ds.n) + ds.rank0
    report(4, "near recovery under mixed errors", ok, "; ".join(details))


def test_c05_disjoint_subspace_segmentation():
    out = recipes.replicate_fig3(seed=0)
    acc = out.metrics["segmentation_accuracy"]
    report(5, "disjoint-subspace segmentation", acc >= 0.90, f"accuracy={acc:.4f}")


def test_c06_subspace_number_estimation():
    details = []
    ok = True
    for k in range(2, 9):
        ens = synth.gen_ensemble(k, 4, 100, mode="independent", seed=300 + k)
        ds = synth.sample(ens, 15, seed=400 + k)
        Z = solver.solve_lrr_clean(ds.X, ds.X)
        spectrum = cluster.laplacian_spectrum(cluster.build_affinity(Z))
        k_hat = cluster.estimate_k(spectrum, tau=0.08)
        ok &= k_hat == k
        details.append(f"{k}->{k_hat}")
    report(6, "subspace-number estimation", ok, " ".join(details))


# Frozen objectives of the projected-subgradient oracle
# (oracles.projected_subgradient_oracle, 100000 iterations, step_scale=0.5,
# instances from oracles.oracle_instance(seed), lam=0.5). Regenerate live
# with LRR_ORACLE_LIVE=1.
ORACLE_OBJECTIVES = (
    9.588155661537831,
    10.362493416821023,
    12.643768443523378,
    10.753231660766877,
    11.663137263727355,
    9.794350201486669,
    10.436200882542785,
    8.8762271419951,
    10.77453072266692,
    12.986037924659515,
)


def test_c07_solver_oracle_equivalence():
    live = os.environ.get("LRR_ORACLE_LIVE") == "1"
    rels = []
    ok = True
    for seed in range(10):
        X, A = oracles.oracle_instance(seed)
        target = (oracles.projected_subgradient_oracle(X, A, 0.5, iters=100_000)
                  if live else ORACLE_OBJECTIVES[seed])
        sol = solver.solve_lrr(X, A, "l21", solver.SolverOptions(lam=0.5))
        rel = abs(sol.objective - target) / target
        rels.append(rel)
        ok &= sol.converged and rel <= 1e-3
    report(7, "solver-oracle equivalence", ok,
           f"max rel gap={max(rels):.2e} ({'live' if live else 'frozen'} oracle)")


def test_c08_row_space_membership():
    rng = np.random.default_rng(500)
    worst = 0.0
    ok = True
    cases = []
    for trial in range(6):
        d, n_a, n = 12, 10, 9
        if trial % 2:
            A = rng.standard_normal((d, 4)) @ rng.standard_normal((4, n_a))
        else:
            A = rng.standard_normal((d, n_a))
        X = rng.standard_normal((d, n))
        model = solver.ERROR_MODELS[trial % 3]
        sol = solver.solve_lrr(X, A, model, solver.SolverOptions(lam=0.5))
        drift = row_space_drift(A, sol.Z)
        worst = max(worst, drift)
        ok &= sol.converged and drift <= 1e-4
        cases.append(f"{model}:{drift:.1e}")
    report(8, "row-space membership", ok, f"worst drift={worst:.2e}")


def test_c09_near_recovery_bound():
    ok = True
    worst_margin = np.inf
    for seed, lam, transform in [
        (600, 0.5, None),
        (601, 0.25, "outliers"),
        (602, 0.35, "corrupt"),
        (603, 1.0, "noise"),
    ]:
        ens = synth.gen_ensemble(3, 3, 40, mode="independent", seed=seed)
        ds = synth.sample(ens, 8, seed=seed + 50)
        if transform == "outliers":
            ds = synth.add_outliers(ds, 5, 3.0, seed=seed + 60)
        elif transform == "corrupt":
            ds = synth.corrupt_samples(ds, 0.2, 0.7, seed=seed + 60)
        elif transform == "noise":
            ds = synth.add_noise(ds, 0.3, seed=seed + 60)
        ds = synth.normalize_columns(ds)
        sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=lam))
        bound = min(ds.d, ds.n) + ds.rank0
        dist = projector_distance(sol.Z, ds.V0)
        ok &= dist <= bound
        worst_margin = min(worst_margin, bound - dist)
    report(9, "coarse recovery bound", ok, f"smallest margin={worst_margin:.2f}")


def test_c10_proximal_operator_correctness():
    rng = np.random.default_rng(700)
    ok = True
    worst_formula = 0.0
    for i in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((d, n))
        theta = float(rng.uniform(0.05, 1.5))
        out = linalg.svt(M, theta)
        # closed form recomputed from an independent full SVD
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        expected = (U * np.maximum(s - theta, 0.0)) @ Vt
        worst_formula = max(worst_formula, np.abs(out - expected).max())
        ok &= np.abs(out - expected).max() <= 1e-10
        ok &= oracles.beats_random_perturbations(
            lambda W: oracles.svt_objective(W, M, theta), out, 200, 0.03,
            seed=1000 + i,
        )
    for i in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        Q = rng.standard_normal((d, n))
        alpha = float(rng.uniform(0.05, 1.5))
        out = linalg.column_shrink(Q, alpha)
        cn = np.linalg.norm(Q, axis=0)
        expected = Q * np.where(cn > alpha, (cn - alpha) / np.where(cn > 0, cn, 1.0), 0.0)
        worst_formula = max(worst_formula, np.abs(out - expected).max())
        ok &= np.abs(out - expected).max() <= 1e-10
        ok &= oracles.beats_random_perturbations(
            lambda W: oracles.l21_objective(W, Q, alpha), out, 200, 0.03,
            seed=2000 + i,
        )
    report(10, "proximal-operator correctness", ok,
           f"100+100 instances, worst formula dev={worst_formula:.1e}")


def test_c11_dictionary_reduction():
    rng = np.random.default_rng(800)
    ok = True
    worst = 0.0
    for _ in range(10):
        d, n_a, n, r = 16, 20, 14, 4
        A = rng.standard_normal((d, r)) @ rng.standard_normal((r, n_a))
        X = rng.standard_normal((d, n))
        opts = solver.SolverOptions(lam=0.5)
        # the ADM on the full dictionary, with no reduction
        direct = oracles.adm_reference(X, A, "l21", opts)
        reduced = solver.solve_lrr(X, A, "l21", opts)
        dev = np.linalg.norm(direct.Z - reduced.Z)
        worst = max(worst, dev)
        ok &= dev <= 1e-4

    # timing: rank star min(d, n)/4 must make the reduced path measurably faster
    d, n, r = 80, 100, 20
    A = rng.standard_normal((d, r)) @ rng.standard_normal((r, n))
    X = rng.standard_normal((d, n))
    opts = solver.SolverOptions(lam=0.5)
    t0 = time.perf_counter()
    oracles.adm_reference(X, A, "l21", opts)
    t_direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    solver.solve_lrr(X, A, "l21", opts)
    t_reduced = time.perf_counter() - t0
    ok &= t_reduced < t_direct
    report(11, "dictionary reduction", ok,
           f"worst Z dev={worst:.2e}; direct={t_direct:.2f}s reduced={t_reduced:.2f}s")


@st.composite
def reduction_cases(draw, max_side=10):
    """``(X, A)`` with a Gaussian X and a dictionary A that is tall (full
    column rank), wide (full row rank) or rank-deficient, sides up to
    ``max_side``."""
    kind = draw(st.sampled_from(["tall", "wide", "rank_deficient"]))
    m = draw(st.integers(2, max_side - 2))
    k = draw(st.integers(1, max_side - m))
    n = draw(st.integers(2, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tall":
        A = rng.standard_normal((m + k, m))
    elif kind == "wide":
        A = rng.standard_normal((m, m + k))
    else:
        A = rng.standard_normal((m + k, m - 1)) @ rng.standard_normal((m - 1, m + 1))
    return rng.standard_normal((A.shape[0], n)), A


@pytest.mark.parametrize("model", solver.ERROR_MODELS)
@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(reduction_cases(), st.floats(0.2, 2.0))
def test_c11_reduction_over_generated_inputs(model, case, lam):
    # c11's equivalence over generated dictionaries, against the ADM on the
    # full dictionary with no reduction: Z itself may differ between two
    # converged solves, so both are held to the objective and to
    # feasibility on the original (X, A)
    X, A = case
    opts = solver.SolverOptions(lam=lam)
    direct = oracles.adm_reference(X, A, model, opts)
    reduced = solver.solve_lrr(X, A, model, opts)
    assert reduced.objective == pytest.approx(direct.objective, rel=1e-6)
    for sol in (direct, reduced):
        assert np.abs(X - A @ sol.Z - sol.E).max() <= 1e-7
    # the same reduced problem through a Cholesky Z-step: the row scaling
    # of the reduced solve changes only its rounding
    f = solver.reduce_dictionary(A)
    cholesky = oracles.adm_reference(X, f.U * f.sigma, model, opts)
    assert (reduced.iterations, reduced.converged) == (cholesky.iterations, cholesky.converged)
    assert reduced.objective == pytest.approx(cholesky.objective, rel=1e-12)


def test_c12_metric_oracles():
    rng = np.random.default_rng(900)
    ok = True
    for _ in range(50):
        m = int(rng.integers(5, 14))
        kp = int(rng.integers(2, 5))
        kt = int(rng.integers(2, 5))
        pred = rng.integers(0, kp, size=m)
        truth = rng.integers(0, kt, size=m)
        got = metrics.segmentation_accuracy(pred, truth, "global")
        want = oracles.accuracy_by_exhaustive_maps(pred, truth)
        ok &= abs(got - want) < 1e-12
    worst_auc = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 40))
        scores = np.round(rng.uniform(0, 1, size=m), 1)
        truth = rng.integers(0, 2, size=m).astype(bool)
        if truth.all() or not truth.any():
            truth[0] = ~truth[0]
        dev = abs(metrics.auc(scores, truth) - oracles.auc_by_threshold_sweep(scores, truth))
        worst_auc = max(worst_auc, dev)
        ok &= dev <= 1e-12
    report(12, "metric oracles", ok, f"worst AUC dev={worst_auc:.1e}")
