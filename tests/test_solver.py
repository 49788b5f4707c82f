import dataclasses
import os
import subprocess
import sys
import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import oracles
from lrr import linalg, recipes, solver, synth
from test_acceptance import reduction_cases
from lrr.errors import DegenerateInputError, FeasibilityError, NumericalError


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def shaped_input(shape):
    """A fixed tall (full column rank), wide (full row rank) or
    rank-deficient X."""
    if shape == "tall":
        return rand((15, 8), 54)
    if shape == "wide":
        return rand((6, 10), 54)
    return rand((12, 4), 52) @ rand((4, 15), 53)


def independent_dataset(k=3, dim=2, ambient=24, per=6, seed=0):
    ens = synth.gen_ensemble(k, dim, ambient, mode="independent", seed=seed)
    return synth.sample(ens, per, seed=seed + 1)


@st.composite
def self_inputs(draw, max_side=12):
    """A Gaussian X that is tall (full column rank), wide (full row rank) or
    rank-deficient (rank below both sides), with sides up to ``max_side``."""
    kind = draw(st.sampled_from(["tall", "wide", "rank_deficient"]))
    m = draw(st.integers(2, max_side - 2))
    k = draw(st.integers(1, max_side - m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tall":
        return rng.standard_normal((m + k, m))
    if kind == "wide":
        return rng.standard_normal((m, m + k))
    return rng.standard_normal((m + k, m - 1)) @ rng.standard_normal((m - 1, m + 1))


class TestSolverOptions:
    def test_defaults(self):
        o = solver.SolverOptions(lam=0.5)
        assert [f.name for f in dataclasses.fields(o)] == ["lam", "eps", "max_iters"]
        assert (o.eps, o.max_iters) == (1e-8, 1000)
        # the penalty schedule of the paper's Algorithm 1, not an option
        assert (solver.MU_INIT, solver.MU_MAX, solver.RHO) == (1e-6, 1e6, 1.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": -1.0},
            {"lam": float("nan")},
            {"lam": 1.0, "eps": -1e-8},
            {"lam": 1.0, "max_iters": -1},
            {"lam": 1.0, "eps": 0.0},
            {"lam": 1.0, "max_iters": 0},
            {"lam": float("inf")},
            {"lam": 1.0, "eps": float("inf")},
            {"lam": 1.0, "max_iters": 2.5},
            {"lam": 1.0, "max_iters": 1000.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            solver.SolverOptions(**kwargs)

    def test_numpy_integer_max_iters_accepted(self):
        assert solver.SolverOptions(lam=1.0, max_iters=np.int64(5)).max_iters == 5

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(st.integers(0, 400), st.integers(0, 10**5)))
    @hypothesis.example(0)
    @hypothesis.example(10**5)
    def test_penalties_are_the_iterative_schedule(self, count):
        # Algorithm 1's update, one sweep at a time, is the reference
        expected, mu = [], solver.MU_INIT
        for _ in range(count):
            expected.append(mu)
            mu = min(solver.RHO * mu, solver.MU_MAX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu_trace = solver._penalties(count)
        assert mu_trace.dtype == np.float64 and mu_trace.shape == (count,)
        assert mu_trace.tolist() == expected
        assert (np.diff(mu_trace) >= 0).all() and (mu_trace <= solver.MU_MAX).all()
        if count > 300:
            assert mu_trace[-1] == solver.MU_MAX


class TestSolveLrr:
    def test_zero_data(self):
        A = rand((6, 4), 1)
        sol = solver.solve_lrr(np.zeros((6, 5)), A, "l21", solver.SolverOptions(lam=0.5))
        assert sol.converged
        assert not sol.Z.any() and not sol.E.any()
        assert sol.objective == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solver.solve_lrr(np.ones((3, 2)), np.ones((4, 2)), "l21",
                             solver.SolverOptions(lam=1.0))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            solver.solve_lrr(np.ones((3, 2)), np.ones((3, 2)), "l2",
                             solver.SolverOptions(lam=1.0))

    def test_opts_required(self):
        with pytest.raises(ValueError):
            solver.solve_lrr(np.ones((3, 2)), np.ones((3, 2)), "l21")

    def test_feasibility_at_convergence(self):
        X = rand((8, 10), 2)
        A = rand((8, 10), 3)
        opts = solver.SolverOptions(lam=0.5)
        sol = solver.solve_lrr(X, A, "l21", opts)
        assert sol.converged
        r1, r2 = sol.final_residuals
        assert r1 < opts.eps and r2 < opts.eps
        assert np.abs(X - A @ sol.Z - sol.E).max() < opts.eps

    def test_mu_schedule(self):
        opts = solver.SolverOptions(lam=0.5, max_iters=40)
        sol = solver.solve_lrr(rand((6, 8), 4), rand((6, 8), 5), "l21", opts)
        expected = np.minimum(1e-6 * 1.1 ** np.arange(sol.iterations), 1e6)
        np.testing.assert_allclose(sol.mu_trace, expected, rtol=1e-12)
        assert (np.diff(sol.mu_trace) >= 0).all()

    def test_objective_trace_per_iteration(self):
        sol = solver.solve_lrr(rand((6, 8), 6), rand((6, 8), 7), "l21",
                               solver.SolverOptions(lam=0.5))
        assert sol.objective_trace.size == sol.iterations
        assert np.isfinite(sol.objective_trace).all()
        assert sol.objective >= 0.0

    def test_determinism_bit_for_bit(self):
        X, A = rand((7, 9), 8), rand((7, 9), 9)
        opts = solver.SolverOptions(lam=0.4)
        s1 = solver.solve_lrr(X, A, "l21", opts)
        s2 = solver.solve_lrr(X, A, "l21", opts)
        assert np.array_equal(s1.Z, s2.Z)
        assert np.array_equal(s1.E, s2.E)
        assert s1.objective == s2.objective

    def test_non_finite_iterate_raises_at_once(self, monkeypatch):
        calls = []
        real = solver._column_shrink

        def poisoned(G, alpha):
            calls.append(alpha)
            out, norms = real(G, alpha)
            if len(calls) == 5:
                out[0, 0] = np.nan
            return out, norms

        monkeypatch.setattr(solver, "_column_shrink", poisoned)
        with pytest.raises(NumericalError, match="iteration 5"):
            solver.solve_lrr(rand((6, 8), 4), rand((6, 8), 5), "l21",
                             solver.SolverOptions(lam=0.5))
        assert len(calls) == 5

    def test_max_iters_cap_reports_nonconvergence(self):
        sol = solver.solve_lrr(rand((6, 8), 10), rand((6, 8), 11), "l21",
                               solver.SolverOptions(lam=0.5, max_iters=5))
        assert not sol.converged
        assert sol.iterations == 5

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    def test_row_space_membership_all_models(self, model):
        # dictionary with nontrivial null row space, A != X
        A = rand((10, 6), 12) @ rand((6, 14), 13)  # rank 6, 14 columns
        X = rand((10, 12), 14)
        sol = solver.solve_lrr(X, A, model, solver.SolverOptions(lam=0.5))
        assert sol.converged
        P = oracles.row_space_projector(A)
        drift = np.linalg.norm(P @ sol.Z - sol.Z)
        assert drift <= 1e-4 * max(1.0, np.linalg.norm(sol.Z))

    def test_l1_model_recovers_planted_entry_corruption(self):
        ds = independent_dataset(seed=20)
        rng = np.random.default_rng(21)
        S = np.zeros_like(ds.X)
        idx = rng.choice(S.size, size=8, replace=False)
        S.ravel()[idx] = rng.choice([-1.0, 1.0], size=8) * 2.0
        X = ds.X + S
        sol = solver.solve_lrr(X, ds.X, "l1", solver.SolverOptions(lam=0.2))
        assert sol.converged
        # planted spikes dominate the recovered error term
        big = np.abs(sol.E).ravel()[idx].min()
        rest = np.delete(np.abs(sol.E).ravel(), idx).max()
        assert big > 10 * rest

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    def test_zero_dictionary_is_all_error(self, model):
        # span(A^T) = {0}: Z = 0 and E = X is the exact answer
        X = rand((6, 5), 25)
        opts = solver.SolverOptions(lam=0.5)
        sol = solver.solve_lrr(X, np.zeros((6, 4)), model, opts)
        assert sol.Z.shape == (4, 5) and not sol.Z.any()
        assert np.array_equal(sol.E, X) and not np.shares_memory(sol.E, X)
        assert sol.converged and sol.iterations == 0 and sol.warm_sweeps == 0
        assert sol.final_residuals == (0.0, 0.0)
        assert sol.objective_trace.size == 0 and sol.mu_trace.size == 0
        assert sol.objective == pytest.approx(opts.lam * solver.error_norm(X, model), rel=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_wide_dictionary_converges_at_scale(self, scale):
        # the ADM on the full 10x20 dictionary (oracles.adm_reference, with
        # its Cholesky Z-step) runs 1000 sweeps without converging at 1e4
        # and 1e6
        X, A = rand((10, 14), 26) * scale, rand((10, 20), 27) * scale
        sol = solver.solve_lrr(X, A, "l21", solver.SolverOptions(lam=1.0))
        assert sol.converged and sol.iterations <= 200

    def test_reduced_is_the_same_function(self):
        assert solver.solve_lrr_reduced is solver.solve_lrr

    def test_package_exports_no_modules_and_no_alias(self):
        import lrr

        public = {name: getattr(lrr, name) for name in lrr.__all__}
        assert "solve_lrr_reduced" not in public and public["solve_lrr"] is solver.solve_lrr
        assert not [name for name, value in public.items() if isinstance(value, type(lrr))]

    def test_frobenius_model_one_sweep_matches_closed_form(self):
        X, A = rand((5, 7), 22), rand((5, 7), 23)
        opts = solver.SolverOptions(lam=0.8, max_iters=1)
        sol = solver.solve_lrr(X, A, "frobenius_sq", opts)
        # by hand: first sweep from zero initialization
        mu = 1e-6
        J = np.zeros((7, 7))
        Z = np.linalg.solve(np.eye(7) + A.T @ A, A.T @ X + J)
        G = X - A @ Z
        E = (mu / (2 * opts.lam + mu)) * G
        np.testing.assert_allclose(sol.E, E, atol=1e-12)



def _dictionary(kind, X):
    """A dictionary for X of the given kind, for the in-place sweep tests."""
    d = X.shape[0]
    if kind == "diagonal":
        return np.diag(np.linspace(3.0, 0.5, d))
    if kind == "tall":
        return rand((d, d - 3), 31)
    # wide, and column-major: the solve must not depend on A's layout
    return np.asfortranarray(rand((d, d + 8), 32))


def run_in_fresh_process(code, *args):
    """Run ``code`` in a new interpreter that imports ``lrr`` from this
    source tree, so that ``sys.modules`` holds only what it loads."""
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestInPlaceSweep:
    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    @pytest.mark.parametrize("kind", ["diagonal", "tall", "wide"])
    @pytest.mark.parametrize("max_iters", [1000, 7])
    def test_bit_identical_to_allocating_sweep(self, kind, model, max_iters):
        X = rand((10, 14), 30)
        A = _dictionary(kind, X)
        opts = solver.SolverOptions(lam=0.5, max_iters=max_iters)
        sol = solver.solve_lrr(X, A, model, opts)
        # the reference sweep in the frame that solve_lrr solves in, lifted
        f = solver.reduce_dictionary(A)
        ref = oracles.adm_reference(X, f.U * f.sigma, model, opts, s=f.sigma)
        Z = f.V @ ref.Z
        assert sol.iterations == ref.iterations
        assert sol.converged == ref.converged == (max_iters == 1000)
        assert np.array_equal(sol.Z, Z)
        for field in ("E", "objective_trace", "mu_trace"):
            assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
        assert sol.final_residuals == (np.abs(X - A @ Z - ref.E).max(), ref.final_residuals[1])

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    @pytest.mark.parametrize("kind", ["diagonal", "wide"])
    def test_inputs_unchanged_and_outputs_unaliased(self, kind, model):
        X = rand((10, 14), 33)
        A = _dictionary(kind, X)
        X0, A0 = X.copy(), A.copy()
        opts = solver.SolverOptions(lam=0.5)
        for sol in (solver.solve_lrr(X, A, model, opts),
                    solver.solve_lrr_self(X, model, opts)):
            assert np.array_equal(X, X0) and np.array_equal(A, A0)
            for a, b in [(sol.Z, X), (sol.Z, A), (sol.E, X), (sol.E, A), (sol.Z, sol.E)]:
                assert not np.shares_memory(a, b)

    def test_import_and_self_solve_leave_scipy_linalg_unloaded(self, tmp_path):
        # and so does every other solve (no Z-step factors anything), and
        # so do the solve and replicate commands: SciPy is blocked from the
        # start, so any import of it would raise
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import lrr, lrr.cli\n"
            "from lrr import cli, matio, solver\n"
            "out = sys.argv[1]\n"
            "X = np.random.default_rng(0).standard_normal((8, 12))\n"
            "opts = solver.SolverOptions(lam=0.5)\n"
            "for model in solver.ERROR_MODELS:\n"
            "    solver.solve_lrr_self(X, model, opts)\n"
            "    for n_a in (5, 10):\n"
            "        A = np.random.default_rng(n_a).standard_normal((8, n_a))\n"
            "        assert solver.solve_lrr(X, A, model, opts).converged\n"
            "    solver.solve_lrr(X, np.zeros((8, 3)), model, opts)\n"
            "matio.write_matrix_csv(out + '/X.csv', X)\n"
            "matio.write_matrix_csv(out + '/A.csv', np.random.default_rng(1).standard_normal((8, 10)))\n"
            "for model in solver.ERROR_MODELS:\n"
            "    assert cli.main(['solve', '--input', out + '/X.csv', '--self', '--error-norm',\n"
            "                     model, '--lambda', '0.5', '--output', out + '/' + model]) == 0\n"
            "assert cli.main(['solve', '--input', out + '/X.csv', '--dict', out + '/A.csv',\n"
            "                 '--lambda', '0.5', '--output', out + '/dict']) == 0\n"
            "for fig in ('fig3', 'fig4'):\n"
            "    assert cli.main(['replicate', '--figure', fig, '--output', out + '/' + fig]) == 0\n"
            "assert not [m for m, mod in sys.modules.items() if m.startswith('scipy') and mod]\n"
        )
        run_in_fresh_process(code, str(tmp_path))

    def test_segment_with_truth_leaves_scipy_sparse_unloaded(self, tmp_path):
        # the global label matching of the accuracy runs in NumPy; with
        # SciPy blocked, so do outlier detection and the fig5 recipes
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from lrr import cli, matio, metrics, synth\n"
            "out = sys.argv[1]\n"
            "ens = synth.gen_ensemble(3, 2, 48, mode='independent', seed=0)\n"
            "ds = synth.sample(ens, 6, seed=1)\n"
            "matio.write_matrix_csv(out + '/X.csv', ds.X)\n"
            "matio.write_matrix_csv(out + '/truth.csv', ds.true_labels.reshape(-1, 1) * 1.0)\n"
            "assert cli.main(['segment', '--input', out + '/X.csv', '--k', '3',\n"
            "                 '--lambda', '1000', '--truth', out + '/truth.csv',\n"
            "                 '--output', out + '/o']) == 0\n"
            "assert matio.read_json(out + '/o/result.json')['metrics']['accuracy'] == 1.0\n"
            "assert metrics.segmentation_accuracy([0, 0, 1, 2], [1, 1, 0, 0], 'global') == 0.75\n"
            "dirty = synth.normalize_columns(synth.add_outliers(ds, 4, 3.0, seed=2))\n"
            "matio.write_matrix_csv(out + '/dirty.csv', dirty.X)\n"
            "matio.write_matrix_csv(out + '/flags.csv', (dirty.true_labels < 0).reshape(-1, 1) * 1.0)\n"
            "assert cli.main(['detect-outliers', '--input', out + '/dirty.csv', '--lambda', '0.3',\n"
            "                 '--truth', out + '/flags.csv', '--output', out + '/out']) == 0\n"
            "assert matio.read_json(out + '/out/result.json')['metrics']['auc'] is not None\n"
            "for fig in ('fig5a', 'fig5b'):\n"
            "    assert cli.main(['replicate', '--figure', fig, '--output', out + '/' + fig]) == 0\n"
            "assert not [m for m, mod in sys.modules.items() if m.startswith('scipy') and mod]\n"
        )
        run_in_fresh_process(code, str(tmp_path))

    def test_import_loads_no_scipy_until_solver_scipy_is_read(self):
        # solver.scipy is imported on demand, for bench/tracer.py's proxy
        code = (
            "import importlib, sys\n"
            "import lrr, lrr.cli\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert lrr.solver.scipy is importlib.import_module('scipy')\n"
        )
        run_in_fresh_process(code)


def assert_reported_residual(sol, X, A, eps):
    """``final_residuals[0]`` is the feasibility residual of the returned
    solution on (X, A), and ``converged`` implies that it is below eps or
    that no sweep ran (an exact answer)."""
    residual = np.abs(X - A @ sol.Z - sol.E).max()
    assert sol.final_residuals[0] == residual
    assert not sol.converged or residual < eps or sol.iterations == 0


class TestConvergedFlag:
    """``converged`` follows the residual that the solution reports, at
    scales from 1e-3 to 1e8; above about 1e7 the rounding of that residual
    reaches the absolute eps. The exact answers (the closed form, the zero
    dictionary) run no sweep and stay converged at any scale."""

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(reduction_cases(), st.floats(-3.0, 8.0), st.floats(0.2, 2.0))
    def test_dictionary_solves(self, model, case, scale_exp, lam):
        X, A = (M * 10.0 ** scale_exp for M in case)
        opts = solver.SolverOptions(lam=lam)
        assert_reported_residual(solver.solve_lrr(X, A, model, opts), X, A, opts.eps)

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(self_inputs(max_side=10), st.floats(-3.0, 8.0), st.floats(0.2, 2.0))
    def test_self_solves(self, model, X, scale_exp, lam):
        X = X * 10.0 ** scale_exp
        opts = solver.SolverOptions(lam=lam)
        assert_reported_residual(solver.solve_lrr_self(X, model, opts), X, X, opts.eps)

    def test_l21_self_stops_on_the_residual_on_x(self):
        # The loop runs in the frame of U, where the residual R' of this
        # solve falls below eps one sweep before U R', the residual on X.
        # Stopping on R' alone leaves converged=False below the cap.
        X = np.random.default_rng(1735460459).standard_normal((10, 11))
        divisors, factors = synth._unit_scale(X)
        X = X / divisors * factors
        opts = solver.SolverOptions(lam=0.5)
        sol = solver.solve_lrr_self(X, "l21", opts)
        assert sol.converged and sol.iterations < opts.max_iters
        assert_reported_residual(sol, X, X, opts.eps)
        f = linalg.skinny_svd(X)
        X_r = np.multiply(f.sigma[:, None], f.V.T, order="C")
        state = solver._run_adm(X_r, solver._z_step(None, f.sigma), "l21", opts,
                                solver._zero_state(X_r, f.rank))
        frame_only = solver._finish(X, X, f.V, state, "l21", opts, f.U)
        assert frame_only.iterations == sol.iterations - 1 and not frame_only.converged

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(4, 29), st.integers(4, 39),
                      st.sampled_from([0.1, 0.3, 0.5, 1.0]), st.integers(0, 2**32 - 1))
    def test_unit_scale_l21_self_solves_converge(self, d, n, lam, seed):
        X = np.random.default_rng(seed).standard_normal((d, n))
        divisors, factors = synth._unit_scale(X)
        X = X / divisors * factors
        opts = solver.SolverOptions(lam=lam)
        sol = solver.solve_lrr_self(X, "l21", opts)
        assert sol.converged and sol.iterations < opts.max_iters

    @pytest.mark.parametrize("model", ["l21", "l1"])
    def test_lift_rounding_clears_the_flag(self, model):
        # the loop stops with its own residual below eps, and the residual
        # on X, which carries the rounding of the back-map, is above it
        X = rand((10, 14), 28) * 1e7
        opts = solver.SolverOptions(lam=1.0)
        sol = solver.solve_lrr_self(X, model, opts)
        assert sol.iterations < opts.max_iters and sol.final_residuals[1] < opts.eps
        assert not sol.converged and sol.final_residuals[0] >= opts.eps
        assert_reported_residual(sol, X, X, opts.eps)


class TestSolveLrrClean:
    def test_self_dictionary_gives_row_space_projector(self):
        ds = independent_dataset(seed=30)
        Z = solver.solve_lrr_clean(ds.X, ds.X)
        VVt = ds.V0 @ ds.V0.T
        assert np.linalg.norm(Z - VVt) <= 1e-8 * np.linalg.norm(VVt)

    def test_identity_dictionary_returns_x(self):
        X = rand((4, 6), 31)
        np.testing.assert_allclose(solver.solve_lrr_clean(X, np.eye(4)), X, atol=1e-10)

    def test_block_diagonal_for_independent_subspaces(self):
        ens = synth.gen_ensemble(3, 2, 30, mode="independent", seed=32)
        A = synth.sample(ens, 4, seed=33)
        X = synth.sample(ens, 6, seed=34)
        Z = solver.solve_lrr_clean(X.X, A.X)
        off = Z[A.true_labels[:, None] != X.true_labels[None, :]]
        assert np.linalg.norm(off) < 1e-6 * np.linalg.norm(Z)

    def test_infeasible_raises_with_residual(self):
        A = rand((6, 2), 35) @ rand((2, 4), 36)  # rank-2 column space
        X = rand((6, 3), 37)
        with pytest.raises(FeasibilityError) as exc:
            solver.solve_lrr_clean(X, A)
        assert exc.value.residual > 1e-6

    def test_zero_dictionary_rejected(self):
        with pytest.raises(DegenerateInputError):
            solver.solve_lrr_clean(np.ones((3, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_feasibility_checked_at_any_scale(self, scale):
        # the sums of squares of X overflow at 1e200 and underflow at 1e-200
        A = rand((6, 2), 35) @ rand((2, 4), 36)
        X = A @ rand((4, 3), 44)
        Z_ref = solver.solve_lrr_clean(X, A)
        Z = solver.solve_lrr_clean(scale * X, scale * A)
        assert np.abs(Z - Z_ref).max() <= 1e-12 * np.abs(Z_ref).max()
        with pytest.raises(FeasibilityError) as exc:
            solver.solve_lrr_clean(scale * rand((6, 3), 37), scale * A)
        assert 1e-6 < exc.value.residual < 2.0

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(2, 20), st.integers(2, 20), st.integers(1, 10),
                      st.integers(-150, 150), st.integers(0, 2**32 - 1))
    def test_matches_numpy_pseudoinverse_on_rank_deficient_dictionaries(self, d, n, m,
                                                                         exponent, seed):
        # A = Q1 diag(s) Q2^T of rank below min(d, n), singular values
        # within three decades, scaled by 10^exponent; X = A B is in span(A)
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, min(d, n)))
        Q1 = np.linalg.qr(rng.standard_normal((d, r)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((n, r)))[0]
        A = (Q1 * 10.0 ** rng.uniform(-3.0, 0.0, r)) @ Q2.T * 10.0 ** exponent
        X = A @ rng.standard_normal((n, m))
        Z = solver.solve_lrr_clean(X, A)
        # numpy's pinv with the rank cut of skinny_svd
        ref = np.linalg.pinv(A, rcond=max(A.shape) * np.finfo(float).eps) @ X
        assert np.abs(Z - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_rank_preserved(self):
        A = rand((8, 5), 38)
        X = A @ rand((5, 6), 39) @ np.diag([1, 1, 1, 0, 0, 0])  # rank 3 inside span(A)
        Z = solver.solve_lrr_clean(X, A)
        r_x = np.linalg.matrix_rank(X)
        assert np.linalg.matrix_rank(Z) == r_x

    def test_objective_optimality_vs_feasible_perturbations(self):
        A = rand((7, 4), 40) @ rand((4, 9), 41)  # rank-deficient dictionary
        X = A @ rand((9, 5), 42)
        Z = solver.solve_lrr_clean(X, A)
        base = oracles.full_svd_nuclear(Z)
        # null-space directions of A keep feasibility: A @ N = 0
        V = linalg.skinny_svd(A).V
        null_proj = np.eye(9) - V @ V.T
        rng = np.random.default_rng(43)
        for _ in range(100):
            N = null_proj @ rng.standard_normal((9, 5))
            feasible = Z + N
            assert np.abs(A @ feasible - X).max() < 1e-8
            assert oracles.full_svd_nuclear(feasible) >= base - 1e-10


class TestSolveLrrSelf:
    def test_clean_large_lambda_recovers_projector(self):
        ds = independent_dataset(seed=50)
        sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=1e3))
        VVt = ds.V0 @ ds.V0.T
        assert sol.converged
        assert np.linalg.norm(sol.Z - VVt) <= 1e-6 * np.linalg.norm(VVt)
        assert np.abs(sol.E).max() < 1e-6

    def test_single_sample(self):
        x = rand((5, 1), 51)
        sol = solver.solve_lrr_self(x, "l21", solver.SolverOptions(lam=1e3))
        assert sol.Z.shape == (1, 1)
        assert sol.Z[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert np.abs(sol.E).max() < 1e-6

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            solver.solve_lrr_self(np.zeros((4, 3)), "l21", solver.SolverOptions(lam=1.0))

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    @pytest.mark.parametrize("shape", ["tall", "wide", "rank_deficient"])
    def test_matches_plain_solve(self, shape, model):
        # the self solve runs in the SVD coordinates of X; answers must
        # agree with the direct solve on the full dictionary anyway
        X = shaped_input(shape)
        opts = solver.SolverOptions(lam=0.7)
        fast = solver.solve_lrr_self(X, model, opts)
        direct = solver.solve_lrr(X, X, model, opts)
        assert np.abs(fast.Z - direct.Z).max() < 1e-6
        assert np.abs(fast.E - direct.E).max() < 1e-6

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    def test_one_solve_path(self, model, monkeypatch):
        # one ADM loop in the SVD coordinates of X (none for frobenius_sq,
        # which is a closed form there; l1 reaches it through one reduction
        # of X), and the feasibility residual measured on X itself
        calls = {"_run_adm": 0, "solve_lrr": 0, "reduce_dictionary": 0}
        for name in calls:
            real = getattr(solver, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        X = rand((12, 4), 55) @ rand((4, 9), 56)
        sol = solver.solve_lrr_self(X, model, solver.SolverOptions(lam=0.7))
        reduced = 1 if model == "l1" else 0
        assert calls == {"_run_adm": 0 if model == "frobenius_sq" else 1,
                         "solve_lrr": reduced, "reduce_dictionary": reduced}
        assert sol.final_residuals[0] == np.abs(X - X @ sol.Z - sol.E).max()

    @pytest.mark.parametrize("shape", ["tall", "wide", "rank_deficient"])
    def test_l1_is_the_reduced_solve(self, shape):
        X = shaped_input(shape)
        opts = solver.SolverOptions(lam=0.7)
        fast = solver.solve_lrr_self(X, "l1", opts)
        ref = solver.solve_lrr(X, X, "l1", opts)
        for field in dataclasses.fields(solver.LrrSolution):
            a, b = getattr(fast, field.name), getattr(ref, field.name)
            assert np.array_equal(a, b), field.name

    def test_wide_frobenius_converges(self):
        # 150 unit columns in R^100 from 5 rank-3 subspaces with 10% noise;
        # the direct solve's 150x150 SVT failed to converge on this input.
        # The ADM stops 7.8e-6 above the optimum here, so the closed form is
        # held to the exact KKT conditions, and to the ADM's objective: the
        # ADM's answer is feasible, so the optimum cannot lie above it.
        ens = synth.gen_ensemble(5, 3, 100, mode="independent", seed=0)
        ds = synth.normalize_columns(
            synth.add_noise(synth.sample(ens, 30, seed=1), 0.1, seed=2))
        opts = solver.SolverOptions(lam=10.0)
        sol = solver.solve_lrr_self(ds.X, "frobenius_sq", opts)
        ref = solver.solve_lrr(ds.X, ds.X, "frobenius_sq", opts)
        assert sol.converged and ref.converged
        assert oracles.frobenius_kkt_violation(ds.X, sol.Z, opts.lam) <= 1e-9
        assert sol.objective <= ref.objective

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(2, 10), st.integers(2, 12), st.sampled_from(solver.ERROR_MODELS),
                      st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    def test_repeat_call_bit_identical(self, d, n, model, lam, seed):
        X = np.random.default_rng(seed).standard_normal((d, n))
        opts = solver.SolverOptions(lam=lam)
        s1 = solver.solve_lrr_self(X, model, opts)
        s2 = solver.solve_lrr_self(X, model, opts)
        assert np.array_equal(s1.Z, s2.Z) and np.array_equal(s1.E, s2.E)
        assert s1.iterations == s2.iterations and s1.objective == s2.objective

    @pytest.mark.parametrize("model", ["l21", "l1"])
    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @hypothesis.given(self_inputs(max_side=10), st.floats(0.2, 2.0))
    def test_self_matches_direct_objective(self, model, X, lam):
        # Z itself may differ by ~1e-6 between two converged solves whose
        # objectives agree to 1e-9; the objective is what both minimize
        opts = solver.SolverOptions(lam=lam)
        fast = solver.solve_lrr_self(X, model, opts)
        direct = solver.solve_lrr(X, X, model, opts)
        assert fast.objective == pytest.approx(direct.objective, rel=1e-6)
        for sol in (fast, direct):
            assert np.abs(X - X @ sol.Z - sol.E).max() <= 1e-7

    def test_warm_svt_spares_most_gram_eigh(self, monkeypatch):
        # 5 disjoint rank-4 subspaces of R^400, 200 samples (10% grossly
        # corrupted, the rest noised) and 100 outliers: X is 400x300 of full
        # rank, and every sweep thresholds a 300x300 matrix that keeps about 20
        # singular values or none. Carrying the kept basis from sweep to sweep
        # certifies most of them without a 300x300 eigh; a candidate that
        # silently stopped certifying would need one on every nonzero sweep.
        # The subspace steps skip the block checks that their own Ritz values
        # show cannot pass: 118 block eigh calls here, against 554 when every
        # step is checked, with the same two 300x300 ones.
        ens = synth.gen_ensemble(5, 4, 400, mode="disjoint", seed=1)
        ds = synth.sample(ens, 40, seed=2)
        ds = synth.corrupt_samples(ds, 0.10, recipes.FIG6_CORRUPT_SCALE, seed=3)
        ds = synth.add_noise(ds, recipes.FIG6_NOISE_LEVEL, seed=4)
        ds = synth.add_outliers(ds, 100, recipes.FIG6_OUTLIER_SCALE, seed=5)
        X = synth.normalize_columns(ds).X
        real_eigh = np.linalg.eigh
        real_svt = solver.svt_with_nuclear
        eighs = []
        nonzero = []

        def counted_eigh(G):
            eighs.append(G.shape == (300, 300))
            return real_eigh(G)

        def counted_svt(M, theta, basis):
            out = real_svt(M, theta, basis)
            nonzero.append(out[1] > 0.0)
            return out

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(solver, "svt_with_nuclear", counted_svt)
        sol = solver.solve_lrr_self(X, "l21", solver.SolverOptions(lam=0.3))
        # the fast-forwarded sweeps threshold in closed form, with no SVT call
        assert sol.converged and len(nonzero) == sol.iterations - sol.warm_sweeps
        assert sum(nonzero) >= 40
        assert sum(eighs) <= sum(nonzero) // 4
        assert sum(eighs) <= 2 and len(eighs) - sum(eighs) <= 554 // 2

    def test_svt_takes_fig4_triplets_without_svd(self, monkeypatch):
        # every looped sweep of the fig4 solve (200x250, rank 70) thresholds
        # a 70x70 Gram matrix and keeps its triplets from the eigh; an SVT
        # that fell back to the full SVD would add an SVD with U here
        X = recipes.make_fig4_dataset(0).X
        real_svd = linalg._raw_svd
        calls = []

        def recorded_svd(M, compute_uv=True):
            calls.append((M.shape, compute_uv))
            return real_svd(M, compute_uv)

        monkeypatch.setattr(linalg, "_raw_svd", recorded_svd)
        sol = solver.solve_lrr_self(X, "l21", solver.SolverOptions(lam=0.25))
        assert sol.converged and sol.iterations > sol.warm_sweeps
        assert [shape for shape, uv in calls if uv] == [X.shape]


def plain_self_l21(X, opts):
    """The ``l21`` problem that ``solve_lrr_self`` solves, on ``(S V^T,
    diag(S))``, solved by the plain ADM loop from the zero state with no
    sweep fast-forwarded, and mapped back to X the same way."""
    f = linalg.skinny_svd(X)
    X_r = f.sigma[:, None] * f.V.T
    state = solver._run_adm(X_r, solver._z_step(None, f.sigma), "l21", opts,
                            solver._zero_state(X_r, f.rank), f.U)
    return solver._finish(X, X, f.V, state, "l21", opts, f.U)


def assert_same_solve(fast, plain, X):
    """The same sweeps, and the same answer to roundoff."""
    assert fast.iterations == plain.iterations
    assert fast.converged == plain.converged
    assert np.array_equal(fast.mu_trace, plain.mu_trace)
    assert np.abs(fast.Z - plain.Z).max() <= 1e-12 * max(1.0, np.abs(plain.Z).max())
    assert np.abs(fast.E - plain.E).max() <= 1e-12 * np.abs(X).max()
    assert fast.objective == pytest.approx(plain.objective, rel=1e-12, abs=0.0)
    trace_scale = max(1.0, np.abs(plain.objective_trace).max())
    assert np.abs(fast.objective_trace - plain.objective_trace).max() <= 1e-12 * trace_scale


class TestFastForward:
    """The self-expressive ``l21`` solve runs its leading sweeps, while the
    E-step returns zero, in closed form; the plain ADM from the zero state
    is the reference. The pytest configuration raises every RuntimeWarning,
    so these tests also show that no handoff test over- or underflows."""

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(self_inputs(), st.integers(-150, 150), st.floats(-2.0, 3.0),
                      st.one_of(st.just(1000), st.integers(1, 150)))
    def test_matches_plain_solve(self, X, scale_exp, lam_exp, max_iters):
        X = X * 10.0 ** scale_exp
        opts = solver.SolverOptions(lam=10.0 ** lam_exp, max_iters=max_iters)
        fast = solver.solve_lrr_self(X, "l21", opts)
        assert 0 <= fast.warm_sweeps < fast.iterations
        assert_same_solve(fast, plain_self_l21(X, opts), X)

    @pytest.mark.parametrize("shape", ["tall", "wide", "rank_deficient"])
    def test_max_iters_inside_the_warm_up(self, shape):
        # the last allowed sweep runs in the plain loop, which reports its
        # residuals as the plain solve does
        X = shaped_input(shape)
        opts = solver.SolverOptions(lam=0.7, max_iters=20)
        fast = solver.solve_lrr_self(X, "l21", opts)
        plain = plain_self_l21(X, opts)
        assert fast.warm_sweeps == 19 and not fast.converged
        assert_same_solve(fast, plain, X)
        assert fast.final_residuals == pytest.approx(plain.final_residuals, rel=1e-12)

    @pytest.mark.parametrize("knob, lo, hi, lam", [("lam", 0.2, 1.0, None),
                                                    ("eps", 1e-9, 1e-4, 1e3)])
    def test_handoff_on_the_threshold(self, knob, lo, hi, lam):
        # The fast-forwarded sweeps do not depend on lam (E stays zero) and
        # stop at a test on lam / mu or on eps, so bisection finds two
        # adjacent floats of the knob on either side of a change in the
        # handoff sweep: each is as close to the threshold as it can be.
        X = shaped_input("tall")

        def opts(value):
            kwargs = {knob: value} if lam is None else {knob: value, "lam": lam}
            return solver.SolverOptions(**kwargs)

        def warm(value):
            return solver.solve_lrr_self(X, "l21", opts(value)).warm_sweeps

        w_lo, w_hi = warm(lo), warm(hi)
        assert w_lo != w_hi
        while np.nextafter(lo, hi) != hi:
            mid = (lo + hi) / 2
            if warm(mid) == w_lo:
                lo = mid
            else:
                hi = mid
        for value in (lo, hi):
            fast = solver.solve_lrr_self(X, "l21", opts(value))
            assert_same_solve(fast, plain_self_l21(X, opts(value)), X)

    def test_loop_receives_c_ordered_arrays(self, monkeypatch):
        # V^T is a transposed view, and a product with it is Fortran-ordered
        # unless asked otherwise; the loop's work arrays and E are C-ordered.
        # The loop updates the fast-forward's record and returns it.
        real = solver._run_adm
        seen = []

        def capturing(X, ops, model, opts, state, U=None):
            seen.append((X, state.Z, state.E, state.Y1, state.Y2))
            assert real(X, ops, model, opts, state, U) is state
            return state

        monkeypatch.setattr(solver, "_run_adm", capturing)
        for shape in ("tall", "wide", "rank_deficient"):
            sol = solver.solve_lrr_self(shaped_input(shape), "l21", solver.SolverOptions(lam=0.7))
            assert sol.warm_sweeps > 0
        assert len(seen) == 3
        assert all(a.flags.c_contiguous for arrays in seen for a in arrays)

    def test_warm_sweeps_only_on_the_self_l21_path(self):
        X = shaped_input("rank_deficient")
        opts = solver.SolverOptions(lam=0.7)
        assert solver.solve_lrr_self(X, "l21", opts).warm_sweeps > 100
        for sol in (solver.solve_lrr_self(X, "l1", opts),
                    solver.solve_lrr_self(X, "frobenius_sq", opts),
                    solver.solve_lrr(X, X, "l21", opts)):
            assert sol.warm_sweeps == 0

    def test_overflow_raises_before_the_warm_up(self, monkeypatch):
        # I + S^2 overflows at this scale: the Z-step set-up names it
        # before any fast-forward arithmetic could warn
        def unreachable(*args):
            raise AssertionError("the fast-forward ran on overflowing data")

        monkeypatch.setattr(solver, "_fast_forward", unreachable)
        with pytest.raises(NumericalError, match="overflows"):
            solver.solve_lrr_self(shaped_input("tall") * 1e160, "l21",
                                  solver.SolverOptions(lam=0.5))


class TestFrobeniusClosedForm:
    """``solve_lrr_self(X, "frobenius_sq")`` is the closed form in the SVD of
    X, held to the exact KKT conditions of the problem it solves. The pytest
    configuration raises every RuntimeWarning, so these tests also show that
    no step over- or underflows with a warning."""

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(self_inputs(), st.integers(-150, 150), st.floats(-3.0, 3.0))
    def test_kkt_over_generated_inputs(self, X, scale_exp, lam_exp):
        X = X * 10.0 ** scale_exp
        lam = 10.0 ** lam_exp
        sol = solver.solve_lrr_self(X, "frobenius_sq", solver.SolverOptions(lam=lam))
        assert sol.iterations == 0 and sol.converged
        assert sol.objective_trace.size == 0 and sol.mu_trace.size == 0
        assert oracles.frobenius_kkt_violation(X, sol.Z, lam, E=sol.E) <= 1e-8
        residual = np.abs(X - X @ sol.Z - sol.E).max()
        assert sol.final_residuals == (residual, 0.0)
        assert residual <= 1e-13 * np.abs(X).max()
        Z = sol.Z
        assert np.abs(Z - Z.T).max() <= 1e-14
        eigenvalues = np.linalg.eigvalsh((Z + Z.T) / 2)
        assert eigenvalues.min() >= -1e-14 and eigenvalues.max() <= 1.0 + 1e-14

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(self_inputs(max_side=8), st.floats(-3.0, 3.0))
    def test_objective_not_above_adm(self, X, lam_exp):
        # For any (Z, E) with X - XZ - E = R, convexity and the multiplier
        # Y = 2 lam E* give  obj(Z*, E*) <= obj(Z, E) + <Y, R>: the ADM's
        # answer, feasible to its residual, bounds the optimum from above.
        opts = solver.SolverOptions(lam=10.0 ** lam_exp)
        sol = solver.solve_lrr_self(X, "frobenius_sq", opts)
        adm = solver.solve_lrr(X, X, "frobenius_sq", opts)
        slack = 2.0 * opts.lam * np.abs(sol.E).sum() * adm.final_residuals[0]
        assert sol.objective <= adm.objective + slack + 1e-12 * adm.objective

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_tiny_scale_is_all_error(self, scale):
        # every c = s sqrt(2 lam) is below 1: the optimum is Z = 0, E = X,
        # where the ADM stops after one sweep with E near 0
        X = rand((15, 8), 57) * scale
        sol = solver.solve_lrr_self(X, "frobenius_sq", solver.SolverOptions(lam=0.7))
        assert not sol.Z.any()
        assert np.abs(sol.E - X).max() <= 1e-14 * np.abs(X).max()

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_huge_scale_solves_without_warning(self, scale):
        # I + X^T X overflows here, which stops the ADM; the closed form
        # returns the row-space projector and an E of order 1 / (2 lam s)
        X = rand((15, 8), 58) * scale
        sol = solver.solve_lrr_self(X, "frobenius_sq", solver.SolverOptions(lam=0.7))
        assert np.abs(sol.Z - np.eye(8)).max() <= 1e-13
        assert sol.objective == pytest.approx(8.0, rel=1e-13)
        assert sol.final_residuals[0] <= 1e-13 * np.abs(X).max()
        assert 0.0 < np.abs(sol.E).max() < 1.0 / scale


class TestObjectiveGuard:
    """Every solve, iterated or exact, rejects a non-finite objective with
    ``NumericalError``. The pytest configuration raises every
    RuntimeWarning, so an overflow must also be named without one."""

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    @pytest.mark.parametrize("entry", ["tall", "wide", "zero", "self"])
    def test_non_finite_objective_raises(self, entry, model, monkeypatch):
        X = rand((6, 4), 59)
        opts = solver.SolverOptions(lam=1.0)
        monkeypatch.setattr(solver, "error_norm", lambda E, model: np.inf)
        with pytest.raises(NumericalError, match="non-finite objective"):
            if entry == "self":
                solver.solve_lrr_self(X, model, opts)
            else:
                A = {"tall": rand((6, 3), 60), "wide": rand((6, 9), 61),
                     "zero": np.zeros((6, 3))}[entry]
                solver.solve_lrr(X, A, model, opts)

    def test_overflowing_penalty_stops_the_adm_at_once(self):
        # the first sweep's ||E||_F^2 overflows; the residuals stay finite
        X, A = rand((5, 4), 63) * 1e160, rand((5, 3), 64)
        with pytest.raises(NumericalError, match="non-finite objective at iteration 1;"):
            solver.solve_lrr(X, A, "frobenius_sq", solver.SolverOptions(lam=1.0))

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    def test_overflowing_penalty_on_the_zero_dictionary(self, model):
        # E = X, whose squared entries overflow: the l21 and frobenius_sq
        # penalties do, the l1 penalty does not
        X = rand((5, 4), 62) * 1e160
        opts = solver.SolverOptions(lam=0.5)
        if model == "l1":
            sol = solver.solve_lrr(X, np.zeros((5, 3)), model, opts)
            assert sol.objective == opts.lam * np.abs(X).sum()
        else:
            with pytest.raises(NumericalError, match="non-finite objective"):
                solver.solve_lrr(X, np.zeros((5, 3)), model, opts)


class TestReduceDictionary:
    def test_orthonormal_rows(self):
        A = np.linalg.qr(rand((9, 4), 60))[0].T  # 4x9, orthonormal rows
        f = solver.reduce_dictionary(A)
        assert f.rank == 4
        # V spans the rows of A
        np.testing.assert_allclose(f.V.T @ f.V, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(f.V @ (f.V.T @ A.T), A.T, atol=1e-10)
        # the reduced dictionary U S = A V then has orthonormal columns
        np.testing.assert_allclose((f.U * f.sigma).T @ (f.U * f.sigma), np.eye(4), atol=1e-10)

    def test_rank_one_ones(self):
        f = solver.reduce_dictionary(np.ones((4, 6)))
        assert f.rank == 1
        assert (f.U * f.sigma).shape == (4, 1)
        np.testing.assert_allclose(f.U * f.sigma, np.ones((4, 6)) @ f.V, atol=1e-10)

    def test_zero_dictionary_rejected(self):
        with pytest.raises(DegenerateInputError):
            solver.reduce_dictionary(np.zeros((3, 3)))

    def test_direct_vs_reduced_equivalence(self):
        A = rand((7, 3), 61) @ rand((3, 12), 62)  # rank 3
        X = rand((7, 10), 63)
        opts = solver.SolverOptions(lam=0.5)
        # the ADM on the full dictionary, with no reduction
        direct = oracles.adm_reference(X, A, "l21", opts)
        reduced = solver.solve_lrr(X, A, "l21", opts)
        assert np.linalg.norm(direct.Z - reduced.Z) <= 1e-4
        assert np.linalg.norm(direct.E - reduced.E) <= 1e-4
        assert reduced.objective == pytest.approx(direct.objective, rel=1e-6)


class TestRecoveryBounds:
    def test_near_recovery_bound_on_synthetic_runs(self):
        # ||Z* - V0 V0^T||_F <= min(d, n) + r0 whenever V0 is known
        for seed, lam in [(80, 0.3), (81, 1.0), (82, 5.0)]:
            ds = independent_dataset(seed=seed)
            sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=lam))
            bound = min(ds.d, ds.n) + ds.rank0
            assert np.linalg.norm(sol.Z - ds.V0 @ ds.V0.T) <= bound
