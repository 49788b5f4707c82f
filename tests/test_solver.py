import numpy as np
import pytest

from lrr import linalg, solver, synth
from lrr.errors import DegenerateInputError, FeasibilityError, NumericalError


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def independent_dataset(k=3, dim=2, ambient=24, per=6, seed=0):
    ens = synth.gen_ensemble(k, dim, ambient, mode="independent", seed=seed)
    return synth.sample(ens, per, seed=seed + 1)


class TestSolverOptions:
    def test_defaults(self):
        o = solver.SolverOptions(lam=0.5)
        assert (o.mu_init, o.mu_max, o.rho, o.eps, o.max_iters) == (
            1e-6, 1e6, 1.1, 1e-8, 1000
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": -1.0},
            {"lam": 1.0, "mu_init": 0.0},
            {"lam": 1.0, "mu_init": 10.0, "mu_max": 1.0},
            {"lam": 1.0, "rho": 1.0},
            {"lam": 1.0, "eps": 0.0},
            {"lam": 1.0, "max_iters": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            solver.SolverOptions(**kwargs)


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
        expected = np.minimum(opts.mu_init * opts.rho ** np.arange(sol.iterations),
                              opts.mu_max)
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
        real = solver.column_shrink

        def poisoned(G, alpha):
            calls.append(alpha)
            out = real(G, alpha)
            if len(calls) == 5:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(solver, "column_shrink", poisoned)
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
        P = linalg.row_space_projector(A)
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
    def test_diagonal_dictionary_matches_general_z_step(self, model, monkeypatch):
        # a zero row appended to X and to diag(s) leaves the problem as it
        # is but makes the dictionary non-square, forcing the Cholesky form
        X = rand((6, 9), 24)
        D = np.diag([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
        opts = solver.SolverOptions(lam=0.6)
        general = solver.solve_lrr(np.vstack([X, np.zeros((1, 9))]),
                                   np.vstack([D, np.zeros((1, 6))]), model, opts)

        def no_factorization(*args, **kwargs):
            raise AssertionError("a diagonal dictionary needs no Cholesky factor")

        monkeypatch.setattr(solver.scipy.linalg, "cho_factor", no_factorization)
        diagonal = solver.solve_lrr(X, D, model, opts)
        assert diagonal.converged and general.converged
        assert np.abs(diagonal.Z - general.Z).max() < 1e-6
        assert np.abs(diagonal.E - general.E[:-1]).max() < 1e-6
        assert not general.E[-1].any()
        assert diagonal.objective == pytest.approx(general.objective, rel=1e-8)

    def test_frobenius_model_one_sweep_matches_closed_form(self):
        X, A = rand((5, 7), 22), rand((5, 7), 23)
        opts = solver.SolverOptions(lam=0.8, max_iters=1)
        sol = solver.solve_lrr(X, A, "frobenius_sq", opts)
        # by hand: first sweep from zero initialization
        mu = opts.mu_init
        J = np.zeros((7, 7))
        Z = np.linalg.solve(np.eye(7) + A.T @ A, A.T @ X + J)
        G = X - A @ Z
        E = (mu / (2 * opts.lam + mu)) * G
        np.testing.assert_allclose(sol.E, E, atol=1e-12)


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
        base = linalg.norm(Z, "nuclear")
        # null-space directions of A keep feasibility: A @ N = 0
        V = linalg.skinny_svd(A).V
        null_proj = np.eye(9) - V @ V.T
        rng = np.random.default_rng(43)
        for _ in range(100):
            N = null_proj @ rng.standard_normal((9, 5))
            feasible = Z + N
            assert np.abs(A @ feasible - X).max() < 1e-8
            assert linalg.norm(feasible, "nuclear") >= base - 1e-10


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
        X = {
            "tall": lambda: rand((15, 8), 54),  # full column rank
            "wide": lambda: rand((6, 10), 54),  # full row rank
            "rank_deficient": lambda: rand((12, 4), 52) @ rand((4, 15), 53),
        }[shape]()
        opts = solver.SolverOptions(lam=0.7)
        fast = solver.solve_lrr_self(X, model, opts)
        direct = solver.solve_lrr(X, X, model, opts)
        assert np.abs(fast.Z - direct.Z).max() < 1e-6
        assert np.abs(fast.E - direct.E).max() < 1e-6

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    def test_one_solve_path(self, model, monkeypatch):
        # one solve_lrr in the SVD coordinates of X, no reduction, and the
        # feasibility residual measured on X itself
        calls = {"solve_lrr": 0, "solve_lrr_reduced": 0, "reduce_dictionary": 0}
        for name in calls:
            real = getattr(solver, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        X = rand((12, 4), 55) @ rand((4, 9), 56)
        sol = solver.solve_lrr_self(X, model, solver.SolverOptions(lam=0.7))
        assert calls == {"solve_lrr": 1, "solve_lrr_reduced": 0, "reduce_dictionary": 0}
        assert sol.final_residuals[0] == np.abs(X - X @ sol.Z - sol.E).max()

    def test_wide_frobenius_converges(self):
        # 150 unit columns in R^100 from 5 rank-3 subspaces with 10% noise;
        # the direct solve's 150x150 SVT failed to converge on this input
        ens = synth.gen_ensemble(5, 3, 100, mode="independent", seed=0)
        ds = synth.normalize_columns(
            synth.add_noise(synth.sample(ens, 30, seed=1), 0.1, seed=2))
        opts = solver.SolverOptions(lam=10.0)
        sol = solver.solve_lrr_self(ds.X, "frobenius_sq", opts)
        ref = solver.solve_lrr_reduced(ds.X, ds.X, "frobenius_sq", opts)
        assert sol.converged and ref.converged
        assert sol.objective == pytest.approx(ref.objective, rel=1e-6)


class TestReduceDictionary:
    def test_orthonormal_rows(self):
        A = np.linalg.qr(rand((9, 4), 60))[0].T  # 4x9, orthonormal rows
        rd = solver.reduce_dictionary(A)
        assert rd.r_A == 4
        # P* spans the rows of A
        np.testing.assert_allclose(rd.P_star.T @ rd.P_star, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(rd.P_star @ (rd.P_star.T @ A.T), A.T, atol=1e-10)
        # B = A P* then has orthonormal columns
        np.testing.assert_allclose(rd.B.T @ rd.B, np.eye(4), atol=1e-10)

    def test_rank_one_ones(self):
        rd = solver.reduce_dictionary(np.ones((4, 6)))
        assert rd.r_A == 1
        assert rd.B.shape == (4, 1)
        np.testing.assert_allclose(rd.B, np.ones((4, 6)) @ rd.P_star, atol=1e-10)

    def test_zero_dictionary_rejected(self):
        with pytest.raises(DegenerateInputError):
            solver.reduce_dictionary(np.zeros((3, 3)))

    def test_direct_vs_reduced_equivalence(self):
        A = rand((7, 3), 61) @ rand((3, 12), 62)  # rank 3
        X = rand((7, 10), 63)
        opts = solver.SolverOptions(lam=0.5)
        direct = solver.solve_lrr(X, A, "l21", opts)
        reduced = solver.solve_lrr_reduced(X, A, "l21", opts)
        assert np.linalg.norm(direct.Z - reduced.Z) <= 1e-4
        assert np.linalg.norm(direct.E - reduced.E) <= 1e-4
        assert reduced.objective == pytest.approx(direct.objective, rel=1e-6)


class TestLambdaOutlierDefault:
    def test_identity_closed_form(self):
        assert solver.lambda_outlier_default(np.eye(4), 1.0) == pytest.approx(3.0 / 14.0)

    def test_inverse_scaling(self):
        X = rand((5, 8), 70)
        lam1 = solver.lambda_outlier_default(X, 0.5)
        lam2 = solver.lambda_outlier_default(2.5 * X, 0.5)
        assert lam2 == pytest.approx(lam1 / 2.5, rel=1e-12)

    def test_spectral_norm_against_svd_oracle(self):
        X = rand((6, 9), 71)
        smax = np.linalg.svd(X, compute_uv=False)[0]
        expected = 3.0 / (7.0 * smax * np.sqrt(0.25 * 9))
        assert solver.lambda_outlier_default(X, 0.25) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_gamma_range_enforced(self, gamma):
        with pytest.raises(ValueError):
            solver.lambda_outlier_default(np.eye(3), gamma)


class TestRecoveryBounds:
    def test_near_recovery_bound_on_synthetic_runs(self):
        # ||Z* - V0 V0^T||_F <= min(d, n) + r0 whenever V0 is known
        for seed, lam in [(80, 0.3), (81, 1.0), (82, 5.0)]:
            ds = independent_dataset(seed=seed)
            sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=lam))
            bound = min(ds.d, ds.n) + ds.rank0
            assert np.linalg.norm(sol.Z - ds.V0 @ ds.V0.T) <= bound
