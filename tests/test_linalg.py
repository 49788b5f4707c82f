import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from lrr import linalg
from lrr.errors import DegenerateInputError, NumericalError

import oracles


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


@st.composite
def svt_cases(draw):
    """``(M, theta)``: tall, wide or square ``M`` of any rank, its singular
    values spread, graded over ten decades, clustered, or split between 1
    and the Gram noise floor (1e-11..1e-8), scaled by 10^-300..10^300, with
    ``theta`` above sigma_max, at a cluster, at 1e-12 sigma_max or anywhere
    below sigma_max."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 40))
    k = min(m, n)
    rank = draw(st.integers(1, k))
    spectrum = draw(st.sampled_from(["spread", "graded", "clustered", "gapped"]))
    place = draw(st.sampled_from(["above", "cluster", "tiny", "inside"]))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if spectrum == "spread":
        s = rng.uniform(0.1, 1.0, rank)
    elif spectrum == "graded":
        s = 10.0 ** rng.uniform(-10.0, 0.0, rank)
    elif spectrum == "gapped":
        s = np.where(rng.random(rank) < 0.5, 1.0, 10.0 ** rng.uniform(-11.0, -8.0, rank))
    else:
        levels = rng.uniform(0.1, 1.0, 3)
        s = levels[rng.integers(0, 3, rank)] * (1.0 + rng.uniform(-1e-14, 1e-14, rank))
    s = np.sort(s)[::-1] / s.max()
    U = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    V = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    M = (U * s) @ V.T * scale
    smax = np.linalg.norm(M, 2)
    if place == "above":
        theta = smax * rng.uniform(1.0, 1.5)
    elif place == "cluster":
        theta = scale * s[rng.integers(0, rank)]
    elif place == "tiny":
        theta = 1e-12 * smax
    else:
        theta = smax * rng.uniform(0.0, 1.0)
    return M, theta


class TestSkinnySvd:
    def test_identity(self):
        f = linalg.skinny_svd(np.eye(3), rank_tol=0.0)
        assert f.rank == 3
        np.testing.assert_allclose(f.U, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(f.V, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(f.sigma, np.ones(3), atol=1e-12)

    def test_zero_matrix_empty_factors(self):
        f = linalg.skinny_svd(np.zeros((4, 2)))
        assert f.rank == 0
        assert f.U.shape == (4, 0)
        assert f.sigma.shape == (0,)
        assert f.V.shape == (2, 0)

    def test_low_rank_construct_then_factor(self):
        # construct-then-factor oracle: a 6x4 product of rank-2 factors
        M = rand((6, 2), 1) @ rand((2, 4), 2)
        f = linalg.skinny_svd(M)
        assert f.rank == 2
        assert np.linalg.norm(f.reconstruct() - M) < 1e-8 * np.linalg.norm(M)

    @pytest.mark.parametrize("seed", range(5))
    def test_factor_invariants(self, seed):
        M = rand((7, 5), seed)
        f = linalg.skinny_svd(M)
        r = f.rank
        scale = f.sigma[0]
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(r), atol=1e-10 * max(scale, 1))
        np.testing.assert_allclose(f.V.T @ f.V, np.eye(r), atol=1e-10 * max(scale, 1))
        assert (f.sigma > 0).all()
        assert (np.diff(f.sigma) <= 0).all()
        assert np.linalg.norm(f.reconstruct() - M) <= 1e-8 * np.linalg.norm(M)

    def test_rank_tol_drops_small_values(self):
        M = np.diag([1.0, 1e-3, 1e-9])
        assert linalg.skinny_svd(M, rank_tol=1e-6).rank == 2
        assert linalg.skinny_svd(M, rank_tol=0.0).rank == 3

    def test_sign_convention_bit_stable(self):
        M = rand((6, 6), 3)
        f1 = linalg.skinny_svd(M)
        f2 = linalg.skinny_svd(M.copy())
        assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)
        for j in range(f1.rank):
            col = f1.U[:, j]
            assert col[np.flatnonzero(col)[0]] >= 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.skinny_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_svd_failure_wrapped_with_dimensions(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError, match="3x2"):
            linalg.skinny_svd(np.ones((3, 2)))


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(linalg.pseudoinverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_orthonormal_columns_transpose(self):
        U = np.linalg.qr(rand((5, 2), 4))[0]
        np.testing.assert_allclose(linalg.pseudoinverse(U), U.T, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_moore_penrose_conditions_rank_deficient(self, seed):
        M = rand((5, 3), seed) @ rand((3, 5), seed + 50)
        P = linalg.pseudoinverse(M)
        assert oracles.moore_penrose_violations(M, P) < 1e-8

    def test_involution(self):
        M = rand((6, 4), 7)
        back = linalg.pseudoinverse(linalg.pseudoinverse(M))
        assert np.linalg.norm(back - M) <= 1e-8 * np.linalg.norm(M)

    def test_zero_matrix(self):
        P = linalg.pseudoinverse(np.zeros((3, 5)))
        assert P.shape == (5, 3) and not P.any()


class TestNorms:
    def test_diagonal_closed_forms(self):
        M = np.diag([3.0, -4.0])
        assert linalg.norm(M, "l1") == pytest.approx(7.0)
        assert linalg.norm(M, "l21") == pytest.approx(7.0)
        assert linalg.norm(M, "frobenius") == pytest.approx(5.0)
        assert linalg.norm(M, "nuclear") == pytest.approx(7.0)
        assert linalg.norm(M, "spectral") == pytest.approx(4.0)
        assert linalg.norm(M, "linf") == pytest.approx(4.0)

    def test_zero_matrix_all_kinds(self):
        for kind in linalg.NORM_KINDS:
            assert linalg.norm(np.zeros((3, 2)), kind) == 0.0

    def test_nuclear_against_full_svd_oracle(self):
        M = rand((4, 4), 11)
        assert linalg.norm(M, "nuclear") == pytest.approx(
            oracles.full_svd_nuclear(M), rel=1e-12
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            linalg.norm(np.eye(2), "l2")

    @pytest.mark.parametrize("kind", linalg.NORM_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_inequality_and_homogeneity(self, kind, seed):
        A = rand((5, 6), seed)
        B = rand((5, 6), seed + 100)
        na, nb = linalg.norm(A, kind), linalg.norm(B, kind)
        assert linalg.norm(A + B, kind) <= na + nb + 1e-10
        assert linalg.norm(-2.5 * A, kind) == pytest.approx(2.5 * na, rel=1e-10)

    def test_unitary_invariance_of_nuclear_norm(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 3))
        U = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        assert linalg.norm(U @ M @ V.T, "nuclear") == pytest.approx(
            linalg.norm(M, "nuclear"), rel=1e-8
        )


class TestSvt:
    def test_theta_zero_identity(self):
        M = rand((4, 5), 13)
        np.testing.assert_allclose(linalg.svt(M, 0.0), M, atol=1e-12)

    def test_diagonal_entrywise_shrink(self):
        out = linalg.svt(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_minimizes_svt_objective_vs_perturbations(self):
        M = rand((5, 5), 17)
        theta = 0.7
        # the second input has ||M||_F = 0.9 theta: the zero certificate answers
        for M in (M, M * (0.9 * theta / np.linalg.norm(M))):
            J = linalg.svt(M, theta)
            assert oracles.beats_random_perturbations(
                lambda W: oracles.svt_objective(W, M, theta), J, 200, 0.05, seed=3
            )

    def test_rank_never_grows_and_nuclear_value(self):
        for seed in range(5):
            M = rand((6, 4), seed)
            theta = 0.3
            out = linalg.svt(M, theta)
            s_in = np.linalg.svd(M, compute_uv=False)
            s_out = np.linalg.svd(out, compute_uv=False)
            assert (s_out > 1e-12).sum() <= (s_in > 1e-12).sum()
            expected = np.maximum(s_in - theta, 0.0).sum()
            assert linalg.norm(out, "nuclear") == pytest.approx(expected, abs=1e-10)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            linalg.svt(np.eye(2), -0.1)

    def test_frobenius_certificate_skips_svd(self, monkeypatch):
        def no_svd(M):
            raise AssertionError("SVD ran inside the Frobenius ball")

        monkeypatch.setattr(linalg, "_raw_svd", no_svd)
        M = rand((6, 4), 18)
        theta = np.linalg.norm(M)
        # in the last case theta / max|M| overflows to inf
        for M, t in ((M, theta), (M, 2.0 * theta), (M * 1e-310, 1.0)):
            J, nuclear = linalg.svt_with_nuclear(M, t)
            assert J.shape == M.shape and not J.any()
            assert nuclear == 0.0

    def test_spectral_inside_frobenius_outside_still_zero(self, monkeypatch):
        # sigma_max = 1 <= theta = 1.5 < ||I_4||_F = 2: the certificate does
        # not fire, but no Gram eigenvalue clears theta^2, so no SVD runs
        def no_svd(M):
            raise AssertionError("SVD ran though no singular value exceeds theta")

        monkeypatch.setattr(linalg, "_raw_svd", no_svd)
        J, nuclear = linalg.svt_with_nuclear(np.eye(4), 1.5)
        assert J.shape == (4, 4) and not J.any()
        assert nuclear == 0.0

    @pytest.mark.parametrize("shape", [(60, 40), (40, 60)])
    def test_svds_only_the_triplets_above_theta(self, shape, monkeypatch):
        # rank 3 with theta between sigma_2 and sigma_3: the Rayleigh-Ritz
        # SVD sees the few kept Gram eigenvectors, never all 40
        rng = np.random.default_rng(47)
        U = np.linalg.qr(rng.standard_normal((shape[0], 3)))[0]
        V = np.linalg.qr(rng.standard_normal((shape[1], 3)))[0]
        M = (U * [3.0, 2.0, 1.0]) @ V.T
        shapes = []
        real = linalg._raw_svd

        def recorded_svd(A):
            shapes.append(A.shape)
            return real(A)

        monkeypatch.setattr(linalg, "_raw_svd", recorded_svd)
        J, nuclear = linalg.svt_with_nuclear(M, 1.5)
        assert shapes and all(min(s) <= 3 for s in shapes)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 1.5)
        assert np.abs(J - J_ref).max() <= 1e-12 * 3.0
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12 * 3.0)

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30)])
    def test_residual_check_falls_back_to_full_svd(self, shape, monkeypatch):
        # eigh hands back a basis rotated by ~1e-6: the Rayleigh-Ritz
        # triplets fail the residual check and the full SVD answers
        rng = np.random.default_rng(53)
        M = rand(shape, 59)
        theta = 0.5 * np.linalg.norm(M, 2)
        real_eigh = np.linalg.eigh

        def perturbed_eigh(G):
            w, B = real_eigh(G)
            return w, np.linalg.qr(B + 1e-6 * rng.standard_normal(B.shape))[0]

        shapes = []
        real_svd = linalg._raw_svd

        def recorded_svd(A):
            shapes.append(A.shape)
            return real_svd(A)

        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        monkeypatch.setattr(linalg, "_raw_svd", recorded_svd)
        J, nuclear = linalg.svt_with_nuclear(M, theta)
        assert len(shapes) == 2 and shapes[0][1] < 12 and shapes[1] == (30, 12)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, theta)
        smax = np.linalg.norm(M, 2)
        assert np.abs(J - J_ref).max() <= 1e-12 * smax
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12 * smax)

    def test_overflowing_frobenius_norm_still_thresholds(self):
        # entries of 1e160 are finite but ||M||_F overflows when computed
        # directly; scaled by the largest entry first, it does not
        M = rand((5, 3), 67) * 1e160
        with np.errstate(over="ignore"):
            assert np.linalg.norm(M) == np.inf
        smax = np.linalg.norm(M, 2)
        J, nuclear = linalg.svt_with_nuclear(M, 0.5 * smax)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 0.5 * smax)
        assert np.abs(J - J_ref).max() <= 1e-12 * smax
        assert nuclear == pytest.approx(nuclear_ref, rel=1e-12)

    def test_underflowing_frobenius_norm_still_thresholds(self):
        # the squares of 3e-170 and 1e-170 underflow to 0, so a Frobenius
        # norm taken directly reads 0 and the zero certificate would fire
        M = np.diag([3e-170, 1e-170])
        J, nuclear = linalg.svt_with_nuclear(M, 0.0)
        np.testing.assert_allclose(J, M, rtol=0.0, atol=1e-12 * 3e-170)
        assert nuclear == pytest.approx(4e-170, rel=1e-12)
        np.testing.assert_allclose(linalg.svt(M, 0.0), M, rtol=0.0, atol=1e-12 * 3e-170)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        M = rand((4, 3), 71)
        M[2, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            linalg.svt_with_nuclear(M, 0.5)

    def test_eigh_failure_wrapped_with_dimensions(self, monkeypatch):
        def boom(G):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalError, match="2x2"):
            linalg.svt_with_nuclear(rand((5, 2), 61), 0.1)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(svt_cases())
    def test_matches_full_svd_threshold(self, case):
        M, theta = case
        smax = np.linalg.norm(M, 2)
        J, nuclear = linalg.svt_with_nuclear(M, theta)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, theta)
        assert J.shape == M.shape
        assert np.abs(J - J_ref).max() <= 1e-12 * smax
        assert abs(nuclear - nuclear_ref) <= 1e-12 * smax
        J2, nuclear2 = linalg.svt_with_nuclear(M, theta)
        assert np.array_equal(J, J2) and nuclear == nuclear2


class TestColumnShrink:
    def test_single_column_closed_form(self):
        out = linalg.column_shrink(np.array([[0.0], [2.0]]), 0.5)
        np.testing.assert_allclose(out, np.array([[0.0], [1.5]]), atol=1e-15)

    def test_alpha_above_all_norms_zeroes(self):
        Q = rand((3, 4), 19)
        alpha = np.linalg.norm(Q, axis=0).max() + 1.0
        assert not linalg.column_shrink(Q, alpha).any()

    def test_minimizes_l21_objective_vs_perturbations(self):
        Q = rand((3, 5), 23)
        alpha = 0.4
        W = linalg.column_shrink(Q, alpha)
        assert oracles.beats_random_perturbations(
            lambda M: oracles.l21_objective(M, Q, alpha), W, 200, 0.05, seed=5
        )

    def test_columns_scaled_never_rotated(self):
        Q = rand((4, 6), 29)
        Q[:, 2] = 0.0
        out = linalg.column_shrink(Q, 0.3)
        for i in range(Q.shape[1]):
            qn = np.linalg.norm(Q[:, i])
            on = np.linalg.norm(out[:, i])
            if on > 0:
                cos = out[:, i] @ Q[:, i] / (on * qn)
                assert cos == pytest.approx(1.0, abs=1e-12)
            assert on <= qn + 1e-12
        assert not out[:, 2].any()


class TestEntryShrink:
    def test_small_entry_zeroed(self):
        assert linalg.entry_shrink(np.array([[0.3]]), 0.5)[0, 0] == 0.0

    def test_negative_entry_closed_form(self):
        assert linalg.entry_shrink(np.array([[-2.0]]), 0.5)[0, 0] == pytest.approx(-1.5)

    def test_matches_scalar_golden_section_oracle(self):
        Q = rand((4, 4), 31)
        alpha = 0.35
        out = linalg.entry_shrink(Q, alpha)
        for q, w in zip(Q.ravel(), out.ravel()):
            assert w == pytest.approx(oracles.scalar_shrink_oracle(q, alpha), abs=1e-8)


class TestRowSpaceProjector:
    def test_orthonormal_rows(self):
        A = np.linalg.qr(rand((7, 3), 37))[0].T  # 3x7 with orthonormal rows
        np.testing.assert_allclose(linalg.row_space_projector(A), A.T @ A, atol=1e-10)

    def test_full_row_rank_square(self):
        A = rand((4, 4), 41)
        np.testing.assert_allclose(linalg.row_space_projector(A), np.eye(4), atol=1e-10)

    def test_projector_axioms(self):
        A = rand((3, 7), 43)
        P = linalg.row_space_projector(A)
        np.testing.assert_allclose(P @ P, P, atol=1e-8)
        np.testing.assert_allclose(P.T, P, atol=1e-12)
        np.testing.assert_allclose(P @ A.T, A.T, atol=1e-8)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            linalg.row_space_projector(np.zeros((2, 3)))
