import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from lrr import linalg, solver
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


BASIS_KINDS = ("none", "true", "stale", "random", "rank_deficient", "wrong", "oversized")


@st.composite
def svt_basis_cases(draw):
    """``(M, theta, basis)``: tall or wide ``M`` whose smaller side ``n`` is
    40..96, so that the warm path's gate ``4 (k + 8) <= n`` can open, with
    1..8 leading singular values in [1, 2] over a tail that is zero or
    spread below 1e-3, 0.1 or 0.6, all scaled by 10^-300..10^300,
    ``theta`` in the gap, anywhere below
    sigma_max or above it, and a basis of ``n`` rows of one of
    ``BASIS_KINDS``: the kept right singular vectors, a perturbed set of
    more or fewer of them, random, with a repeated and a zero column,
    spanning only tail directions, or too wide for the gate."""
    n = draw(st.integers(40, 96))
    m = draw(st.integers(n, 140))
    wide = draw(st.booleans())
    lead = draw(st.integers(1, 8))
    tail = draw(st.sampled_from([0.0, 1e-3, 0.1, 0.6]))
    place = draw(st.sampled_from(["gap", "inside", "above"]))
    kind = draw(st.sampled_from(BASIS_KINDS))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.concatenate([rng.uniform(1.0, 2.0, lead), tail * rng.uniform(0.0, 1.0, n - lead)])
    s = np.sort(s)[::-1]
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if place == "gap":
        t = rng.uniform(max(tail, 0.5), 1.0)
    elif place == "inside":
        t = rng.uniform(0.0, s[0])
    else:
        t = s[0] * rng.uniform(1.0, 1.5)
    k = int(np.count_nonzero(s > t))
    if kind == "none":
        basis = None
    elif kind == "true":
        basis = V[:, :k]
    elif kind == "stale":
        j = int(np.clip(k + rng.integers(-2, 3), 0, n))
        basis = np.linalg.qr(V[:, :j] + 1e-2 * rng.standard_normal((n, j)))[0]
    elif kind == "random":
        basis = np.linalg.qr(rng.standard_normal((n, rng.integers(1, 11))))[0]
    elif kind == "rank_deficient":
        B = V[:, : max(k, 1)]
        basis = np.hstack([B, B[:, :1], np.zeros((n, 1))])
    elif kind == "wrong":
        basis = V[:, n - max(min(k, n - k), 1):]
    else:
        basis = V[:, : n // 4 - 7]
    N = (U * s) @ V.T * scale
    return (N.T if wide else N), t * scale, basis


@st.composite
def shrink_cases(draw):
    """``(Q, alpha)``: Q of 1..12 x 1..12 Gaussian entries scaled by
    10^-100..10^100, about a fifth of its columns zero, and ``alpha`` from 0
    to past the largest column norm."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    scale = 10.0 ** draw(st.integers(-100, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = rng.standard_normal((d, n)) * scale
    Q[:, rng.random(n) < 0.2] = 0.0
    alpha = draw(st.floats(0.0, 1.5)) * np.sqrt(d) * scale
    return Q, alpha


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

    @pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -1e-3])
    def test_rejects_rank_tol_outside_zero_to_inf(self, rank_tol):
        # NaN or inf would drop every singular value
        with pytest.raises(ValueError, match="rank_tol"):
            linalg.skinny_svd(np.eye(3), rank_tol)

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


@st.composite
def low_rank_cases(draw):
    """``(M, r, junk, rank_tol)``: a d x n matrix, sides 65..140, of rank r
    with singular values in [1, 10], plus Gaussian junk with entries of
    ``junk`` (0 or 1e-13..1e-7) relative, all scaled by 10^-100..10^100.
    r is at most 48 (sketchable) or up to full rank, past the sketch;
    ``rank_tol`` is the solution cut 1e-4, or ``skinny_svd``'s default
    when there is no junk."""
    d = draw(st.integers(65, 140))
    n = draw(st.integers(65, 140))
    r = draw(st.one_of(st.integers(1, 48), st.integers(49, min(d, n))))
    junk = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7]))
    scale = 10.0 ** draw(st.integers(-100, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.linalg.qr(rng.standard_normal((d, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    M = (U * rng.uniform(1.0, 10.0, r)) @ V.T + junk * rng.standard_normal((d, n))
    return M * scale, r, junk, solver.SOLUTION_RANK_TOL if junk else None


def factor_with_calls(M, rank_tol):
    """``linalg._low_rank_svd(M, rank_tol)`` and the shapes of the
    ``skinny_svd`` calls it made."""
    shapes = []
    real = linalg.skinny_svd

    def recorded(A, tol=None):
        shapes.append(A.shape)
        return real(A, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "skinny_svd", recorded)
        f = linalg._low_rank_svd(M, rank_tol)
    return f, shapes


class TestLowRankSvd:
    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(low_rank_cases())
    def test_rank_and_projector_match_skinny_svd(self, case):
        M, r, junk, rank_tol = case
        f, shapes = factor_with_calls(M, rank_tol)
        dense = linalg.skinny_svd(M, rank_tol)
        assert f.rank == dense.rank == r
        # the projector to roundoff plus the junk level, relative to the
        # smallest kept singular value (1 before scaling)
        bound = 1e-12 + 10 * junk
        assert np.abs(f.U @ f.U.T - dense.U @ dense.U.T).max() <= bound
        assert np.abs(f.V @ f.V.T - dense.V @ dense.V.T).max() <= bound
        np.testing.assert_allclose(f.sigma, dense.sigma, rtol=bound)
        assert np.abs(f.reconstruct() - M).max() <= (1e-12 + 100 * junk) * dense.sigma[0]
        for j in range(f.rank):
            col = f.U[:, j]
            assert col[np.flatnonzero(col)[0]] >= 0
        sketched = M.shape not in shapes
        if r > linalg._SKETCH_WIDTH - linalg._SKETCH_SPARE:
            # past 48 directions the QR of the sketch sends M to the dense
            # SVD before B is formed and factored
            assert shapes == [M.shape]
        elif junk:
            # the solution cut sits far above the junk: the sketch answers.
            # skinny_svd's own cut (max(d, n) eps) can sit below the
            # rounding of the sketch, and then the dense SVD answers.
            assert sketched
        if not sketched:
            assert np.array_equal(f.U, dense.U) and np.array_equal(f.V, dense.V)
            assert np.array_equal(f.sigma, dense.sigma)

    @pytest.mark.parametrize("shape", [(64, 200), (300, 64), (20, 30), (70, 70)])
    def test_narrow_or_full_rank_input_takes_the_dense_svd(self, shape):
        M = rand(shape, 9)
        f, shapes = factor_with_calls(M, solver.SOLUTION_RANK_TOL)
        dense = linalg.skinny_svd(M, solver.SOLUTION_RANK_TOL)
        assert shapes == [shape]
        for got, want in zip((f.U, f.sigma, f.V), (dense.U, dense.sigma, dense.V)):
            assert np.array_equal(got, want)

    def test_zero_matrix_empty_factors(self):
        f = linalg._low_rank_svd(np.zeros((100, 80)))
        assert (f.U.shape, f.sigma.shape, f.V.shape) == ((100, 0), (0,), (80, 0))

    @pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -1e-3])
    def test_rejects_rank_tol_outside_zero_to_inf(self, rank_tol):
        with pytest.raises(ValueError, match="rank_tol"):
            linalg._low_rank_svd(np.eye(100), rank_tol)


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


def nuclear(M):
    """The nuclear norm that the solver's objective takes from the SVT: that
    of ``M`` thresholded at zero."""
    return linalg.svt_with_nuclear(M, 0.0)[1]


def norm_of_kind(M, kind):
    return nuclear(M) if kind == "nuclear" else linalg.norm(M, kind)


class TestNorms:
    def test_diagonal_closed_forms(self):
        M = np.diag([3.0, -4.0])
        assert linalg.norm(M, "l1") == pytest.approx(7.0)
        assert linalg.norm(M, "l21") == pytest.approx(7.0)
        assert linalg.norm(M, "frobenius") == pytest.approx(5.0)
        assert nuclear(M) == pytest.approx(7.0)
        assert linalg.norm(M, "spectral") == pytest.approx(4.0)

    def test_zero_matrix_all_kinds(self):
        for kind in linalg.NORM_KINDS:
            assert linalg.norm(np.zeros((3, 2)), kind) == 0.0

    def test_nuclear_against_full_svd_oracle(self):
        M = rand((4, 4), 11)
        assert nuclear(M) == pytest.approx(oracles.full_svd_nuclear(M), rel=1e-12)

    def test_unknown_kind(self):
        for kind in ("l2", "nuclear", "linf"):
            with pytest.raises(ValueError):
                linalg.norm(np.eye(2), kind)

    @pytest.mark.parametrize("kind", linalg.NORM_KINDS + ("nuclear",))
    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_inequality_and_homogeneity(self, kind, seed):
        A = rand((5, 6), seed)
        B = rand((5, 6), seed + 100)
        na, nb = norm_of_kind(A, kind), norm_of_kind(B, kind)
        assert norm_of_kind(A + B, kind) <= na + nb + 1e-10
        assert norm_of_kind(-2.5 * A, kind) == pytest.approx(2.5 * na, rel=1e-10)

    def test_unitary_invariance_of_nuclear_norm(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 3))
        U = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        assert nuclear(U @ M @ V.T) == pytest.approx(nuclear(M), rel=1e-8)


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
            assert oracles.full_svd_nuclear(out) == pytest.approx(expected, abs=1e-10)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            linalg.svt(np.eye(2), -0.1)

    def test_nan_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            linalg.svt(rand((3, 4), 7), np.nan)

    def test_infinite_theta_zeroes(self):
        assert not linalg.svt(rand((3, 4), 7), np.inf).any()

    def test_frobenius_certificate_skips_svd(self, monkeypatch):
        def no_svd(M):
            raise AssertionError("SVD ran inside the Frobenius ball")

        monkeypatch.setattr(linalg, "_raw_svd", no_svd)
        M = rand((6, 4), 18)
        theta = np.linalg.norm(M)
        # in the last case theta / max|M| overflows to inf
        for M, t in ((M, theta), (M, 2.0 * theta), (M * 1e-310, 1.0)):
            J, nuclear, _ = linalg.svt_with_nuclear(M, t)
            assert J.shape == M.shape and not J.any()
            assert nuclear == 0.0

    def test_spectral_inside_frobenius_outside_still_zero(self, monkeypatch):
        # sigma_max = 1 <= theta = 1.5 < ||I_4||_F = 2: the certificate does
        # not fire, but no Gram eigenvalue clears theta^2, so no SVD runs
        def no_svd(M):
            raise AssertionError("SVD ran though no singular value exceeds theta")

        monkeypatch.setattr(linalg, "_raw_svd", no_svd)
        J, nuclear, _ = linalg.svt_with_nuclear(np.eye(4), 1.5)
        assert J.shape == (4, 4) and not J.any()
        assert nuclear == 0.0

    @pytest.mark.parametrize("shape", [(60, 40), (40, 60)])
    def test_kept_triplets_take_no_svd(self, shape, monkeypatch):
        # rank 3 with theta between sigma_2 and sigma_3: the kept triplets
        # come straight from the Gram eigenpairs, with no SVD at all
        rng = np.random.default_rng(47)
        U = np.linalg.qr(rng.standard_normal((shape[0], 3)))[0]
        V = np.linalg.qr(rng.standard_normal((shape[1], 3)))[0]
        M = (U * [3.0, 2.0, 1.0]) @ V.T

        def no_svd(A, compute_uv=True):
            raise AssertionError(f"an SVD of a {A.shape} matrix ran")

        monkeypatch.setattr(linalg, "_raw_svd", no_svd)
        J, nuclear, kept = linalg.svt_with_nuclear(M, 1.5)
        assert kept.shape == (40, 2)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 1.5)
        assert np.abs(J - J_ref).max() <= 1e-12 * 3.0
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12 * 3.0)

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30)])
    def test_residual_check_falls_back_to_full_svd(self, shape, monkeypatch):
        # eigh hands back a basis rotated by ~1e-6: the triplets taken from
        # it fail the residual check, and one full SVD of N answers
        rng = np.random.default_rng(53)
        M = rand(shape, 59)
        theta = 0.5 * np.linalg.norm(M, 2)
        real_eigh = np.linalg.eigh

        def perturbed_eigh(G):
            w, B = real_eigh(G)
            return w, np.linalg.qr(B + 1e-6 * rng.standard_normal(B.shape))[0]

        shapes = []
        real_svd = linalg._raw_svd

        def recorded_svd(A, compute_uv=True):
            shapes.append(A.shape)
            return real_svd(A, compute_uv)

        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        monkeypatch.setattr(linalg, "_raw_svd", recorded_svd)
        J, nuclear, _ = linalg.svt_with_nuclear(M, theta)
        assert shapes == [(30, 12)]
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, theta)
        smax = np.linalg.norm(M, 2)
        assert np.abs(J - J_ref).max() <= 1e-12 * smax
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12 * smax)

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30)])
    def test_eigenvalue_near_theta_squared_falls_back_to_full_svd(self, shape, monkeypatch):
        # sigma = (1, 2e-8), theta = 1e-8: eigh may return sigma_2^2 = 4e-16
        # on either side of theta^2, within its backward error; on the low
        # side the value cannot be dropped unchecked, and one full SVD of N
        # answers
        rng = np.random.default_rng(97)
        U = np.linalg.qr(rng.standard_normal((shape[0], 2)))[0]
        V = np.linalg.qr(rng.standard_normal((shape[1], 2)))[0]
        M = (U * [1.0, 2e-8]) @ V.T
        real_eigh = np.linalg.eigh

        def rounded_eigh(G):
            w, B = real_eigh(G)
            return np.where(w < 1e-12 * w[-1], -np.abs(w), w), B

        shapes = []
        real_svd = linalg._raw_svd

        def recorded_svd(A, compute_uv=True):
            shapes.append(A.shape)
            return real_svd(A, compute_uv)

        monkeypatch.setattr(np.linalg, "eigh", rounded_eigh)
        monkeypatch.setattr(linalg, "_raw_svd", recorded_svd)
        J, nuclear, _ = linalg.svt_with_nuclear(M, 1e-8)
        assert shapes == [(30, 12)]
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 1e-8)
        assert np.abs(J - J_ref).max() <= 1e-12
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12)

    def test_overflowing_frobenius_norm_still_thresholds(self):
        # entries of 1e160 are finite but ||M||_F overflows when computed
        # directly; scaled by the largest entry first, it does not
        M = rand((5, 3), 67) * 1e160
        with np.errstate(over="ignore"):
            assert np.linalg.norm(M) == np.inf
        smax = np.linalg.norm(M, 2)
        J, nuclear, _ = linalg.svt_with_nuclear(M, 0.5 * smax)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 0.5 * smax)
        assert np.abs(J - J_ref).max() <= 1e-12 * smax
        assert nuclear == pytest.approx(nuclear_ref, rel=1e-12)

    def test_underflowing_frobenius_norm_still_thresholds(self):
        # the squares of 3e-170 and 1e-170 underflow to 0, so a Frobenius
        # norm taken directly reads 0 and the zero certificate would fire
        M = np.diag([3e-170, 1e-170])
        J, nuclear, _ = linalg.svt_with_nuclear(M, 0.0)
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
        J, nuclear, V = linalg.svt_with_nuclear(M, theta)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, theta)
        assert J.shape == M.shape
        assert np.abs(J - J_ref).max() <= 1e-12 * smax
        assert abs(nuclear - nuclear_ref) <= 1e-12 * smax
        J2, nuclear2, _ = linalg.svt_with_nuclear(M, theta)
        assert np.array_equal(J, J2) and nuclear == nuclear2
        # handing back the kept basis, as the solver does, changes nothing
        J3, nuclear3, V3 = linalg.svt_with_nuclear(M, theta, V)
        assert np.abs(J3 - J_ref).max() <= 1e-12 * smax
        assert abs(nuclear3 - nuclear_ref) <= 1e-12 * smax
        J4, nuclear4, V4 = linalg.svt_with_nuclear(M, theta, V)
        assert np.array_equal(J3, J4) and nuclear3 == nuclear4 and np.array_equal(V3, V4)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(svt_basis_cases())
    def test_any_basis_matches_full_svd_threshold(self, case):
        # a basis only picks the path: a bad one may cost time, never accuracy
        M, theta, basis = case
        smax = np.linalg.norm(M, 2)
        J, nuclear, V = linalg.svt_with_nuclear(M, theta, basis)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, theta)
        assert J.shape == M.shape and V.shape[0] == min(M.shape)
        assert np.abs(J - J_ref).max() <= 1e-12 * smax
        assert abs(nuclear - nuclear_ref) <= 1e-12 * smax
        J2, nuclear2, V2 = linalg.svt_with_nuclear(M, theta, basis)
        assert np.array_equal(J, J2) and nuclear == nuclear2 and np.array_equal(V, V2)

    @pytest.mark.parametrize("shape", [(90, 60), (60, 90)])
    @pytest.mark.parametrize("cholesky_fails", [False, True])
    def test_warm_basis_certified_without_eigh_or_falls_back(self, shape, cholesky_fails,
                                                            monkeypatch):
        # rank 4 over a 1e-3 tail, theta in the gap: from the kept basis the
        # certificate answers with no 60x60 eigh, unless Cholesky fails
        rng = np.random.default_rng(73)
        U = np.linalg.qr(rng.standard_normal((90, 60)))[0]
        V = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        s = np.concatenate([[4.0, 3.0, 2.0, 1.5], 1e-3 * rng.uniform(0.0, 1.0, 56)])
        N = (U * s) @ V.T
        M = N if shape == (90, 60) else N.T
        shapes = []
        real_eigh = np.linalg.eigh

        def recorded_eigh(G):
            shapes.append(G.shape)
            return real_eigh(G)

        def no_cholesky(A):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        if cholesky_fails:
            monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        J, nuclear, kept = linalg.svt_with_nuclear(M, 1.0, V[:, :4])
        assert ((60, 60) in shapes) == cholesky_fails
        assert kept.shape == (60, 4)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 1.0)
        assert np.abs(J - J_ref).max() <= 1e-12 * 4.0
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12 * 4.0)

    def test_unconverged_warm_block_falls_back(self, monkeypatch):
        # sigma_1 = 1 over a tail in [0.99, 0.999] with theta = 0.9995: from a
        # stale basis the 30 steps gain almost nothing, so the block fails the
        # residual check (the tail certificate alone would accept it), and
        # eigh answers
        rng = np.random.default_rng(83)
        U = np.linalg.qr(rng.standard_normal((80, 60)))[0]
        V = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        s = np.concatenate([[1.0], np.sort(rng.uniform(0.99, 0.999, 59))[::-1]])
        M = (U * s) @ V.T
        stale = V[:, :1] + 1e-3 * rng.standard_normal((60, 1))
        shapes = []
        real_eigh = np.linalg.eigh

        def recorded_eigh(G):
            shapes.append(G.shape)
            return real_eigh(G)

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        J, nuclear, _ = linalg.svt_with_nuclear(M, 0.9995, stale / np.linalg.norm(stale))
        assert (60, 60) in shapes
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 0.9995)
        assert np.abs(J - J_ref).max() <= 1e-12
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12)

    def test_saturated_block_falls_back_after_one_check(self, monkeypatch):
        # 20 singular values in [2, 4] over a 1e-3 tail with theta = 1, and a
        # basis of the leading 4: every Ritz value of the 12-column block
        # exceeds theta^2, so the block cannot show where the kept values
        # end; one block check, then the 100x100 eigh answers
        rng = np.random.default_rng(89)
        U = np.linalg.qr(rng.standard_normal((120, 100)))[0]
        V = np.linalg.qr(rng.standard_normal((100, 100)))[0]
        s = np.concatenate([np.linspace(4.0, 2.0, 20), 1e-3 * rng.uniform(0.0, 1.0, 80)])
        M = (U * s) @ V.T
        shapes = []
        real_eigh = np.linalg.eigh

        def recorded_eigh(G):
            shapes.append(G.shape)
            return real_eigh(G)

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        J, nuclear, kept = linalg.svt_with_nuclear(M, 1.0, V[:, :4])
        assert shapes == [(12, 12), (100, 100)]
        assert kept.shape == (100, 20)
        J_ref, nuclear_ref = oracles.svt_by_full_svd(M, 1.0)
        assert np.abs(J - J_ref).max() <= 1e-12 * 4.0
        assert nuclear == pytest.approx(nuclear_ref, abs=1e-12 * 4.0)

    def test_cholesky_certifies_zero_without_eigh(self, monkeypatch):
        # sigma_max = 1 < theta = 1.5 < ||I_40||_F: with no basis the
        # candidate is zero, and the Cholesky certificate proves it
        def no_eigh(G):
            raise AssertionError("eigh ran though the zero candidate is certified")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        J, nuclear, V = linalg.svt_with_nuclear(np.eye(40), 1.5)
        assert J.shape == (40, 40) and not J.any()
        assert nuclear == 0.0 and V.shape == (40, 0)

    def test_malformed_basis_rejected(self):
        with pytest.raises(ValueError, match="basis has 5 rows"):
            linalg.svt_with_nuclear(rand((8, 6), 79), 0.5, np.eye(5))
        with pytest.raises(ValueError, match="non-finite"):
            linalg.svt_with_nuclear(rand((8, 6), 79), 0.5, np.full((6, 1), np.nan))


class TestColumnShrink:
    @pytest.mark.parametrize("alpha", [-0.1, np.nan])
    def test_negative_or_nan_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            linalg.column_shrink(rand((3, 4), 7), alpha)

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

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(shrink_cases())
    def test_prox_optimality(self, case):
        # Q - W lies in alpha * subdifferential of ||W||_{2,1}: alpha w/||w||
        # on a nonzero column, a vector of norm <= alpha on a zero one
        Q, alpha = case
        W = linalg.column_shrink(Q, alpha)
        tol = 1e-12 * (np.abs(Q).max() + alpha)
        for q, w in zip(Q.T, W.T):
            wn = np.linalg.norm(w)
            if wn > 0:
                np.testing.assert_allclose(q - w, alpha * w / wn, rtol=0, atol=tol)
            else:
                assert np.linalg.norm(q) <= alpha + tol
        W2, norms = linalg._column_shrink(Q, alpha)
        assert np.array_equal(W, W2)
        np.testing.assert_allclose(norms, np.linalg.norm(W, axis=0), rtol=1e-12, atol=0)

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
    @pytest.mark.parametrize("alpha", [-0.1, np.nan])
    def test_negative_or_nan_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            linalg.entry_shrink(rand((3, 4), 7), alpha)

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


    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(shrink_cases())
    def test_prox_optimality(self, case):
        # Q - W lies in alpha * subdifferential of ||W||_1: alpha sign(w)
        # where w != 0, a value in [-alpha, alpha] where w = 0
        Q, alpha = case
        W = linalg.entry_shrink(Q, alpha)
        tol = 1e-12 * (np.abs(Q).max() + alpha)
        nz = W != 0
        assert (np.sign(W[nz]) == np.sign(Q[nz])).all()
        np.testing.assert_allclose((Q - W)[nz], alpha * np.sign(W[nz]), rtol=0, atol=tol)
        assert (np.abs(Q[~nz]) <= alpha + tol).all()


def row_space_projector(A):
    """``V V^T`` for the row-space basis ``V`` of the solver's frame."""
    V = solver.reduce_dictionary(A).V
    return V @ V.T


class TestRowSpaceProjector:
    def test_orthonormal_rows(self):
        A = np.linalg.qr(rand((7, 3), 37))[0].T  # 3x7 with orthonormal rows
        np.testing.assert_allclose(row_space_projector(A), A.T @ A, atol=1e-10)

    def test_full_row_rank_square(self):
        A = rand((4, 4), 41)
        np.testing.assert_allclose(row_space_projector(A), np.eye(4), atol=1e-10)

    def test_projector_axioms(self):
        A = rand((3, 7), 43)
        P = row_space_projector(A)
        np.testing.assert_allclose(P @ P, P, atol=1e-8)
        np.testing.assert_allclose(P.T, P, atol=1e-12)
        np.testing.assert_allclose(P @ A.T, A.T, atol=1e-8)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            row_space_projector(np.zeros((2, 3)))
