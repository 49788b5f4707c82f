import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from lrr import linalg, recipes, synth


def dataset(seed=0, k=3, dim=2, ambient=30, per=5, mode="independent"):
    ens = synth.gen_ensemble(k, dim, ambient, mode=mode, seed=seed)
    return synth.sample(ens, per, seed=seed + 1)


def check_invariants(ds):
    assert np.array_equal(ds.X, ds.X0 + ds.E0)
    if ds.outlier_indices.size:
        assert not ds.X0[:, ds.outlier_indices].any()
    np.testing.assert_allclose(ds.V0.T @ ds.V0, np.eye(ds.V0.shape[1]), atol=1e-10)
    assert np.array_equal(np.flatnonzero(ds.true_labels < 0), ds.outlier_indices)


class TestGenEnsemble:
    def test_single_subspace(self):
        ens = synth.gen_ensemble(1, 3, 10, mode="independent", seed=0)
        B = ens.bases[0]
        np.testing.assert_allclose(B.T @ B, np.eye(3), atol=1e-10)

    def test_fig3_scale_disjoint(self):
        ens = synth.gen_ensemble(11, 20, 200, mode="disjoint", seed=0)
        assert ens.k == 11
        stacked = np.hstack(ens.bases)
        assert np.linalg.matrix_rank(stacked) == 200

    def test_determinism(self):
        a = synth.gen_ensemble(4, 3, 40, mode="disjoint", seed=7)
        b = synth.gen_ensemble(4, 3, 40, mode="disjoint", seed=7)
        for Ba, Bb in zip(a.bases, b.bases):
            assert np.array_equal(Ba, Bb)

    def test_independent_requires_room(self):
        with pytest.raises(ValueError):
            synth.gen_ensemble(5, 10, 40, mode="independent", seed=0)

    def test_disjoint_requires_pairwise_room(self):
        with pytest.raises(ValueError):
            synth.gen_ensemble(3, 30, 40, mode="disjoint", seed=0)

    def test_disjoint_principal_angles(self):
        ens = synth.gen_ensemble(6, 8, 64, mode="disjoint", seed=3)
        for i in range(ens.k):
            for j in range(i + 1, ens.k):
                # the largest cosine of the principal angles between the
                # two orthonormal bases
                cos = np.linalg.svd(ens.bases[i].T @ ens.bases[j], compute_uv=False)[0]
                assert np.arccos(min(cos, 1.0)) > 1e-3

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            synth.gen_ensemble(2, 2, 10, mode="orthogonal", seed=0)


class TestSample:
    def test_rank_bounded_by_subspace_dim(self):
        ens = synth.gen_ensemble(1, 2, 20, mode="independent", seed=1)
        ds = synth.sample(ens, 5, seed=2)
        assert np.linalg.matrix_rank(ds.X0) <= 2

    def test_fig4_scale(self):
        ens = synth.gen_ensemble(5, 4, 200, mode="disjoint", seed=1)
        ds = synth.sample(ens, 40, seed=2)
        assert ds.X0.shape == (200, 200)
        assert np.linalg.matrix_rank(ds.X0) <= 20

    def test_labels_partition_in_runs(self):
        ds = dataset(k=3, per=5)
        assert np.array_equal(ds.true_labels, np.repeat(np.arange(3), 5))

    def test_clean_dataset_invariants(self):
        ds = dataset()
        check_invariants(ds)
        assert not ds.E0.any()
        assert ds.outlier_indices.size == 0


class TestAddOutliers:
    def test_count_zero_identity(self):
        ds = dataset()
        assert synth.add_outliers(ds, 0) is ds

    def test_fig4_fraction(self):
        ens = synth.gen_ensemble(5, 4, 200, mode="disjoint", seed=1)
        ds = synth.add_outliers(synth.sample(ens, 40, seed=2), 50, 3.0, seed=3)
        assert ds.outlier_fraction == pytest.approx(50 / 250)
        check_invariants(ds)

    def test_magnitude_scaling(self):
        ds = synth.add_outliers(dataset(per=30), 200, 3.0, seed=5)
        auth_mean = np.linalg.norm(ds.X0[:, ds.authentic_indices()], axis=0).mean()
        out_mean = np.linalg.norm(ds.E0[:, ds.outlier_indices], axis=0).mean()
        assert out_mean == pytest.approx(3.0 * auth_mean, rel=0.15)

    def test_labels_and_appended_zero_columns(self):
        ds = synth.add_outliers(dataset(), 4, seed=6)
        assert (ds.true_labels[-4:] == -1).all()
        assert not ds.X0[:, -4:].any()
        check_invariants(ds)


class TestCorruptSamples:
    def test_fraction_zero_identity(self):
        ds = dataset()
        assert synth.corrupt_samples(ds, 0.0) is ds

    def test_fig5_count(self):
        ens = synth.gen_ensemble(5, 4, 200, mode="disjoint", seed=1)
        ds = synth.corrupt_samples(synth.sample(ens, 40, seed=2), 0.10, 0.7, seed=3)
        assert ds.corrupted_indices.size == 20
        check_invariants(ds)

    def test_disjoint_from_outliers(self):
        ds = synth.add_outliers(dataset(per=10), 5, seed=8)
        ds = synth.corrupt_samples(ds, 0.2, 0.7, seed=9)
        assert not set(ds.corrupted_indices) & set(ds.outlier_indices.tolist())
        supports = set(np.flatnonzero(np.linalg.norm(ds.E0, axis=0) > 0).tolist())
        assert supports == set(ds.corrupted_indices) | set(ds.outlier_indices.tolist())

    def test_corruption_magnitude(self):
        ds = dataset(per=40)
        out = synth.corrupt_samples(ds, 1.0, 0.7, seed=10)
        ratio = (np.linalg.norm(out.E0, axis=0) / np.linalg.norm(out.X0, axis=0)).mean()
        assert ratio == pytest.approx(0.7, rel=0.2)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            synth.corrupt_samples(dataset(), 1.5)


class TestAddNoise:
    def test_level_zero_identity(self):
        ds = dataset()
        assert synth.add_noise(ds, 0.0) is ds

    def test_noise_targets_authentic_uncorrupted_only(self):
        ds = synth.add_outliers(dataset(per=10), 5, seed=11)
        ds = synth.corrupt_samples(ds, 0.2, 0.7, seed=12)
        before = ds.E0.copy()
        noised = synth.add_noise(ds, 0.1, seed=13)
        delta = noised.E0 - before
        touched = np.flatnonzero(np.linalg.norm(delta, axis=0) > 0)
        expected = np.setdiff1d(ds.authentic_indices(), ds.corrupted_indices)
        assert np.array_equal(touched, expected)
        check_invariants(noised)

    def test_error_ratio_monotone_in_level(self):
        ds = dataset(per=20)
        ratios = [synth.add_noise(ds, lvl, seed=14).error_ratio
                  for lvl in (0.0, 0.1, 0.2, 0.4, 0.8)]
        assert ratios[0] == 0.0
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_determinism(self):
        ds = dataset()
        a = synth.add_noise(ds, 0.3, seed=15)
        b = synth.add_noise(ds, 0.3, seed=15)
        assert np.array_equal(a.X, b.X)


class TestNormalizeColumns:
    def test_unit_columns(self):
        ds = synth.add_outliers(dataset(), 3, seed=16)
        nds = synth.normalize_columns(ds)
        np.testing.assert_allclose(np.linalg.norm(nds.X, axis=0), np.ones(nds.n),
                                   atol=1e-12)
        check_invariants(nds)

    def test_scale_invariant_quantities(self):
        ds = synth.corrupt_samples(dataset(per=10), 0.3, 0.7, seed=17)
        nds = synth.normalize_columns(ds)
        # per-column error-to-signal ratios survive normalization
        r0 = np.linalg.norm(ds.E0, axis=0) / np.linalg.norm(ds.X, axis=0)
        r1 = np.linalg.norm(nds.E0, axis=0)
        np.testing.assert_allclose(r0, r1, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e-310])
    def test_unit_columns_at_tiny_scales(self, scale):
        # at 1e-310 the entries are subnormal and 1 / ||x|| overflows, so
        # each column is divided by its largest entry first
        ds = synth.add_outliers(dataset(), 3, seed=16)
        tiny = synth.SyntheticDataset(ds.X0 * scale, ds.E0 * scale, ds.true_labels,
                                      ds.corrupted_indices)
        nds = synth.normalize_columns(tiny)
        np.testing.assert_allclose(np.linalg.norm(nds.X, axis=0), 1.0, rtol=1e-14)
        check_invariants(nds)


def v0_with_path(X0):
    """``V0`` of a dataset with clean part ``X0``, the dense
    ``skinny_svd(X0).V``, and whether the sketch answered (no SVD of X0
    itself ran)."""
    n = X0.shape[1]
    empty = np.empty(0, dtype=int)
    ds = synth.SyntheticDataset(X0, np.zeros_like(X0), np.zeros(n, dtype=int), empty)
    shapes = []
    real = linalg.skinny_svd

    def recorded(M, rank_tol=None):
        shapes.append(M.shape)
        return real(M, rank_tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "skinny_svd", recorded)
        V0 = ds.V0
    return V0, linalg.skinny_svd(X0).V, X0.shape not in shapes


@st.composite
def clean_parts(draw):
    """``(X0, r)``: a d x n matrix of rank r with singular values in [1, 10]
    scaled by 10^-100..10^100, sides 65..140 so that a sketch of 64
    columns can run; r is 0 (zero X0), at most 48 (sketchable), or up to
    full rank, past the sketch width."""
    d = draw(st.integers(65, 140))
    n = draw(st.integers(65, 140))
    r = draw(st.one_of(st.just(0), st.integers(1, 48), st.integers(49, min(d, n))))
    scale = 10.0 ** draw(st.integers(-100, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.linalg.qr(rng.standard_normal((d, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return (U * rng.uniform(1.0, 10.0, r)) @ V.T * scale, r


class TestRowSpaceBasis:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("make", [recipes.make_fig3_dataset, recipes.make_fig4_dataset,
                                      recipes.make_fig5_dataset, recipes.make_fig6_dataset])
    def test_recipe_datasets_match_dense_projector(self, make, seed):
        # fig4-fig6 have rank 20 or 40 and take the sketch; fig3's 200x220
        # X0 has full rank 200, past the sketch, and takes the dense SVD
        X0 = make(seed).X0
        V0, dense, sketched = v0_with_path(X0)
        assert V0.shape == dense.shape
        assert np.abs(V0 @ V0.T - dense @ dense.T).max() <= 1e-12
        assert sketched == (make is not recipes.make_fig3_dataset)
        if not sketched:
            assert np.array_equal(V0, dense)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(clean_parts())
    def test_projector_and_rank_match_dense(self, case):
        X0, r = case
        V0, dense, sketched = v0_with_path(X0)
        assert V0.shape == dense.shape == (X0.shape[1], r)
        assert np.abs(V0 @ V0.T - dense @ dense.T).max() <= 1e-12
        if r == 0 or r > linalg._SKETCH_WIDTH - linalg._SKETCH_SPARE:
            # zero, saturated or full rank: the dense SVD answers
            assert not sketched and np.array_equal(V0, dense)
