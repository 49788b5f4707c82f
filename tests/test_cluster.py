import sys

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from lrr import cluster, metrics, recipes, solver, synth

import oracles


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def block_affinity(*sizes):
    """Block-diagonal all-ones affinity."""
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for m in sizes:
        W[start : start + m, start : start + m] = 1.0
        start += m
    return W


class TestBuildAffinity:
    def test_identity(self):
        W = cluster.build_affinity(np.eye(4))
        np.testing.assert_allclose(W, np.eye(4), atol=1e-12)
        assert W.any()

    def test_clean_projector_block_diagonal(self):
        ens = synth.gen_ensemble(3, 2, 30, mode="independent", seed=1)
        ds = synth.sample(ens, 6, seed=2)
        Z = ds.V0 @ ds.V0.T
        W = cluster.build_affinity(Z)
        off = W[ds.true_labels[:, None] != ds.true_labels[None, :]]
        assert np.linalg.norm(off) < 1e-8 * np.linalg.norm(W)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_input_structure(self, seed):
        Z = rand((8, 8), seed)
        W = cluster.build_affinity(Z)
        assert np.array_equal(W, W.T)  # exactly symmetric
        assert (W >= 0).all() and (W <= 1 + 1e-12).all()
        np.testing.assert_allclose(np.diag(W), np.ones(8), atol=1e-10)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 15), st.integers(1, 15), st.integers(0, 15),
                      st.integers(-100, 100), st.integers(0, 2**32 - 1))
    def test_symmetric_unit_range_over_generated_z(self, rows, cols, rank, exponent, seed):
        # Z of any shape and rank (0 gives the zero matrix), scaled by
        # 10^-100..10^100
        rng = np.random.default_rng(seed)
        rank = min(rank, rows, cols)
        Z = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        W = cluster.build_affinity(Z * 10.0 ** exponent)
        assert W.shape == (rows, rows)
        assert np.array_equal(W, W.T)
        assert (W >= 0).all() and (W <= 1 + 1e-12).all()

    def test_zero_input_degenerate(self):
        W = cluster.build_affinity(np.zeros((5, 5)))
        assert not W.any()
        assert W.shape == (5, 5)

    def test_rectangular_representation(self):
        # dictionary-sized Z (n_A x n): affinity over the n_A rows
        Z = rand((4, 9), 5)
        assert cluster.build_affinity(Z).shape == (4, 4)


class TestLaplacianSpectrum:
    def test_diagonal_plays_no_part(self):
        # W = I is a graph of isolated samples: every value is 1
        np.testing.assert_allclose(cluster.laplacian_spectrum(np.eye(5)), np.ones(5),
                                   atol=1e-12)
        W = cluster.build_affinity(rand((8, 8), 3))
        base = cluster.laplacian_spectrum(W)
        rng = np.random.default_rng(4)
        for diag in (np.zeros(8), np.ones(8), rng.uniform(0, 1, 8)):
            np.fill_diagonal(W, diag)
            np.testing.assert_allclose(cluster.laplacian_spectrum(W), base, atol=1e-12)
            np.testing.assert_allclose(oracles.laplacian_spectrum_oracle(W), base,
                                       atol=1e-12)

    def test_two_blocks_two_zeros(self):
        spec = cluster.laplacian_spectrum(block_affinity(4, 4))
        assert (spec < 1e-8).sum() == 2
        np.testing.assert_allclose(
            spec, oracles.laplacian_spectrum_oracle(block_affinity(4, 4)),
            atol=1e-10,
        )

    def test_complete_graph_one_zero(self):
        spec = cluster.laplacian_spectrum(np.ones((4, 4)))
        assert (spec < 1e-8).sum() == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_range_and_order(self, seed):
        W = cluster.build_affinity(rand((10, 10), seed))
        spec = cluster.laplacian_spectrum(W)
        assert (spec >= 0).all()
        assert (spec <= 2 + 1e-8).all()
        assert (np.diff(spec) >= 0).all()

    def test_component_count_matches_zero_count(self):
        for sizes in [(3,), (3, 5), (2, 2, 6)]:
            spec = cluster.laplacian_spectrum(block_affinity(*sizes))
            assert (spec < 1e-8).sum() == len(sizes)

    def test_isolated_node_convention(self):
        W = block_affinity(3, 1)
        W[3, 3] = 0.0  # node 3 fully disconnected, zero degree
        spec = cluster.laplacian_spectrum(W)
        assert np.isfinite(spec).all()


class TestEstimateK:
    def test_zeros_plus_large_values(self):
        sigma = np.sort(np.concatenate([np.zeros(3), np.full(7, 0.5)]))
        assert cluster.estimate_k(sigma) == 3

    def test_all_above_tau_clamps_to_one(self):
        sigma = np.full(6, 0.9)
        assert cluster.estimate_k(sigma) == 1

    def test_three_blocks_via_eigensolver_oracle(self):
        W = block_affinity(5, 5, 6)
        sigma = oracles.laplacian_spectrum_oracle(W)
        assert cluster.estimate_k(sigma, 0.08) == 3
        assert cluster.estimate_k(cluster.laplacian_spectrum(W), 0.08) == 3

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        sigma = np.sort(rng.uniform(0, 1, size=12))
        k1 = cluster.estimate_k(sigma)
        k2 = cluster.estimate_k(rng.permutation(sigma))
        assert k1 == k2

    def test_tau_range(self):
        with pytest.raises(ValueError):
            cluster.estimate_k(np.zeros(3), tau=1.0)


class TestNcutSegment:
    def test_k_one(self):
        labels = cluster.ncut_segment(np.ones((6, 6)), 1)
        assert np.array_equal(labels, np.zeros(6, dtype=int))

    def test_two_disconnected_blocks(self):
        W = block_affinity(5, 7)
        labels = cluster.ncut_segment(W, 2, seed=0)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            cluster.ncut_segment(np.ones((4, 4)), 5)

    def test_k_not_an_integer(self):
        W = block_affinity(5, 7)
        with pytest.raises(ValueError, match="integer"):
            cluster.ncut_segment(W, 2.5)
        assert np.array_equal(cluster.ncut_segment(W, np.int64(2), seed=0),
                              cluster.ncut_segment(W, 2, seed=0))

    def test_label_permutation_covariance_across_seeds(self):
        W = block_affinity(6, 6, 6)
        base = cluster.ncut_segment(W, 3, seed=0)
        for seed in (1, 2, 3):
            other = cluster.ncut_segment(W, 3, seed=seed)
            assert metrics.segmentation_accuracy(other, base) == 1.0

    @pytest.mark.parametrize("sizes", [(4, 4), (3, 3, 3, 3)])
    def test_ids_numbered_by_first_appearance(self, sizes):
        labels = cluster.ncut_segment(block_affinity(*sizes), len(sizes), seed=0)
        assert np.array_equal(labels, np.repeat(np.arange(len(sizes)), sizes))

    def test_isolated_nodes_get_last_label(self):
        W = block_affinity(4, 4, 1)
        W[8, 8] = 0.0  # disconnected, zero degree
        labels = cluster.ncut_segment(W, 3, seed=0)
        assert labels[8] == 2


def same_partition(a, b):
    """True iff two labelings group the samples alike, whatever their ids."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@st.composite
def embeddings(draw):
    """A cluster count k from 2 to 12 and n x k unit rows (k <= n <= 300),
    as ncut_segment embeds: Gaussian, or near k directions, or repeating a
    few distinct rows (1 to 3k of them)."""
    k = draw(st.integers(2, 12))
    n = draw(st.integers(k, 300))
    kind = draw(st.sampled_from(["gaussian", "clustered", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        points = rng.standard_normal((n, k))
    elif kind == "clustered":
        points = np.eye(k)[rng.integers(0, k, n)] + 0.3 * rng.standard_normal((n, k))
    else:
        distinct = draw(st.integers(1, 3 * k))
        points = rng.standard_normal((distinct, k))[rng.integers(0, distinct, n)]
    return points / np.linalg.norm(points, axis=1, keepdims=True), k


class TestKmeans:
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(embeddings(), st.integers(0, 2**32 - 1))
    def test_batched_restarts_partition_as_one_at_a_time(self, case, seed):
        points, k = case
        labels = cluster._kmeans(points, k, np.random.default_rng(seed))
        expected = oracles.kmeans_per_restart(points, k, np.random.default_rng(seed))
        assert same_partition(labels, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_first_restart_wins_a_tie(self, seed):
        # the corners of a square, cut in two: restarts end in partitions of
        # bit-equal cost that differ, and the first of them is kept
        points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        labels = cluster._kmeans(points, 2, np.random.default_rng(seed))
        expected = oracles.kmeans_per_restart(points, 2, np.random.default_rng(seed))
        assert same_partition(labels, expected)

    def test_duplicate_rows_force_the_empty_cluster_repair(self, monkeypatch):
        # six distinct unit rows, each twice, cut into seven clusters: the
        # seventh farthest-point centre repeats an earlier one, so its
        # cluster is empty and the repair moves a point into it
        rows = np.random.default_rng(7).standard_normal((6, 7))
        points = np.repeat(rows / np.linalg.norm(rows, axis=1, keepdims=True), 2, axis=0)
        refills = []
        real = cluster._refill_empty

        def counting(*args):
            refills.append(args)
            return real(*args)

        monkeypatch.setattr(cluster, "_refill_empty", counting)
        labels = cluster._kmeans(points, 7, np.random.default_rng(0))
        assert refills
        assert np.array_equal(np.unique(labels), np.arange(7))
        expected = oracles.kmeans_per_restart(points, 7, np.random.default_rng(0))
        assert same_partition(labels, expected)


class TestDetectOutliers:
    def test_zero_error_empty(self):
        assert cluster.detect_outliers(np.zeros((4, 6)), 0.5).size == 0

    def test_exact_columns(self):
        E = np.zeros((3, 9))
        E[0, 2] = 1.0
        E[1, 7] = 1.0
        assert np.array_equal(cluster.detect_outliers(E, 0.5), [2, 7])

    def test_monotone_in_delta(self):
        E = rand((5, 12), 13)
        d1, d2 = 0.4, 1.1
        out1 = set(cluster.detect_outliers(E, d1).tolist())
        out2 = set(cluster.detect_outliers(E, d2).tolist())
        assert out2 <= out1

    def test_delta_positive_required(self):
        with pytest.raises(ValueError):
            cluster.detect_outliers(np.ones((2, 2)), 0.0)


def spy_cluster_eigen_calls(monkeypatch):
    """The list that records the name and input shape of every
    ``np.linalg.eigh``/``eigvalsh`` call made from ``lrr.cluster``."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, _name=name, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == cluster.__name__:
                calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def assert_one_graph(res):
    """The spectrum and the labels of a segment result (default tau, seed
    0) are those of the public stages run on its affinity."""
    spectrum = cluster.laplacian_spectrum(res.affinity)
    np.testing.assert_allclose(res.spectrum, spectrum, rtol=0, atol=1e-12)
    assert cluster.estimate_k(spectrum) == res.k_hat
    assert np.array_equal(res.labels, cluster.ncut_segment(res.affinity, res.k, 0))


@pytest.fixture(scope="module")
def clean3():
    ens = synth.gen_ensemble(3, 2, 30, mode="independent", seed=21)
    return synth.sample(ens, 8, seed=22)


class TestSegmentPipeline:
    def test_non_integer_k_rejected_before_solving(self, clean3, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before checking k")

        monkeypatch.setattr(cluster, "solve_lrr_self", no_solve)
        with pytest.raises(ValueError, match="integer"):
            cluster.segment(clean3.X, 2.5)

    def test_clean_three_subspaces_exact(self, clean3):
        res = cluster.segment(clean3.X, 3, "l21", solver.SolverOptions(lam=1e3))
        assert metrics.segmentation_accuracy(res.labels, clean3.true_labels) == 1.0
        assert res.k == 3

    def test_auto_k(self, clean3):
        res = cluster.segment(clean3.X, "auto", "l21", solver.SolverOptions(lam=1e3),
                              tau=0.08)
        assert res.k_hat == 3
        assert res.k == 3
        assert metrics.segmentation_accuracy(res.labels, clean3.true_labels) == 1.0

    def test_outlier_detection_in_pipeline(self, clean3):
        ds = synth.add_outliers(clean3, 4, magnitude_scale=3.0, seed=23)
        ds = synth.normalize_columns(ds)
        res = cluster.segment(ds.X, 3, "l21", solver.SolverOptions(lam=0.4))
        assert np.array_equal(cluster.detect_outliers(res.solution.E, 0.3),
                              ds.outlier_indices)

    def test_spectrum_and_cut_share_one_eigendecomposition(self, clean3, monkeypatch):
        calls = spy_cluster_eigen_calls(monkeypatch)
        res = cluster.segment(clean3.X, "auto", "l21", solver.SolverOptions(lam=1e3))
        assert calls == [("eigh", (24, 24))]
        assert_one_graph(res)
        calls.clear()
        cluster.laplacian_spectrum(res.affinity)
        cluster.ncut_segment(res.affinity, 1)
        assert calls == [("eigvalsh", (24, 24))]

    def test_diagnostics_recorded(self, clean3):
        res = cluster.segment(clean3.X, 3, "l21", solver.SolverOptions(lam=1e3))
        assert res.solution is not None and res.solution.converged
        assert res.affinity is not None and res.affinity.shape == (24, 24)
        assert res.spectrum is not None and res.spectrum.size == 24
        assert not hasattr(res, "outliers")  # a step of its own
        assert cluster.detect_outliers(res.solution.E, 0.3).size == 0


@pytest.fixture(scope="module")
def fig4_segmentation():
    # fig4 seed 0: 5 rank-4 subspaces of R^200 and 50 outliers, which the
    # lambda = 0.25 solve moves into E; their rows of Z are roundoff
    ds = recipes.make_fig4_dataset(0)
    return ds, cluster.segment(ds.X, "auto", "l21", solver.SolverOptions(lam=0.25))


class TestOutlierAffinity:
    def test_outlier_rows_are_zero(self, fig4_segmentation):
        ds, res = fig4_segmentation
        W = res.affinity
        assert not W[ds.outlier_indices].any() and not W[:, ds.outlier_indices].any()
        assert W[ds.authentic_indices()].any(axis=1).all()

    def test_affinity_permutes(self, fig4_segmentation):
        # the outliers' rows of Z are roundoff; scaled to unit length they
        # would give affinities of up to 0.48 that a permutation moves by 7e-4
        _, res = fig4_segmentation
        P = np.random.default_rng(0).permutation(res.affinity.shape[0])
        W = cluster.build_affinity(res.solution.Z[P][:, P])
        assert np.abs(W - res.affinity[P][:, P]).max() <= 1e-10

    def test_auto_k_finds_the_subspaces(self, fig4_segmentation):
        ds, res = fig4_segmentation
        auth = ds.authentic_indices()
        assert res.k_hat == 5
        assert metrics.segmentation_accuracy(res.labels[auth], ds.true_labels[auth]) == 1.0

    def test_spectrum_and_cut_from_one_graph(self, fig4_segmentation):
        assert_one_graph(fig4_segmentation[1])
