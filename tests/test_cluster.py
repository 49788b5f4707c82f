import numpy as np
import pytest

from lrr import cluster, metrics, solver, synth

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
        aff = cluster.build_affinity(np.eye(4))
        np.testing.assert_allclose(aff.W, np.eye(4), atol=1e-12)
        assert not aff.degenerate

    def test_clean_projector_block_diagonal(self):
        ens = synth.gen_ensemble(3, 2, 30, mode="independent", seed=1)
        ds = synth.sample(ens, 6, seed=2)
        Z = ds.V0 @ ds.V0.T
        W = cluster.build_affinity(Z).W
        off = W[ds.true_labels[:, None] != ds.true_labels[None, :]]
        assert np.linalg.norm(off) < 1e-8 * np.linalg.norm(W)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_input_structure(self, seed):
        Z = rand((8, 8), seed)
        aff = cluster.build_affinity(Z)
        W = aff.W
        assert np.array_equal(W, W.T)  # exactly symmetric
        assert (W >= 0).all() and (W <= 1 + 1e-12).all()
        np.testing.assert_allclose(np.diag(W), np.ones(8), atol=1e-10)

    def test_zero_input_degenerate(self):
        aff = cluster.build_affinity(np.zeros((5, 5)))
        assert aff.degenerate
        assert not aff.W.any()
        assert aff.W.shape == (5, 5)

    def test_rectangular_representation(self):
        # dictionary-sized Z (n_A x n): affinity over the n_A rows
        Z = rand((4, 9), 5)
        assert cluster.build_affinity(Z).W.shape == (4, 4)


class TestLaplacianSpectrum:
    def test_identity_affinity_all_zero(self):
        spec = cluster.laplacian_spectrum(np.eye(5))
        np.testing.assert_allclose(spec.sigma, np.zeros(5), atol=1e-12)

    def test_two_blocks_two_zeros(self):
        spec = cluster.laplacian_spectrum(block_affinity(4, 4))
        assert (spec.sigma < 1e-8).sum() == 2
        np.testing.assert_allclose(
            spec.sigma, oracles.laplacian_spectrum_oracle(block_affinity(4, 4)),
            atol=1e-10,
        )

    def test_complete_graph_one_zero(self):
        spec = cluster.laplacian_spectrum(np.ones((4, 4)))
        assert (spec.sigma < 1e-8).sum() == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_range_and_order(self, seed):
        W = cluster.build_affinity(rand((10, 10), seed)).W
        spec = cluster.laplacian_spectrum(W)
        assert (spec.sigma >= 0).all()
        assert (spec.sigma <= 2 + 1e-8).all()
        assert (np.diff(spec.sigma) >= 0).all()

    def test_component_count_matches_zero_count(self):
        for sizes in [(3,), (3, 5), (2, 2, 6)]:
            spec = cluster.laplacian_spectrum(block_affinity(*sizes))
            assert (spec.sigma < 1e-8).sum() == len(sizes)

    def test_isolated_node_convention(self):
        W = block_affinity(3, 1)
        W[3, 3] = 0.0  # node 3 fully disconnected, zero degree
        spec = cluster.laplacian_spectrum(W)
        assert np.isfinite(spec.sigma).all()


class TestEstimateK:
    def test_zeros_plus_large_values(self):
        sigma = np.sort(np.concatenate([np.zeros(3), np.full(7, 0.5)]))
        assert cluster.estimate_k(cluster.LaplacianSpectrum(sigma)) == 3

    def test_all_above_tau_clamps_to_one(self):
        sigma = np.full(6, 0.9)
        assert cluster.estimate_k(cluster.LaplacianSpectrum(sigma)) == 1

    def test_three_blocks_via_eigensolver_oracle(self):
        W = block_affinity(5, 5, 6)
        sigma = oracles.laplacian_spectrum_oracle(W)
        assert cluster.estimate_k(cluster.LaplacianSpectrum(sigma), 0.08) == 3
        assert cluster.estimate_k(cluster.laplacian_spectrum(W), 0.08) == 3

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        sigma = np.sort(rng.uniform(0, 1, size=12))
        k1 = cluster.estimate_k(cluster.LaplacianSpectrum(sigma))
        k2 = cluster.estimate_k(rng.permutation(sigma))
        assert k1 == k2

    def test_tau_range(self):
        with pytest.raises(ValueError):
            cluster.estimate_k(cluster.LaplacianSpectrum(np.zeros(3)), tau=1.0)


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


@pytest.fixture(scope="module")
def clean3():
    ens = synth.gen_ensemble(3, 2, 30, mode="independent", seed=21)
    return synth.sample(ens, 8, seed=22)


class TestSegmentPipeline:
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
        res = cluster.segment(ds.X, 3, "l21", solver.SolverOptions(lam=0.4), delta=0.3)
        assert res.outliers is not None
        assert np.array_equal(res.outliers, ds.outlier_indices)

    def test_diagnostics_recorded(self, clean3):
        res = cluster.segment(clean3.X, 3, "l21", solver.SolverOptions(lam=1e3))
        assert res.solution is not None and res.solution.converged
        assert res.affinity is not None and res.affinity.W.shape == (24, 24)
        assert res.spectrum is not None and res.spectrum.n == 24
        assert res.outliers is None  # no delta given
