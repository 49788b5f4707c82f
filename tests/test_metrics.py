import timeit

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from lrr import metrics
from lrr.errors import UndefinedMetricError

import oracles


class TestSegmentationAccuracy:
    def test_identical_labels(self):
        t = np.array([0, 0, 1, 1, 2, 2])
        for strategy in ("global", "local"):
            assert metrics.segmentation_accuracy(t, t, strategy) == 1.0

    def test_swapped_labels(self):
        t = np.array([0, 0, 1, 1])
        p = np.array([1, 1, 0, 0])
        assert metrics.segmentation_accuracy(p, t) == 1.0

    def test_split_cluster_vs_exhaustive_oracle(self):
        # k=3, 12 samples, one cluster split 2/2 across classes
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        pred = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 1, 1])
        expected = oracles.accuracy_by_exhaustive_maps(pred, truth)
        assert metrics.segmentation_accuracy(pred, truth, "global") == pytest.approx(expected)
        local = metrics.segmentation_accuracy(pred, truth, "local")
        assert local <= expected + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_random_labelings_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(6, 16))
        kp = int(rng.integers(2, 5))
        kt = int(rng.integers(2, 5))
        pred = rng.integers(0, kp, size=m)
        truth = rng.integers(0, kt, size=m)
        expected = oracles.accuracy_by_exhaustive_maps(pred, truth)
        assert metrics.segmentation_accuracy(pred, truth, "global") == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_local_at_least_global(self, seed):
        # local takes each cluster's best class without the injectivity
        # constraint, so it can never score below the injective global search
        rng = np.random.default_rng(100 + seed)
        pred = rng.integers(0, 4, size=24)
        truth = rng.integers(0, 4, size=24)
        g = metrics.segmentation_accuracy(pred, truth, "global")
        l = metrics.segmentation_accuracy(pred, truth, "local")
        assert l >= g - 1e-12

    def test_default_is_one_to_one_at_twelve_clusters(self):
        # 12 clusters on 11 classes of 6, the last class split 3/3: only one
        # half can claim it, which majority matching ignores
        truth = np.repeat(np.arange(11), 6)
        pred = truth.copy()
        pred[-3:] = 11
        default = metrics.segmentation_accuracy(pred, truth)
        assert default == oracles.accuracy_by_bipartite_matching(pred, truth) == 63 / 66
        assert default < metrics.segmentation_accuracy(pred, truth, "local") == 1.0

    def test_default_counts_clusters_not_ids(self):
        # two clusters either way: the default matches one-to-one, so only
        # one of them can take the single class, whatever id names the second
        truth = np.array([0, 0, 0, 0])
        for pred in ([0, 0, 1, 1], [0, 0, 9, 9]):
            assert metrics.segmentation_accuracy(np.array(pred), truth) == 0.5

    def test_global_few_clusters_many_classes(self):
        # 7 clusters against 12 classes: 12!/5! injections to enumerate
        truth = np.repeat(np.arange(12), 10)
        pred = truth % 7
        assert metrics.segmentation_accuracy(pred, truth) == pytest.approx(70 / 120)

    @pytest.mark.parametrize("strategy", metrics.STRATEGIES)
    def test_huge_ids_give_compact_accuracy(self, strategy):
        pred = np.array([0, 0, 1, 1, 2, 2, 2, 0])
        truth = np.array([1, 1, 0, 0, 2, 2, 0, 0])
        expected = metrics.segmentation_accuracy(pred, truth, strategy)
        shift = 10**12
        assert metrics.segmentation_accuracy(pred, truth + shift, strategy) == expected
        assert metrics.segmentation_accuracy(pred + shift, truth + shift, strategy) == expected

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def test_gapped_ids_match_oracle_on_compact_ids(self, data):
        # compact ids 0..3 on each side, renamed through injective maps into
        # [0, 10^12]; the oracle sees the compact ids
        m = data.draw(st.integers(1, 12))
        compact = st.lists(st.integers(0, 3), min_size=m, max_size=m)
        pred, truth = np.array(data.draw(compact)), np.array(data.draw(compact))
        ids = st.lists(st.integers(0, 10**12), min_size=4, max_size=4, unique=True)
        pred_ids, truth_ids = np.array(data.draw(ids)), np.array(data.draw(ids))
        expected = oracles.accuracy_by_exhaustive_maps(pred, truth)
        got = metrics.segmentation_accuracy(pred_ids[pred], truth_ids[truth], "global")
        assert got == pytest.approx(expected)
        assert metrics.segmentation_accuracy(pred_ids[pred], truth_ids[truth], "local") \
            == metrics.segmentation_accuracy(pred, truth, "local")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 15), st.integers(1, 300), st.booleans(),
                      st.sampled_from(["uniform", "blocks"]), st.integers(0, 3),
                      st.sampled_from([1, 7, 10**9]), st.integers(0, 2**32 - 1))
    # near-uniform counts of up to 200 ids a side, about 10 or 1 samples per
    # (cluster, class) pair: most rows' best column is taken, and the
    # matching needs many augmenting paths
    @hypothesis.example(k=200, n=200, tall=False, mix="uniform", extra=1999, gap=1, seed=0)
    @hypothesis.example(k=200, n=200, tall=False, mix="uniform", extra=199, gap=7, seed=1)
    @hypothesis.example(k=150, n=200, tall=True, mix="uniform", extra=149, gap=1, seed=2)
    @hypothesis.example(k=100, n=100, tall=False, mix="uniform", extra=99, gap=10**9, seed=3)
    @hypothesis.example(k=200, n=120, tall=False, mix="blocks", extra=99, gap=1, seed=4)
    def test_global_equals_bipartite_matching_oracle(self, k, n, tall, mix, extra, gap,
                                                      seed):
        # k clusters against n classes (n clusters against k classes when
        # tall), every id in use, renamed into gapped ids (up to 3e11). Few
        # samples per id give many equal counts; "blocks" sends each cluster
        # to one class, several clusters to the same one, which ties the
        # choice among them, and scatters a few samples.
        rng = np.random.default_rng(seed)
        m = max(k, n) * (1 + extra)
        pred = rng.permutation(np.resize(np.arange(k), m))
        if mix == "uniform":
            truth = rng.permutation(np.resize(np.arange(n), m))
        else:
            truth = rng.integers(0, n, size=k)[pred]
            scatter = rng.random(m) < 0.2
            truth[scatter] = rng.integers(0, n, size=int(scatter.sum()))
            truth[rng.permutation(m)[:n]] = np.arange(n)
        if tall:
            pred, truth = truth, pred
        pred = rng.permutation(np.cumsum(rng.integers(1, gap + 1, size=pred.max() + 1)))[pred]
        truth = np.cumsum(rng.integers(1, gap + 1, size=truth.max() + 1))[truth]
        expected = oracles.accuracy_by_bipartite_matching(pred, truth)
        assert metrics.segmentation_accuracy(pred, truth, "global") == expected

    def test_global_matches_9x500_counts_quickly(self):
        rng = np.random.default_rng(0)
        pred, truth = rng.integers(0, 9, size=5000), rng.integers(0, 500, size=5000)
        # the best of five calls, so that a busy host does not decide it
        assert min(timeit.repeat(lambda: metrics.segmentation_accuracy(pred, truth, "global"),
                                 number=1, repeat=5)) < 0.02
        assert metrics.segmentation_accuracy(pred, truth, "global") \
            == oracles.accuracy_by_bipartite_matching(pred, truth)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.segmentation_accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.segmentation_accuracy([0, 1], [0])

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, 1e300])
    def test_non_integer_labels_rejected(self, bad):
        # a fraction used to be truncated: [0, 0.5, 1.7, 1.2] scored 1.0
        with pytest.raises(ValueError, match="predicted labels must be integers"):
            metrics.segmentation_accuracy([0, bad, 1.7, 1.2], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="truth labels must be integers"):
            metrics.segmentation_accuracy([0, 0, 1, 1], [0, 0, 1, bad])

    def test_integer_valued_floats_accepted(self):
        # label files are read as floats
        assert metrics.segmentation_accuracy([0.0, 0.0, 1.0, 1.0], [1, 1, 0, 0]) == 1.0


class TestAuc:
    def test_perfect_separation(self):
        assert metrics.auc([0.1, 0.2, 0.9, 1.0], [False, False, True, True]) == 1.0

    def test_all_ties_half(self):
        assert metrics.auc([0.5] * 6, [True, False, True, False, False, True]) == 0.5

    def test_six_point_mixed_vs_threshold_sweep_oracle(self):
        scores = np.array([0.9, 0.4, 0.65, 0.1, 0.65, 0.8])
        truth = np.array([True, False, True, False, False, True])
        assert metrics.auc(scores, truth) == pytest.approx(
            oracles.auc_by_threshold_sweep(scores, truth), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 30))
        scores = np.round(rng.uniform(0, 1, size=m), 2)  # force some ties
        truth = rng.integers(0, 2, size=m).astype(bool)
        if truth.all() or not truth.any():
            truth[0] = ~truth[0]
        assert metrics.auc(scores, truth) == pytest.approx(
            oracles.auc_by_threshold_sweep(scores, truth), abs=1e-12
        )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, size=20)
        truth = rng.integers(0, 2, size=20).astype(bool)
        truth[0] = True
        truth[1] = False
        a1 = metrics.auc(scores, truth)
        a2 = metrics.auc(np.exp(3 * scores), truth)
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            metrics.auc([0.1, 0.2], [True, True])

    def test_nan_score_rejected(self):
        # np.unique sorts NaN last, so a NaN positive used to outrank all: 1.0
        with pytest.raises(ValueError, match="AUC scores contain NaN"):
            metrics.auc([np.nan, 1.0, 2.0], [True, False, False])


class TestRocSweep:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_threshold_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 40))
        scores = np.round(rng.uniform(0, 1, size=m), 1)  # force ties
        truth = rng.integers(0, 2, size=m).astype(bool)
        truth[0], truth[1] = True, False
        np.testing.assert_array_equal(metrics.roc_sweep(scores, truth),
                                      oracles.roc_by_threshold_sweep(scores, truth))

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            metrics.roc_sweep([0.1, 0.2], [False, False])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            metrics.roc_sweep([0.1, 0.2, 0.3], [True, False])

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="ROC scores contain NaN"):
            metrics.roc_sweep([0.1, np.nan, 0.3], [True, False, False])


class TestRecoveryError:
    def test_same_projector(self):
        rng = np.random.default_rng(5)
        V0 = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        assert metrics.recovery_error(V0 @ V0.T, V0) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_spaces_sqrt_two(self):
        Q = np.linalg.qr(np.random.default_rng(6).standard_normal((10, 6)))[0]
        V0, W = Q[:, :3], Q[:, 3:]
        err = metrics.recovery_error(W @ W.T, V0)
        assert err == pytest.approx(np.sqrt(2.0), rel=1e-8)

    def test_zero_input_returns_one(self):
        V0 = np.linalg.qr(np.random.default_rng(7).standard_normal((8, 2)))[0]
        assert metrics.recovery_error(np.zeros((8, 8)), V0) == pytest.approx(1.0)

    def test_basis_rotation_invariance(self):
        rng = np.random.default_rng(8)
        V0 = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        R = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Z = rng.standard_normal((12, 12))
        assert metrics.recovery_error(Z, V0) == pytest.approx(
            metrics.recovery_error(Z, V0 @ R), rel=1e-9
        )

    def test_non_orthonormal_v0_rejected(self):
        with pytest.raises(ValueError):
            metrics.recovery_error(np.eye(4), 2.0 * np.eye(4))
