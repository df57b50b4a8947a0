import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import evalkit
from pairsim.dataio import ClusterSpec, LabeledDataset, gen_clusters
from pairsim.engine import TrainConfig, init_model
from pairsim.evalkit import (
    ROW_BLOCK,
    MetricsReport,
    recall_at_k,
    similarity_scatter,
    sweep,
    tar_at_far,
    write_report_csv,
    write_sweep_csv,
)
from reference import hardest_pairs, recall_at_k_bruteforce


def tied_embeddings(rng, n):
    """Small integer embeddings whose cosines are computed exactly.

    Each row is s * (+-1, +-1, +-1, +-1) or s * (+-1 at one position),
    s in {1, 2, 3}: unit rows hold only +-1/2, +-1 and 0, so every cosine
    is exactly 0, +-1/2 or +-1 whatever the summation order, and exact ties
    are common.
    """
    emb = rng.choice([-1.0, 1.0], size=(n, 4)) * rng.integers(1, 4, size=(n, 1))
    single = rng.random(n) < 0.5
    keep = rng.integers(0, 4, size=n)
    emb[single] *= np.arange(4) == keep[single, None]
    return emb


def some_ks(rng, n):
    return sorted({1, n - 1, *(int(k) for k in rng.integers(1, n, size=3))})


class TestRecallAtK:
    def test_perfectly_clustered(self):
        emb = np.array([[1.0, 0], [0.99, 0.01], [0, 1.0], [0.01, 0.99]])
        out = recall_at_k(emb, [0, 0, 1, 1], [1, 2])
        assert out == {1: 1.0, 2: 1.0}

    def test_anti_clustered(self):
        # Nearest neighbor of every point belongs to the other class.
        emb = np.array([[1.0, 0], [0.99, 0.01], [-1.0, 0], [-0.99, -0.01]])
        out = recall_at_k(emb, [0, 1, 0, 1], [1, 3])
        assert out[1] == 0.0
        assert out[3] == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((24, 6))
        labels = np.repeat(np.arange(4), 6)
        perm = rng.permutation(24)
        a = recall_at_k(emb, labels, [1, 4])
        b = recall_at_k(emb[perm], labels[perm], [1, 4])
        assert a == b

    def test_monotone_in_k(self):
        rng = np.random.default_rng(8)
        emb = rng.standard_normal((30, 4))
        labels = np.repeat(np.arange(5), 6)
        out = recall_at_k(emb, labels, range(1, 11))
        values = [out[k] for k in range(1, 11)]
        assert values == sorted(values)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((12, 3))
        labels = np.repeat([0, 1, 2], 4)
        a = recall_at_k(emb, labels, [1])
        b = recall_at_k(emb * 100.0, labels, [1])
        assert a == b

    def test_k_out_of_range(self):
        emb = np.eye(4)
        with pytest.raises(ValueError, match="k must lie"):
            recall_at_k(emb, [0, 0, 1, 1], [4])
        with pytest.raises(ValueError, match="k must lie"):
            recall_at_k(emb, [0, 0, 1, 1], [0])

    def test_zero_norm_rejected(self):
        emb = np.array([[1.0, 0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate feature"):
            recall_at_k(emb, [0, 1], [1])

    def test_overflowing_norm_rejected(self):
        # Two clean classes, but every norm overflows: refused, not ranked as zero rows.
        emb = np.array([[1e200, 1e200], [1e200, 1e200], [-1e200, 1e200], [-1e200, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="embedding norm overflows float64"):
                recall_at_k(emb, [0, 0, 1, 1], [1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        emb = np.array([[1.0, 0], [0.5, bad], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite embedding"):
            recall_at_k(emb, [0, 0, 1], [1])

    @pytest.mark.parametrize(
        "n", [2, 3, 40, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK - 7]
    )
    def test_matches_bruteforce_ranking_with_ties(self, n):
        # Labels drawn from about n/2 classes leave many singleton queries.
        rng = np.random.default_rng(n)
        emb = tied_embeddings(rng, n)
        labels = rng.integers(0, n // 2 + 1, size=n)
        ks = some_ks(rng, n)
        assert recall_at_k(emb, labels, ks) == recall_at_k_bruteforce(emb, labels, ks)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), block=st.integers(1, 9))
    def test_block_edges_match_bruteforce(self, seed, n, block):
        rng = np.random.default_rng(seed)
        emb = tied_embeddings(rng, n)
        labels = rng.integers(0, n // 2 + 1, size=n)
        ks = some_ks(rng, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evalkit, "ROW_BLOCK", block)
            got = recall_at_k(emb, labels, ks)
        assert got == recall_at_k_bruteforce(emb, labels, ks)


class TestTarAtFar:
    def test_separated_scores(self):
        gen = [0.9, 0.8, 0.85]
        imp = np.linspace(-0.5, 0.5, 100)
        out = tar_at_far(gen, imp, [0.01, 0.1])
        assert out[0.01] == 1.0 and out[0.1] == 1.0

    def test_overlapping_scores(self):
        # Genuine uniform on [0,1], impostors uniform on [0.5, 1.5]:
        # at far=0.1 the threshold sits near 1.4, accepting no genuine.
        gen = np.linspace(0.0, 1.0, 200)
        imp = np.linspace(0.5, 1.5, 200)
        out = tar_at_far(gen, imp, [0.1])
        assert out[0.1] < 0.05

    def test_far_one_accepts_everything(self):
        out = tar_at_far([-0.9, 0.1], [0.5, 0.6, 0.7], [1.0])
        assert out[1.0] == 1.0

    def test_threshold_is_inclusive(self):
        # 10 impostors, far=0.1 allows exactly the top impostor; a genuine
        # score just above the second-highest impostor is accepted.
        imp = np.arange(10) / 10.0
        out = tar_at_far([0.85], imp, [0.1])
        assert out[0.1] == 1.0
        out = tar_at_far([0.75], imp, [0.1])
        assert out[0.1] == 0.0

    def test_insufficient_impostors(self):
        with pytest.raises(ValueError, match="insufficient impostor pairs"):
            tar_at_far([0.5], np.arange(10) / 10.0, [1e-6])

    def test_empty_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            tar_at_far([], [0.1], [0.5])
        with pytest.raises(ValueError, match="non-empty"):
            tar_at_far([0.1], [], [0.5])


class TestSimilarityScatter:
    def test_zero_noise_clusters_at_target_corner(self):
        # Identical within-class features and an identity embedding map:
        # every anchor has sp=1 exactly.
        ds = gen_clusters(ClusterSpec(4, 5, 8, noise_sigma=0.0, seed=3))
        model = init_model(0, din=8, embed_dim=8)
        model.w1 = np.eye(8)
        result = similarity_scatter(model, ds)
        assert result.skipped == 0
        assert result.points.shape == (20, 2)
        np.testing.assert_allclose(result.points[:, 1], 1.0, atol=1e-12)
        assert np.all(result.points[:, 0] < 1.0)

    def test_singleton_classes_skipped(self):
        ds = gen_clusters(ClusterSpec(5, 1, 8, noise_sigma=0.0, seed=3))
        model = init_model(0, din=8, embed_dim=4)
        result = similarity_scatter(model, ds)
        assert result.skipped == 5
        assert result.points.size == 0

    def test_matches_masked_reference_with_skipped_anchors(self):
        # Two blocks of rows; classes 0 and 1 are singletons and get skipped.
        n = ROW_BLOCK + 37
        rng = np.random.default_rng(11)
        labels = np.concatenate([[0, 1], rng.integers(2, 40, size=n - 2)])
        ds = LabeledDataset(rng.standard_normal((n, 12)), labels)
        model = init_model(4, din=12, embed_dim=6)
        result = similarity_scatter(model, ds)
        want, skipped = hardest_pairs(model.embed(ds.features), labels)
        assert result.skipped == skipped >= 2
        assert result.points.shape == want.shape
        np.testing.assert_allclose(result.points, want, rtol=0, atol=1e-12)

    def test_single_class_has_no_negatives(self):
        ds = LabeledDataset(np.eye(4), [3, 3, 3, 3])
        model = init_model(0, din=4, embed_dim=4)
        result = similarity_scatter(model, ds)
        assert result.skipped == 4
        assert result.points.shape == (0, 2)

    def test_hardest_pair_selection(self):
        ds = gen_clusters(ClusterSpec(3, 6, 16, noise_sigma=0.2, seed=9))
        model = init_model(1, din=16, embed_dim=8)
        result = similarity_scatter(model, ds)
        emb = model.embed(ds.features)
        sim = np.clip(emb @ emb.T, -1, 1)
        neg0 = ds.labels != ds.labels[0]
        pos0 = (ds.labels == ds.labels[0]) & (np.arange(18) != 0)
        assert result.points[0, 0] == pytest.approx(np.max(sim[0, neg0]))
        assert result.points[0, 1] == pytest.approx(np.min(sim[0, pos0]))


class TestMemory:
    """Neither metric holds an n x n float matrix: the peak stays below half
    of one (n^2 * 8 / 2 bytes)."""

    N = 2000

    @pytest.fixture(scope="class")
    def gallery(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((self.N, 32))
        labels = np.repeat(np.arange(self.N // 20), 20)
        return LabeledDataset(features, labels), init_model(0, din=32, embed_dim=32)

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_recall_at_k_peak(self, gallery):
        ds, model = gallery
        emb = model.embed(ds.features)
        peak = self.peak_bytes(recall_at_k, emb, ds.labels, [1, 2, 4, 8])
        assert peak < self.N**2 * 8 / 2

    def test_similarity_scatter_peak(self, gallery):
        ds, model = gallery
        peak = self.peak_bytes(similarity_scatter, model, ds)
        assert peak < self.N**2 * 8 / 2


class TestSweep:
    def test_single_value_and_determinism(self):
        ds = gen_clusters(ClusterSpec(3, 6, 8, noise_sigma=0.05, seed=4))
        config = TrainConfig(
            loss="circle", gamma=64, m=0.25, lr=0.1, iterations=40,
            p_classes=3, k_samples=3, embed_dim=8, seed=4,
        )
        a = sweep(ds, config, "gamma", [64])
        b = sweep(ds, config, "gamma", [64])
        assert a == b
        assert a[0][0] == 64.0
        assert 0.0 <= a[0][1] <= 1.0

    def test_axis_validation(self):
        ds = gen_clusters(ClusterSpec(2, 4, 4, seed=0))
        config = TrainConfig(embed_dim=4)
        with pytest.raises(ValueError, match="axis"):
            sweep(ds, config, "lr", [0.1])
        with pytest.raises(ValueError, match="at least one"):
            sweep(ds, config, "gamma", [])


class TestReports:
    def test_report_csv_layout(self, tmp_path):
        report = MetricsReport(
            recall_at_k={1: 1.0, 2: 1.0},
            rank1=1.0,
            tar_at_far={0.01: 0.98},
            concentration=(0.9, 0.004),
        )
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,key,value"
        assert lines[1] == "recall_at_k,1,1.0"
        assert "tar_at_far,0.01,0.98" in lines
        assert "concentration,variance,0.004" in lines

    def test_sweep_csv_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, "gamma", [(32.0, 0.5), (64.0, 1.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,recall_at_1"
        assert [float(x) for x in lines[1].split(",")] == [32.0, 0.5]
