import dataclasses
import warnings

import numpy as np
import pytest

import reference
from pairsim import grads
from pairsim.dataio import ClusterSpec, LabeledDataset, gen_clusters
from pairsim.engine import (
    EmbeddingModel,
    TrainConfig,
    class_members,
    init_model,
    pk_sample,
    train,
    train_step,
)


@pytest.fixture(scope="module")
def small_dataset():
    return gen_clusters(ClusterSpec(6, 8, 16, noise_sigma=0.1, seed=13))


class TestInitModel:
    def test_deterministic(self):
        a = init_model(9, din=8, embed_dim=4, n_classes=5, hidden=6)
        b = init_model(9, din=8, embed_dim=4, n_classes=5, hidden=6)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)
        np.testing.assert_array_equal(a.class_weights, b.class_weights)

    def test_single_layer_when_no_hidden(self):
        model = init_model(0, din=8, embed_dim=4)
        assert model.w2 is None
        assert model.hidden is None
        assert model.embed_dim == 4

    def test_random_data_starts_near_zero_similarity(self):
        # High-dimensional random features + random projection: embeddings
        # spread out, so mean similarity magnitude stays small.
        rng = np.random.default_rng(0)
        model = init_model(1, din=64, embed_dim=32)
        emb = model.embed(rng.standard_normal((100, 64)))
        sims = emb @ emb.T
        mean_off_diag = (sims.sum() - 100) / (100 * 99)
        assert abs(mean_off_diag) < 0.3

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_empty_hidden_layer_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden >= 1"):
            init_model(0, din=4, embed_dim=4, hidden=hidden)

    def test_overflowing_embedding_rejected(self):
        # Finite weights and features whose product overflows to inf: refused
        # without numpy's matmul overflow warning.
        model = init_model(0, din=4, embed_dim=4)
        model.w1 = np.full((4, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite embedding"):
                model.embed(np.ones((3, 4)))

    def test_overflowing_norm_rejected(self):
        # Finite embedding entries whose norm overflows: refused without a
        # numpy warning, not returned as all-zero rows.
        model = init_model(0, din=4, embed_dim=4)
        model.w1 = np.full((4, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="embedding norm overflows float64"):
                model.embed(np.eye(4)[:3])


class TestPkSample:
    def test_batch_size(self, small_dataset):
        rng = np.random.default_rng(4)
        idx = pk_sample(small_dataset, 4, 5, rng)
        assert idx.size == 20
        labels = small_dataset.labels[idx]
        values, counts = np.unique(labels, return_counts=True)
        assert values.size == 4
        assert np.all(counts == 5)

    def test_all_classes_once(self, small_dataset):
        rng = np.random.default_rng(4)
        idx = pk_sample(small_dataset, 6, 2, rng)
        assert np.unique(small_dataset.labels[idx]).size == 6

    def test_no_repeated_samples_within_class(self, small_dataset):
        rng = np.random.default_rng(4)
        idx = pk_sample(small_dataset, 6, 8, rng)
        assert np.unique(idx).size == idx.size

    def test_insufficient_samples(self, small_dataset):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="need"):
            pk_sample(small_dataset, 4, 9, rng)
        with pytest.raises(ValueError, match="need"):
            pk_sample(small_dataset, 7, 2, rng)


class TestPkSampleGrouping:
    """Labels grouped once per run give the draws of grouping them per call."""

    @staticmethod
    def _dataset(seed):
        rng = np.random.default_rng(seed)
        # Unsorted labels with gaps and unequal class sizes.
        labels = rng.permutation(np.repeat([3, 7, 8, 20, 41, 50], [5, 6, 9, 5, 7, 8]))
        return LabeledDataset(rng.standard_normal((labels.size, 2)), labels)

    @pytest.mark.parametrize("seed", range(4))
    def test_draws_match_the_per_call_sampler(self, seed):
        ds = self._dataset(seed)
        members = class_members(ds.labels)
        ours, fresh, theirs = (np.random.default_rng([seed, 1]) for _ in range(3))
        for _ in range(25):
            want = reference.pk_sample(ds.labels, 4, 5, theirs)
            np.testing.assert_array_equal(pk_sample(ds, 4, 5, ours, members), want)
            np.testing.assert_array_equal(pk_sample(ds, 4, 5, fresh), want)

    @pytest.mark.parametrize("p, k", [(6, 6), (7, 2)])
    def test_same_error_as_the_per_call_sampler(self, p, k):
        ds = self._dataset(5)
        with pytest.raises(ValueError) as want:
            reference.pk_sample(ds.labels, p, k, np.random.default_rng(9))
        with pytest.raises(ValueError) as got:
            pk_sample(ds, p, k, np.random.default_rng(9), class_members(ds.labels))
        assert str(got.value) == str(want.value)


class TestTrainStep:
    def test_satisfied_triplet_batch_is_noop(self):
        model = init_model(2, din=4, embed_dim=4)
        w1_before = model.w1.copy()
        features = np.array(
            [[1.0, 0, 0, 0], [0.99, 0.01, 0, 0], [-1.0, 0, 0, 0], [-0.99, -0.01, 0, 0]]
        )
        labels = np.array([0, 0, 1, 1])
        config = TrainConfig(loss="triplet", m=-1.5, iterations=1)
        train_step(model, features, labels, config, lr=0.1)
        np.testing.assert_array_equal(model.w1, w1_before)

    def test_circle_step_decreases_loss(self, small_dataset):
        # Descent property on a fixed batch. The detached-weight gradient is
        # the exact gradient of the frozen-weight surrogate, so that loss
        # must strictly decrease for a small step; the true (re-weighted)
        # loss decreases in the large majority of random states but not all,
        # since the stop-gradient direction is not its exact gradient.
        import math

        from pairsim.losses import CircleParams

        def frozen_batch_loss(model, feats, labels, p, frozen):
            emb = model.embed(feats)
            sims = np.clip(emb @ emb.T, -1, 1)
            n = feats.shape[0]
            total = 0.0
            for b in range(n):
                pos = (labels == labels[b]) & (np.arange(n) != b)
                neg = labels != labels[b]
                ap, an = frozen[b]
                un = p.gamma * an * (sims[b, neg] - p.dn)
                vp = -p.gamma * ap * (sims[b, pos] - p.dp)
                total += math.log1p(float(np.sum(np.exp(un)) * np.sum(np.exp(vp))))
            return total / n

        rng = np.random.default_rng(17)
        p = CircleParams.reduced(32, 0.25)
        config = TrainConfig(loss="circle", gamma=32, m=0.25, embed_dim=16, iterations=1)
        true_wins = 0
        for trial in range(100):
            model = init_model(trial, din=16, embed_dim=16)
            idx = pk_sample(small_dataset, 3, 3, rng)
            feats, labels = small_dataset.features[idx], small_dataset.labels[idx]

            emb = model.embed(feats)
            sims = np.clip(emb @ emb.T, -1, 1)
            n = feats.shape[0]
            frozen = []
            for b in range(n):
                pos = (labels == labels[b]) & (np.arange(n) != b)
                neg = labels != labels[b]
                frozen.append(
                    (np.maximum(p.op - sims[b, pos], 0.0), np.maximum(sims[b, neg] - p.on, 0.0))
                )
            before_frozen = frozen_batch_loss(model, feats, labels, p, frozen)
            before_true = grads.backprop_to_params(
                model, feats, labels, "circle", 32, 0.25, "pair_wise"
            )[1]
            train_step(model, feats, labels, config, lr=1e-4)
            after_frozen = frozen_batch_loss(model, feats, labels, p, frozen)
            after_true = grads.backprop_to_params(
                model, feats, labels, "circle", 32, 0.25, "pair_wise"
            )[1]
            assert after_frozen < before_frozen
            true_wins += after_true < before_true
        assert true_wins >= 90

    def test_class_level_separable_improves(self):
        ds = gen_clusters(ClusterSpec(2, 20, 2, noise_sigma=0.02, seed=23))
        config = TrainConfig(
            paradigm="class_level",
            loss="am_softmax",
            gamma=16,
            m=0.2,
            lr=0.5,
            iterations=80,
            batch_size=16,
            embed_dim=4,
            seed=23,
        )
        rec = train(ds, config)
        assert np.mean(rec.mean_sp[-10:]) > np.mean(rec.mean_sp[:10])
        assert np.mean(rec.mean_sn[-10:]) < np.mean(rec.mean_sn[:10])

    def test_nan_loss_aborts(self):
        model = init_model(2, din=4, embed_dim=4)
        model.w1 *= np.inf
        features = np.eye(4)
        labels = np.array([0, 0, 1, 1])
        config = TrainConfig(loss="circle", iterations=1)
        with np.errstate(invalid="ignore"), pytest.raises((RuntimeError, ValueError)):
            train_step(model, features, labels, config, lr=0.1)


class TestTrain:
    def test_determinism(self, small_dataset):
        config = TrainConfig(
            loss="circle", gamma=64, iterations=30, p_classes=3, k_samples=3,
            embed_dim=8, seed=42,
        )
        a = train(small_dataset, config)
        b = train(small_dataset, config)
        np.testing.assert_array_equal(a.model.w1, b.model.w1)
        np.testing.assert_array_equal(a.mean_sp, b.mean_sp)
        np.testing.assert_array_equal(a.loss, b.loss)

    def test_zero_iterations(self, small_dataset):
        config = TrainConfig(iterations=0, seed=1, embed_dim=8)
        rec = train(small_dataset, config)
        assert rec.iteration.size == 0
        fresh = init_model(1, din=16, embed_dim=32)
        np.testing.assert_array_equal(
            rec.model.w1, init_model(1, din=16, embed_dim=rec.model.embed_dim).w1
        )

    def test_embeddings_unit_norm(self, small_dataset):
        config = TrainConfig(iterations=10, embed_dim=8, p_classes=3, k_samples=3, seed=2)
        rec = train(small_dataset, config)
        norms = np.linalg.norm(rec.model.embed(small_dataset.features), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_record_shape_and_lr_schedule(self, small_dataset):
        config = TrainConfig(
            iterations=100, lr=0.1, embed_dim=8, p_classes=3, k_samples=3, seed=3
        )
        rec = train(small_dataset, config)
        assert rec.iteration.size == 100
        assert np.all(np.isfinite(rec.loss))
        assert rec.lr[0] == pytest.approx(0.1)
        assert rec.lr[55] == pytest.approx(0.01)
        assert rec.lr[75] == pytest.approx(0.001)
        assert rec.lr[95] == pytest.approx(0.0001)

    def test_class_level_weights_follow_distinct_labels(self):
        # Labels relabelled in the same order train the same model, with
        # one class-weight row per distinct label, however large.
        ds = gen_clusters(ClusterSpec(4, 6, 8, seed=5))
        sparse = LabeledDataset(ds.features, np.array([0, 7, 10**12, 2**62])[ds.labels])
        config = TrainConfig(
            paradigm="class_level", loss="am_softmax", gamma=16, m=0.2, iterations=10,
            batch_size=8, embed_dim=4, seed=3,
        )
        dense, relabelled = train(ds, config), train(sparse, config)
        assert relabelled.model.class_weights.shape == (4, 4)
        np.testing.assert_array_equal(relabelled.model.class_weights, dense.model.class_weights)
        np.testing.assert_array_equal(relabelled.model.w1, dense.model.w1)
        np.testing.assert_array_equal(relabelled.loss, dense.loss)

    def test_class_level_l_is_n_minus_1(self):
        # One sample per class in class-level mode: every anchor sees N-1
        # between-class scores. The batch is one masked group; count each
        # anchor's members row by row.
        ds = gen_clusters(ClusterSpec(5, 1, 8, noise_sigma=0.0, seed=3))
        model = init_model(0, din=8, embed_dim=4, n_classes=5)
        captured = []
        original = grads.loss_grad

        def members(scores, mask):
            return np.full(scores.shape[0], scores.shape[1]) if mask is None else mask.sum(axis=1)

        def spy(loss_id, g, gamma, m):
            captured.extend(zip(members(g.sp, g.sp_mask), members(g.sn, g.sn_mask)))
            return original(loss_id, g, gamma, m)

        grads.loss_grad, old = spy, grads.loss_grad
        try:
            grads.backprop_to_params(
                model, ds.features, ds.labels, "unified", 16, 0.1, "class_level"
            )
        finally:
            grads.loss_grad = old
        assert len(captured) == 5 and all(k == 1 and l == 4 for k, l in captured)

    def test_zero_gradient_stub_leaves_model_unchanged(self, small_dataset):
        # Loss-agnostic plumbing: a loss producing zero gradients must not
        # move any parameter.
        import pairsim.grads as g_mod
        from pairsim.grads import LossGrad

        def zero_stub(loss_id, g, gamma, m):
            return LossGrad(0.0, np.zeros_like(g.sp), np.zeros_like(g.sn), 0.0)

        model = init_model(5, din=16, embed_dim=8)
        before = model.w1.copy()
        old = g_mod.loss_grad
        g_mod.loss_grad = zero_stub
        try:
            g_mod.backprop_to_params(
                model,
                small_dataset.features[:12],
                small_dataset.labels[:12],
                "circle",
                64,
                0.25,
                "pair_wise",
            )[0]
            grads_out = g_mod.backprop_to_params(
                model,
                small_dataset.features[:12],
                small_dataset.labels[:12],
                "circle",
                64,
                0.25,
                "pair_wise",
            )[0]
        finally:
            g_mod.loss_grad = old
        model.apply_gradients(grads_out, lr=0.5)
        np.testing.assert_array_equal(model.w1, before)


class TestConfigValidation:
    def test_bad_loss(self):
        with pytest.raises(ValueError, match="unknown loss"):
            TrainConfig(loss="arcface")

    def test_bad_paradigm(self):
        with pytest.raises(ValueError, match="paradigm"):
            TrainConfig(paradigm="semi_supervised")

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0])
    def test_lr_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            TrainConfig(lr=lr)

    def test_pairwise_pk_minimums(self):
        with pytest.raises(ValueError, match="P >= 2"):
            TrainConfig(paradigm="pair_wise", p_classes=1)
        with pytest.raises(ValueError, match="P >= 2"):
            TrainConfig(paradigm="pair_wise", k_samples=1)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_class_level_batch_minimum(self, batch_size):
        with pytest.raises(ValueError, match="batch size >= 1"):
            TrainConfig(paradigm="class_level", batch_size=batch_size)
        TrainConfig(paradigm="pair_wise", batch_size=batch_size)
