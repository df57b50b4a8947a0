import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import grads
from pairsim.engine import init_model
from pairsim.geometry import GridSpec, gradient_field, write_gradient_field_csv
from pairsim.grads import (
    backprop_to_params,
    circle_grad,
    fd_check,
    loss_grad,
    triplet_grad,
    unified_grad,
)
from pairsim.losses import CircleParams, UnifiedParams, circle_loss, unified_loss
from pairsim.simcore import SimilarityGroup
import reference
from reference import class_similarities, pairwise_similarities

# mpmath (50 digits) evaluation of the closed-form gradient at A = (0.8, 0.8),
# reduced m=0.25, gamma=1.
A_POINT_LOSS = 1.0086660582148793852
A_POINT_D_SN = 0.66705959178894739824
A_POINT_D_SP = -0.28588268219526317067


def group(sp, sn):
    return SimilarityGroup(sp=np.atleast_1d(sp), sn=np.atleast_1d(sn))


def random_group(rng, max_side=8):
    k = int(rng.integers(1, max_side + 1))
    l = int(rng.integers(1, max_side + 1))
    return group(rng.uniform(-1, 1, k), rng.uniform(-1, 1, l))


class TestCircleGrad:
    def test_balanced_at_convergence_target(self):
        lg = circle_grad(group(0.75, 0.25), CircleParams.reduced(1, 0.25))
        assert lg.value == pytest.approx(math.log(2))
        assert lg.z == pytest.approx(0.5)
        np.testing.assert_allclose(lg.d_sn, [0.25])
        np.testing.assert_allclose(lg.d_sp, [-0.25])

    def test_attenuation_at_tiny_loss(self):
        lg = circle_grad(group(1.0, -1.0), CircleParams.reduced(256, 0.25))
        assert lg.value < 1e-6
        assert lg.z < 1e-6
        assert np.all(np.abs(lg.d_sn) < 1e-4)
        assert np.all(np.abs(lg.d_sp) < 1e-4)

    def test_emphasis_on_sn_at_a(self):
        lg = circle_grad(group(0.8, 0.8), CircleParams.reduced(1, 0.25))
        assert abs(lg.d_sn[0]) > abs(lg.d_sp[0])
        assert lg.value == pytest.approx(A_POINT_LOSS, rel=1e-14)
        assert lg.d_sn[0] == pytest.approx(A_POINT_D_SN, rel=1e-14)
        assert lg.d_sp[0] == pytest.approx(A_POINT_D_SP, rel=1e-14)

    def test_general_mode_single_pair(self):
        # K = L = 1: the softmax weights are 1, so d_sn = Z gamma an and
        # d_sp = -Z gamma ap with Z the sigmoid of un + vp.
        p = CircleParams.general(2.0, op=1.3, on=-0.3, dp=0.7, dn=0.3)
        lg = circle_grad(group(0.5, 0.6), p)
        an, ap = 0.6 + 0.3, 1.3 - 0.5
        logit = 2.0 * an * (0.6 - 0.3) - 2.0 * ap * (0.5 - 0.7)
        z = 1.0 / (1.0 + math.exp(-logit))
        assert lg.value == pytest.approx(math.log1p(math.exp(logit)), rel=1e-14)
        assert lg.z == pytest.approx(z, rel=1e-14)
        assert lg.d_sn[0] == pytest.approx(z * 2.0 * an, rel=1e-14)
        assert lg.d_sp[0] == pytest.approx(-z * 2.0 * ap, rel=1e-14)

    def test_sign_contract(self):
        rng = np.random.default_rng(5)
        for m in (0.1, 0.25, 0.4):
            p = CircleParams.reduced(64, m)
            for _ in range(50):
                g = random_group(rng)
                lg = circle_grad(g, p)
                assert np.all(lg.d_sn >= 0.0)
                assert np.all(lg.d_sp <= 0.0)

    def test_z_matches_value(self):
        rng = np.random.default_rng(6)
        p = CircleParams.reduced(32, 0.25)
        for _ in range(20):
            lg = circle_grad(random_group(rng), p)
            # Z < 1 mathematically; float64 saturates to 1.0 for loss > ~36.
            assert 0.0 <= lg.z <= 1.0
            assert lg.z < 1.0 or lg.value > 36.0
            assert lg.z == pytest.approx(-math.expm1(-lg.value), rel=1e-12, abs=1e-300)

    def test_softmax_weights_sum_to_one_when_all_active(self):
        # Recover the softmax weights by dividing out Z and the linear factor.
        g = group([0.2, 0.5, 0.7], [0.1, 0.3, 0.6])
        p = CircleParams.reduced(8, 0.25)
        lg = circle_grad(g, p)
        w_n = lg.d_sn / (lg.z * p.gamma * (g.sn + 0.25))
        w_p = lg.d_sp / (lg.z * p.gamma * (g.sp - 1.25))
        assert np.sum(w_n) == pytest.approx(1.0, rel=1e-12)
        assert np.sum(w_p) == pytest.approx(1.0, rel=1e-12)

    def test_cutoff_entries_zero(self):
        lg = circle_grad(group([0.5], [-0.9, 0.5]), CircleParams.reduced(64, 0.25))
        assert lg.d_sn[0] == 0.0
        assert lg.d_sn[1] > 0.0


class TestUnifiedGrad:
    def test_equal_magnitude_single_pair(self):
        rng = np.random.default_rng(2)
        p = UnifiedParams(64, 0.35)
        for _ in range(50):
            g = group(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lg = unified_grad(g, p)
            assert lg.d_sp[0] == pytest.approx(-lg.d_sn[0], rel=1e-12, abs=1e-300)

    def test_hand_derived_point(self):
        # d/dsn log(1 + e^(sn - sp)) at sn = sp is 1/2.
        lg = unified_grad(group(0.5, 0.5), UnifiedParams(1, 0))
        assert lg.d_sn[0] == pytest.approx(0.5)
        assert lg.d_sp[0] == pytest.approx(-0.5)

    def test_satisfied_region_vanishes(self):
        lg = unified_grad(group(0.95, -0.95), UnifiedParams(512, 0))
        assert np.all(np.abs(lg.d_sn) < 1e-10)
        assert np.all(np.abs(lg.d_sp) < 1e-10)


class TestTripletGrad:
    def test_hardest_pair_indicator(self):
        lg = triplet_grad(group([0.9, 0.4], [0.1, 0.3]), 0.2)
        np.testing.assert_array_equal(lg.d_sn, [0.0, 1.0])
        np.testing.assert_array_equal(lg.d_sp, [0.0, -1.0])

    def test_satisfied_batch_zero(self):
        lg = triplet_grad(group(0.9, 0.1), 0.2)
        assert lg.value == 0.0
        assert not np.any(lg.d_sn) and not np.any(lg.d_sp)


class TestFdCheck:
    def test_circle_frozen_mode_agrees(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for gamma in (1.0, 64.0, 256.0):
            for m in (0.1, 0.25, 0.4):
                p = CircleParams.reduced(gamma, m)
                for _ in range(40):
                    worst = max(worst, fd_check("circle", random_group(rng), p))
        assert worst < 1e-5

    @pytest.mark.parametrize("margin_free", [False, True])
    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_circle_frozen_mode_agrees_in_general_mode(self, margin_free, data):
        # Any Op > Dp and Dn > On; margin-free is Dp = Dn = 0.
        dp, dn = (0.0, 0.0) if margin_free else (
            data.draw(st.floats(-0.5, 1.0)), data.draw(st.floats(-0.5, 1.0))
        )
        p = CircleParams.general(
            data.draw(st.floats(1.0, 64.0)),
            op=dp + data.draw(st.floats(0.05, 1.0)),
            on=dn - data.draw(st.floats(0.05, 1.0)),
            dp=dp,
            dn=dn,
        )
        g = random_group(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        assert fd_check("circle", g, p) <= 1e-6

    def test_unified_agrees(self):
        rng = np.random.default_rng(10)
        p = UnifiedParams(64, 0.25)
        for _ in range(100):
            assert fd_check("unified", random_group(rng), p) < 1e-6

    def test_full_mode_documents_detached_semantics(self):
        # Differentiating through the weights yields gamma*2*sn instead of
        # gamma*(sn + m): material disagreement wherever sn != m.
        p = CircleParams.reduced(64, 0.25)
        err = fd_check("circle", group(0.5, 0.6), p, mode="full")
        assert err > 1e-3

    def test_full_equals_frozen_at_sn_equal_m(self):
        p = CircleParams.reduced(8, 0.25)
        g = group(0.75, 0.25)  # sn = m and sp = 1 - m: both factors agree
        assert fd_check("circle", g, p, mode="full") < 1e-6

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError, match="eps"):
            fd_check("unified", group(0.5, 0.5), UnifiedParams(1, 0), eps=1e-2)

    def test_triplet_unsupported(self):
        with pytest.raises(ValueError):
            fd_check("triplet", group(0.5, 0.5), UnifiedParams(1, 0))

    def test_nan_in_analytic_gradient_is_reported(self, monkeypatch):
        # A NaN error must not vanish into the max over scores.
        real = grads.unified_grad

        def spy(g, p):
            lg = real(g, p)
            if g.sp.ndim == 1:
                lg.d_sn[-1] = np.nan
            return lg

        monkeypatch.setattr(grads, "unified_grad", spy)
        g = group([0.4, 0.7], [0.1, 0.3, 0.5])
        assert math.isnan(fd_check("unified", g, UnifiedParams(8, 0.25)))

    @pytest.mark.parametrize(
        "g", [SimilarityGroup(sp=[[0.5], [0.7]], sn=[[0.1, 0.9], [0.3, 0.8]])], ids=["batched"]
    )
    @pytest.mark.parametrize(
        "loss_id, p", [("unified", UnifiedParams(8, 0.25)), ("circle", CircleParams.reduced(8, 0.25))]
    )
    def test_one_unmasked_anchor_only(self, g, loss_id, p):
        with pytest.raises(ValueError, match="fd_check takes one anchor"):
            fd_check(loss_id, g, p)


class TestKernelValueMatchesForwardLoss:
    """fd_check differences the kernels' factored values; the forward
    losses, pinned by mpmath oracles, pin those values in turn."""

    @pytest.mark.parametrize("kind", ["unified", "reduced", "general", "margin_free"])
    def test_random_single_anchors(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(2_000):
            g = random_group(rng)
            gamma = rng.uniform(0.5, 512)
            if kind == "unified":
                p = UnifiedParams(gamma, rng.uniform(-0.2, 0.5))
                kernel, forward = unified_grad(g, p).value, unified_loss(g, p)
            else:
                if kind == "reduced":
                    p = CircleParams.reduced(gamma, rng.uniform(-0.2, 0.5))
                else:
                    dp, dn = (0.0, 0.0) if kind == "margin_free" else rng.uniform(-0.5, 1, 2)
                    p = CircleParams.general(
                        gamma,
                        op=dp + rng.uniform(0.05, 1),
                        on=dn - rng.uniform(0.05, 1),
                        dp=dp,
                        dn=dn,
                    )
                kernel, forward = circle_grad(g, p).value, circle_loss(g, p)
            assert kernel == pytest.approx(forward, rel=1e-12, abs=0)


class TestLossGradDispatch:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown loss id"):
            loss_grad("arcface", group(0.5, 0.5), 64, 0.25)

    def test_am_softmax_aliases_unified(self):
        g = group(0.4, [0.1, 0.2])
        a = loss_grad("am_softmax", g, 64, 0.35)
        b = unified_grad(g, UnifiedParams(64, 0.35))
        np.testing.assert_array_equal(a.d_sn, b.d_sn)


KERNEL_LOSSES = ("circle", "unified", "am_softmax", "triplet")


def _pairwise_batch(rng):
    """P x K pair-wise batch (P = 3, K = 4): K - 1 positives and B - K negatives per row."""
    labels = np.repeat(rng.permutation(3), 4)
    e = rng.standard_normal((labels.size, 5))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    scores = np.clip(e @ e.T, -1.0, 1.0)
    rows = np.arange(labels.size)
    pos = [scores[b][(labels == labels[b]) & (rows != b)] for b in rows]
    return SimilarityGroup(sp=pos, sn=[scores[b][labels != labels[b]] for b in rows])


def _class_level_batch(rng):
    """Class-level batch: K = 1 target score and L = N - 1 other scores per row."""
    batch, n_classes = 7, 5
    scores = rng.uniform(-1, 1, (batch, n_classes))
    labels = rng.integers(0, n_classes, batch)
    sn = [np.delete(row, y) for row, y in zip(scores, labels)]
    return SimilarityGroup(sp=scores[np.arange(batch), labels][:, None], sn=sn)


class TestBatchedKernel:
    """Each row of a dense batch equals the 1-D kernel on that anchor alone."""

    @pytest.mark.parametrize("build", [_pairwise_batch, _class_level_batch])
    @pytest.mark.parametrize("loss_id", KERNEL_LOSSES)
    def test_rows_match_single_anchor(self, build, loss_id):
        g = build(np.random.default_rng(31))
        gamma, m = 64.0, 0.25
        batched = loss_grad(loss_id, g, gamma, m)
        exact = loss_id == "triplet"
        for b in range(g.sp.shape[0]):
            single = loss_grad(loss_id, group(g.sp[b], g.sn[b]), gamma, m)
            got = (batched.value[b], batched.z[b], batched.d_sp[b], batched.d_sn[b])
            want = (single.value, single.z, single.d_sp, single.d_sn)
            for a, w in zip(got, want):
                if exact:
                    np.testing.assert_array_equal(a, w)
                else:
                    np.testing.assert_allclose(a, w, rtol=1e-12, atol=1e-12)

    def test_single_anchor_is_scalar(self):
        lg = loss_grad("circle", group([0.6, 0.7], [0.2]), 32, 0.25)
        assert isinstance(lg.value, float) and isinstance(lg.z, float)
        assert lg.d_sp.shape == (2,) and lg.d_sn.shape == (1,)


def _batch_loss(model, features, labels, loss_id, gamma, m, paradigm, frozen_alphas=None):
    """Forward-only batch loss; optionally with per-anchor frozen weights."""
    emb = model.embed(features)
    if paradigm == "class_level":
        w = model.class_weights
        what = w / np.linalg.norm(w, axis=1, keepdims=True)
        sims = np.clip(emb @ what.T, -1, 1)
    else:
        sims = np.clip(emb @ emb.T, -1, 1)
    total = 0.0
    n = features.shape[0]
    for b in range(n):
        if paradigm == "class_level":
            y = int(labels[b])
            mask = np.arange(w.shape[0]) != y
            g = group(sims[b, y], sims[b, mask])
        else:
            pos = (labels == labels[b]) & (np.arange(n) != b)
            neg = labels != labels[b]
            g = group(sims[b, pos], sims[b, neg])
        if loss_id == "circle":
            p = CircleParams.reduced(gamma, m)
            if frozen_alphas is not None:
                ap, an = frozen_alphas[b]
            else:
                ap = np.maximum(p.op - g.sp, 0.0)
                an = np.maximum(g.sn - p.on, 0.0)
            un = gamma * an * (g.sn - p.dn)
            vp = -gamma * ap * (g.sp - p.dp)
            total += math.log1p(
                float(np.sum(np.exp(un)) * np.sum(np.exp(vp)))
            )
        else:
            total += unified_loss(g, UnifiedParams(gamma, m))
    return total / n


class TestBackpropToParams:
    @pytest.mark.parametrize("paradigm", ["class_level", "pair_wise"])
    @pytest.mark.parametrize("loss_id", ["unified", "circle"])
    def test_param_gradients_match_finite_differences(self, paradigm, loss_id):
        rng = np.random.default_rng(21)
        n_classes = 3 if paradigm == "class_level" else None
        model = init_model(21, din=4, embed_dim=5, n_classes=n_classes, hidden=6)
        features = rng.standard_normal((6, 4))
        labels = np.array([0, 0, 1, 1, 2, 2])
        gamma, m = 4.0, 0.25
        grads, loss0, _, _ = backprop_to_params(
            model, features, labels, loss_id, gamma, m, paradigm
        )

        frozen = None
        if loss_id == "circle":
            # Capture the unperturbed weights so the probe matches the
            # detached semantics of the analytic gradient.
            emb = model.embed(features)
            if paradigm == "class_level":
                w = model.class_weights
                what = w / np.linalg.norm(w, axis=1, keepdims=True)
                sims = np.clip(emb @ what.T, -1, 1)
            else:
                sims = np.clip(emb @ emb.T, -1, 1)
            frozen = []
            n = features.shape[0]
            for b in range(n):
                if paradigm == "class_level":
                    y = int(labels[b])
                    mask = np.arange(w.shape[0]) != y
                    sp, sn = sims[b, y : y + 1], sims[b, mask]
                else:
                    pos = (labels == labels[b]) & (np.arange(n) != b)
                    sp, sn = sims[b, pos], sims[b, labels != labels[b]]
                frozen.append(
                    (np.maximum(1.25 - sp, 0.0), np.maximum(sn + 0.25, 0.0))
                )

        eps = 1e-6
        for name, grad in grads.items():
            arr = getattr(model, {"w1": "w1", "w2": "w2", "class_weights": "class_weights"}[name])
            flat_idx = [(i, j) for i in range(arr.shape[0]) for j in range(arr.shape[1])]
            for i, j in flat_idx[:: max(1, len(flat_idx) // 10)]:
                orig = arr[i, j]
                arr[i, j] = orig + eps
                hi = _batch_loss(model, features, labels, loss_id, gamma, m, paradigm, frozen)
                arr[i, j] = orig - eps
                lo = _batch_loss(model, features, labels, loss_id, gamma, m, paradigm, frozen)
                arr[i, j] = orig
                fd = (hi - lo) / (2 * eps)
                assert abs(fd - grad[i, j]) / max(1.0, abs(fd), abs(grad[i, j])) < 1e-4, (
                    name,
                    i,
                    j,
                )

    @pytest.mark.parametrize(
        "paradigm, labels",
        [
            # Targets in column 0 and in column N - 1 = 3: both edges of the swap.
            ("class_level", [3, 0, 0, 1, 1, 2, 2, 3, 0, 1]),
            # P x K blocks in shuffled class order.
            ("pair_wise", [2, 2, 2, 0, 0, 0, 1, 1, 1]),
        ],
        ids=["class_level", "pair_wise"],
    )
    def test_batch_matches_per_anchor_reference(self, paradigm, labels):
        # The dense rows must hold the groups the per-vector reference builds
        # anchor by anchor; the scores differ only by rounding.
        rng = np.random.default_rng(22)
        labels = np.array(labels)
        n_classes = 4 if paradigm == "class_level" else None
        model = init_model(22, din=4, embed_dim=5, n_classes=n_classes)
        features = rng.standard_normal((labels.size, 4))
        _, loss, mean_sp, mean_sn = backprop_to_params(
            model, features, labels, "circle", 16.0, 0.25, paradigm
        )
        emb, _ = model.forward(features)
        groups = []
        for b, y in enumerate(labels):
            if paradigm == "class_level":
                groups.append(class_similarities(emb[b], model.class_weights, int(y)))
            else:
                others = np.arange(labels.size) != b
                groups.append(
                    pairwise_similarities(
                        emb[b], emb[others & (labels == y)], emb[labels != y]
                    )
                )
        ref_loss = np.mean([loss_grad("circle", g, 16.0, 0.25).value for g in groups])
        assert loss == pytest.approx(ref_loss, rel=1e-9)
        assert mean_sp == pytest.approx(np.mean(np.concatenate([g.sp for g in groups])), rel=1e-12)
        assert mean_sn == pytest.approx(np.mean(np.concatenate([g.sn for g in groups])), rel=1e-12)

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 0, 0, 1, 1, 2, 2, 2, 2, 1],
            [0, 0, 0, 1, 1, 2],
            [0, 1, 0, 1],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0],
        ],
        ids=["ragged", "ragged-divisible", "interleaved", "repeated-block", "single-block"],
    )
    def test_unblocked_pair_wise_batch_refused(self, labels):
        model = init_model(0, din=4, embed_dim=5)
        features = np.random.default_rng(23).standard_normal((len(labels), 4))
        with pytest.raises(ValueError, match="P >= 2 blocks of K >= 2 rows"):
            backprop_to_params(model, features, labels, "circle", 16.0, 0.25, "pair_wise")

    def test_zero_loss_grad_means_zero_param_grads(self):
        # Triplet on a fully satisfied batch: no gradient anywhere.
        model = init_model(3, din=2, embed_dim=4)
        features = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-0.9, -0.1]])
        labels = np.array([0, 0, 1, 1])
        grads, loss, _, _ = backprop_to_params(
            model, features, labels, "triplet", 1.0, -1.5, "pair_wise"
        )
        assert loss == 0.0
        assert not np.any(grads["w1"])

    @pytest.mark.parametrize("paradigm", ["class_level", "pair_wise"])
    def test_overflowing_embedding_norm_rejected(self, paradigm):
        model = init_model(0, din=4, embed_dim=4, n_classes=2)
        model.w1 = np.full((4, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="embedding norm overflows float64"):
                backprop_to_params(
                    model, np.eye(4)[:2], np.array([0, 1]), "circle", 64.0, 0.25, paradigm
                )

    @pytest.mark.parametrize(
        "row, message",
        [
            ([1e200] * 4, "class weight norm overflows float64"),
            ([0.0] * 4, "zero-norm class weight"),
            ([0.5, np.nan, 0.5, 0.5], "non-finite class weight"),
        ],
        ids=["overflow", "zero", "nan"],
    )
    def test_degenerate_class_weights_rejected(self, row, message):
        model = init_model(0, din=4, embed_dim=4, n_classes=2)
        model.class_weights[1] = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^degenerate feature: {message}$"):
                backprop_to_params(
                    model, np.eye(4)[:2], np.array([0, 1]), "circle", 64.0, 0.25, "class_level"
                )

    def test_dimension_mismatch(self):
        model = init_model(0, din=4, embed_dim=4)
        with pytest.raises(ValueError):
            backprop_to_params(
                model, np.zeros((2, 3)), np.array([0, 1]), "unified", 1.0, 0.0, "pair_wise"
            )

    def test_aligned_target_row_gradient_orthogonal_to_radial(self):
        # x aligned with its target row: the cosine Jacobian kills the
        # radial direction, so that row's gradient is orthogonal to x.
        model = init_model(1, din=4, embed_dim=4)
        model.w1 = np.eye(4)
        model.class_weights = np.eye(4)[:3] + 0.0
        features = np.array([[1.0, 0.0, 0.0, 0.0]])
        labels = np.array([0])
        grads, _, _, _ = backprop_to_params(
            model, features, labels, "unified", 4.0, 0.1, "class_level"
        )
        radial = grads["class_weights"][0] @ features[0]
        assert abs(radial) < 1e-12


class TestReducedModePin:
    """In reduced mode the alpha-form circle kernel reproduces the m-form
    kernel it replaced: value, z and d_sn bit for bit, d_sp to 1e-14.

    d_sp's slope is sp - Op in one form and (sp - 1) - m in the other, so
    they differ by the rounding of Op = 1 + m, at most 2**-53 * |Op|.
    Relative to sp - Op that stays below 1e-14 while every score is at
    least 0.05 below Op, as cosines are for m >= 0.05. For m < 0.05 a
    score can come arbitrarily close to Op, and the bound is that
    rounding over |sp - Op|.
    """

    @staticmethod
    def _assert_pinned(g, p, rtol=1e-14):
        lg = circle_grad(g, p)
        value, d_sp, d_sn, z = reference.reduced_circle_grad(g, p)
        assert np.asarray(lg.value).tobytes() == value.tobytes()
        assert np.asarray(lg.z).tobytes() == z.tobytes()
        assert lg.d_sn.tobytes() == d_sn.tobytes()
        assert np.all(np.abs(lg.d_sp - d_sp) <= rtol * np.abs(d_sp))
        # Cut-off entries are +0.0: a -0.0 would print as -0 in gradfield.csv.
        assert not np.any(np.signbit(lg.d_sn[g.sn + p.m <= 0.0]))
        assert not np.any(np.signbit(lg.d_sp[g.sp >= p.op]))

    def test_single_anchors(self):
        rng = np.random.default_rng(41)
        for gamma in (1.0, 64.0, 256.0):
            for _ in range(1500):
                p = CircleParams.reduced(gamma, rng.uniform(0.05, 0.5))
                self._assert_pinned(random_group(rng), p)
            for _ in range(500):
                p = CircleParams.reduced(gamma, rng.uniform(-0.2, 0.05))
                g = random_group(rng)
                self._assert_pinned(g, p, 1e-14 + 2.0**-52 * p.op / np.abs(g.sp - p.op))
        # Cut-offs on both sides, and scores exactly at the optima.
        p = CircleParams.reduced(64.0, 0.25)
        self._assert_pinned(group([0.5, 1.0, 1.25], [-0.9, -0.25, 0.5]), p)

    @pytest.mark.parametrize("build", [_pairwise_batch, _class_level_batch])
    def test_masked_batches(self, build):
        rng = np.random.default_rng(42)
        for _ in range(100):
            self._assert_pinned(build(rng), CircleParams.reduced(64.0, rng.uniform(0.05, 0.5)))

    def test_gradfield_csv_bytes_kept(self, tmp_path):
        p = CircleParams.reduced(256.0, 0.25)
        rows = gradient_field("circle", p.gamma, p.m, GridSpec((-1.0, 1.0), (-1.0, 1.0), 101))
        sn, sp = rows[:, :1], rows[:, 1:2]
        value, d_sp, d_sn, _ = reference.reduced_circle_grad(SimilarityGroup(sp=sp, sn=sn), p)
        write_gradient_field_csv(tmp_path / "field.csv", rows)
        reference.write_gradient_field_csv(
            tmp_path / "want.csv", np.column_stack((sn, sp, d_sn, d_sp, value))
        )
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
