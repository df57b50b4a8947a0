import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim.losses import (
    CircleParams,
    UnifiedParams,
    am_softmax_loss,
    circle_loss,
    circle_weights,
    triplet_hard_loss,
    unified_loss,
    unified_to_triplet_gap,
)
from pairsim.simcore import SimilarityGroup

LN2 = math.log(2.0)

# Arbitrary-precision (mpmath, 50 digits) evaluations of the closed forms,
# freezing the oracle values used below.
AM_ORACLE = 6.2136804750849647337e-13  # sp=0.9, sn=[0.1,0.1], gamma=64, m=0.35
CIRCLE_ORACLE = 0.77904645213224041606  # sp=0.5, sn=0.2, reduced m=0.25, gamma=1


def group(sp, sn):
    return SimilarityGroup(sp=np.atleast_1d(sp), sn=np.atleast_1d(sn))


def random_group(rng, max_k=8, max_l=8):
    k = int(rng.integers(1, max_k + 1))
    l = int(rng.integers(1, max_l + 1))
    return group(rng.uniform(-1, 1, k), rng.uniform(-1, 1, l))


class TestUnifiedLoss:
    def test_zero_exponent_gives_ln2(self):
        assert unified_loss(group(0.5, 0.5), UnifiedParams(1, 0)) == pytest.approx(LN2)

    def test_point_on_margin_boundary(self):
        # {sn, sp} = {0.2, 0.5} sits exactly on the m=0.3 line.
        assert unified_loss(group(0.5, 0.2), UnifiedParams(1, 0.3)) == pytest.approx(LN2)

    def test_deep_satisfied_region_stays_positive(self):
        v = unified_loss(group(1.0, -1.0), UnifiedParams(256, 0))
        assert 0.0 < v < 1e-200
        assert math.isfinite(v)

    def test_huge_gamma_is_finite(self):
        v = unified_loss(group(-1.0, 1.0), UnifiedParams(2**16, 0.5))
        assert math.isfinite(v)

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError):
            unified_loss(group(np.nan, 0.5), UnifiedParams(1, 0))

    def test_monotone_in_sn_and_sp(self):
        p = UnifiedParams(4, 0.1)
        base = unified_loss(group([0.4, 0.6], [0.1, 0.2]), p)
        assert unified_loss(group([0.4, 0.6], [0.1, 0.25]), p) > base
        assert unified_loss(group([0.45, 0.6], [0.1, 0.2]), p) < base


class TestAmSoftmaxLoss:
    def test_two_way_tie(self):
        assert am_softmax_loss(0.5, [0.5], UnifiedParams(1, 0)) == pytest.approx(LN2)

    def test_oracle_value(self):
        v = am_softmax_loss(0.9, [0.1, 0.1], UnifiedParams(64, 0.35))
        assert v == pytest.approx(AM_ORACLE, rel=1e-12)

    @given(
        st.floats(-1, 1),
        st.lists(st.floats(-1, 1), min_size=1, max_size=16),
        st.floats(0.5, 512),
        st.floats(-0.2, 0.5),
    )
    @settings(max_examples=200)
    def test_identity_with_unified(self, sp, sn, gamma, m):
        p = UnifiedParams(gamma, m)
        a = am_softmax_loss(sp, sn, p)
        b = unified_loss(group(sp, sn), p)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_plain_softmax_degeneration(self):
        # gamma=1, m=0 on raw logits is softmax cross-entropy.
        logits = np.array([2.0, -1.0, 0.5])
        v = am_softmax_loss(logits[0], logits[1:], UnifiedParams(1, 0))
        expected = -math.log(math.exp(2.0) / np.sum(np.exp(logits)))
        assert v == pytest.approx(expected, rel=1e-14)


class TestTripletHardLoss:
    def test_boundary_point_is_zero(self):
        assert triplet_hard_loss(group(0.5, 0.2), 0.3) == 0.0

    def test_violating_pair(self):
        assert triplet_hard_loss(group(0.5, 0.2), 0.4) == pytest.approx(0.1)

    def test_hardest_pair_selected(self):
        assert triplet_hard_loss(group([0.9, 0.4], [0.1, 0.3]), 0.2) == pytest.approx(0.1)


class TestCircleWeights:
    def test_emphasis_point(self):
        ap, an = circle_weights(group(0.8, 0.8), CircleParams.reduced(1, 0.25))
        np.testing.assert_allclose(ap, [0.45])
        np.testing.assert_allclose(an, [1.05])

    def test_cutoff_at_optimum(self):
        ap, _ = circle_weights(group(1.25, 0.0), CircleParams.reduced(1, 0.25))
        np.testing.assert_array_equal(ap, [0.0])

    def test_negative_sn_cut_off(self):
        _, an = circle_weights(group(0.5, -0.5), CircleParams.reduced(1, 0.25))
        np.testing.assert_array_equal(an, [0.0])

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        p = CircleParams.reduced(64, 0.25)
        for _ in range(50):
            ap, an = circle_weights(random_group(rng), p)
            assert np.all(ap >= 0) and np.all(an >= 0)


class TestCircleLoss:
    def test_convergence_target_gives_ln2(self):
        for gamma in (1, 64, 256):
            p = CircleParams.reduced(gamma, 0.25)
            assert circle_loss(group(0.75, 0.25), p) == pytest.approx(LN2)

    def test_optimum_corner(self):
        # sp=1, sn=-m: alpha_n cut off, sp term exponent -gamma*m^2.
        for gamma in (1.0, 256.0):
            p = CircleParams.reduced(gamma, 0.25)
            expected = math.log1p(math.exp(-gamma * 0.25**2))
            assert circle_loss(group(1.0, -0.25), p) == pytest.approx(expected, rel=1e-12)

    def test_oracle_value(self):
        v = circle_loss(group(0.5, 0.2), CircleParams.reduced(1, 0.25))
        assert v == pytest.approx(CIRCLE_ORACLE, rel=1e-14)

    def test_marginless_variant_via_general_mode(self):
        # Dp = Dn = 0 recovers the margin-free formulation.
        p = CircleParams.general(2.0, op=1.25, on=-0.25, dp=0.0, dn=0.25)
        g = group([0.3, 0.7], [0.1, 0.4])
        ap = np.maximum(1.25 - g.sp, 0)
        an = np.maximum(g.sn + 0.25, 0)
        expected = math.log1p(
            np.sum(np.exp(2.0 * an * (g.sn - 0.25))) * np.sum(np.exp(-2.0 * ap * g.sp))
        )
        assert circle_loss(g, p) == pytest.approx(expected, rel=1e-12)

    def test_reduced_default_validation(self):
        with pytest.raises(ValueError):
            CircleParams.reduced(64, 1.5)
        with pytest.raises(ValueError):
            CircleParams.reduced(-1, 0.25)
        # Negative m down to -0.2 is allowed for sweeps.
        CircleParams.reduced(64, -0.2)

    def test_general_mode_validation(self):
        with pytest.raises(ValueError, match="Op > Dp"):
            CircleParams.general(1.0, op=0.5, on=0.0, dp=0.6, dn=0.1)

    def test_stability_sweep(self):
        rng = np.random.default_rng(7)
        for gamma in (1.0, 256.0, 2.0**16):
            for m in (-0.2, 0.25, 0.95):
                p = CircleParams.reduced(gamma, m)
                for _ in range(20):
                    v = circle_loss(random_group(rng), p)
                    assert math.isfinite(v) and v >= 0.0


class TestTripletLimit:
    def test_bound_single_pair(self):
        gap = unified_to_triplet_gap(group(0.5, 0.2), 0.4, 1e4)
        assert gap <= math.log(2) / 1e4

    def test_bound_value(self):
        assert unified_to_triplet_gap(group(0.5, 0.2), 0.4, 1e4) < 6.94e-5

    def test_satisfied_region_gap_vanishes(self):
        assert unified_to_triplet_gap(group(0.9, 0.0), 0.1, 1e4) < 1e-300

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_bound_randomized(self, k, l, seed):
        rng = np.random.default_rng(seed)
        g = group(rng.uniform(-1, 1, k), rng.uniform(-1, 1, l))
        gamma = 1e4
        assert unified_to_triplet_gap(g, 0.3, gamma) <= math.log(1 + k * l) / gamma


class TestOneAnchorOnly:
    # Groups the forward losses refuse: the kernels evaluate them per anchor.
    @pytest.mark.parametrize(
        "g", [SimilarityGroup(sp=[[0.5], [0.7]], sn=[[0.1, 0.9], [0.3, 0.8]])], ids=["batched"]
    )
    @pytest.mark.parametrize(
        "loss",
        [
            lambda g: unified_loss(g, UnifiedParams(8, 0.25)),
            lambda g: circle_loss(g, CircleParams.reduced(8, 0.25)),
            lambda g: triplet_hard_loss(g, 0.25),
            lambda g: unified_to_triplet_gap(g, 0.25, 8.0),
        ],
        ids=["unified_loss", "circle_loss", "triplet_hard_loss", "unified_to_triplet_gap"],
    )
    def test_group_refused(self, g, loss):
        with pytest.raises(ValueError, match="takes one anchor; the kernels circle_grad"):
            loss(g)

    def test_am_softmax_loss(self):
        with pytest.raises(ValueError, match="one anchor's sn; unified_grad takes batches"):
            am_softmax_loss(0.5, [[0.1, 0.9], [0.3, 0.8]], UnifiedParams(8, 0.25))


class TestNonNegativity:
    def test_all_losses_strictly_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_group(rng)
            assert unified_loss(g, UnifiedParams(32, 0.2)) > 0.0
            assert circle_loss(g, CircleParams.reduced(32, 0.25)) > 0.0
