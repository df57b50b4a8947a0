import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from pairsim.simcore import SimilarityGroup, unit_rows, unit_rows_grad
from reference import class_similarities, cosine, l2_normalize, pairwise_similarities

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=8),
    elements=st.floats(-100, 100, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestL2Normalize:
    def test_3_4_5_triangle(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_identity_case(self):
        np.testing.assert_array_equal(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            l2_normalize([0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            l2_normalize([1.0, np.nan])

    @given(finite_vectors)
    def test_unit_norm(self, v):
        assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-9


class TestUnitRows:
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                  elements=st.floats(-1e150, 1e150, allow_nan=False)).filter(
        lambda x: (np.linalg.norm(x, axis=1) > 1e-100).all()))
    def test_matches_reference_row_for_row(self, x):
        # The reference's 1-D norm may sum in another order: equal up to rounding.
        unit, norms = unit_rows(x, "row")
        assert norms.shape == (x.shape[0], 1)
        for row, u, n in zip(x, unit, norms[:, 0]):
            np.testing.assert_allclose(u, l2_normalize(row), rtol=1e-15, atol=0)
            assert n == pytest.approx(np.linalg.norm(row), rel=1e-15)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([1.0, np.nan], "non-finite row"),
            ([np.inf, 0.0], "non-finite row"),
            ([1e200, -1e200], "row norm overflows float64"),
            ([0.0, 0.0], "zero-norm row"),
        ],
    )
    def test_refusals(self, row, message):
        x = np.array([[3.0, 4.0], row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^degenerate feature: {message}$"):
                unit_rows(x, "row")

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        upstream = rng.standard_normal((4, 3))
        unit, norms = unit_rows(x, "row")
        grad = unit_rows_grad(upstream, unit, norms)
        eps = 1e-6
        for i, j in np.ndindex(x.shape):
            step = np.zeros_like(x)
            step[i, j] = eps
            hi = np.sum(upstream * unit_rows(x + step, "row")[0])
            lo = np.sum(upstream * unit_rows(x - step, "row")[0])
            assert (hi - lo) / (2 * eps) == pytest.approx(grad[i, j], abs=1e-8)


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_parallel(self):
        assert cosine([1, 1], [2, 2]) == pytest.approx(1.0, abs=1e-15)

    def test_antiparallel(self):
        assert cosine([1, 0], [-1, 0]) == -1.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            cosine([0, 0], [1, 0])

    @given(finite_vectors, st.data())
    def test_symmetry(self, a, data):
        b = data.draw(
            arrays(
                np.float64, a.shape, elements=st.floats(-100, 100, allow_nan=False)
            ).filter(lambda v: np.linalg.norm(v) > 1e-6)
        )
        assert cosine(a, b) == cosine(b, a)

    @given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, a, lam):
        b = np.roll(a, 1) + 0.5
        if np.linalg.norm(b) <= 1e-6:
            return
        assert abs(cosine(lam * a, b) - cosine(a, b)) < 1e-12

    def test_clamped_to_unit_interval(self):
        v = np.full(50, 0.1)
        assert cosine(v, v) <= 1.0


class TestClassSimilarities:
    def test_axis_aligned(self):
        g = class_similarities([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 0)
        np.testing.assert_array_equal(g.sp, [1.0])
        np.testing.assert_array_equal(g.sn, [0.0])

    def test_three_classes_ascending_order(self):
        g = class_similarities([1.0, 0.0], [[1, 0], [0, 1], [-1, 0]], 0)
        np.testing.assert_array_equal(g.sp, [1.0])
        np.testing.assert_array_equal(g.sn, [0.0, -1.0])

    def test_self_match(self):
        w = np.array([[0.3, 0.7], [2.0, -1.0]])
        g = class_similarities(w[1], w, 1)
        np.testing.assert_allclose(g.sp, [1.0])
        np.testing.assert_allclose(g.sn, [cosine(w[1], w[0])])

    def test_shape_always_1_and_n_minus_1(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            w = rng.standard_normal((n, 4))
            g = class_similarities(rng.standard_normal(4), w, n - 1)
            assert g.k == 1 and g.l == n - 1

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            class_similarities([1.0, 0.0], [[1, 0], [0, 1]], 2)

    def test_degenerate_row(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            class_similarities([1.0, 0.0], [[1, 0], [0, 0]], 0)


class TestPairwiseSimilarities:
    def test_basic(self):
        g = pairwise_similarities([1.0, 0.0], [[1.0, 0.0]], [[0.0, 1.0]])
        np.testing.assert_array_equal(g.sp, [1.0])
        np.testing.assert_array_equal(g.sn, [0.0])

    def test_identical_positives(self):
        g = pairwise_similarities([1.0, 0.0], [[1.0, 0.0], [2.0, 0.0]], [[0.0, 1.0]])
        np.testing.assert_array_equal(g.sp, [1.0, 1.0])

    def test_counts_match_set_sizes(self):
        rng = np.random.default_rng(1)
        g = pairwise_similarities(
            rng.standard_normal(3),
            list(rng.standard_normal((4, 3))),
            list(rng.standard_normal((7, 3))),
        )
        assert g.k == 4 and g.l == 7

    def test_empty_negatives(self):
        with pytest.raises(ValueError, match="empty similarity side"):
            pairwise_similarities([1.0, 0.0], [[1.0, 0.0]], [])


class TestSimilarityGroup:
    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="empty similarity side"):
            SimilarityGroup(sp=[], sn=[0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SimilarityGroup(sp=[np.nan], sn=[0.1])

    def test_anchor_without_members_rejected(self):
        scores = np.zeros((2, 3))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ValueError, match="empty similarity side"):
            SimilarityGroup(sp=scores, sn=scores, sn_mask=mask)

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="mask shape"):
            SimilarityGroup(sp=np.zeros((2, 3)), sn=np.zeros((2, 3)), sp_mask=np.ones((2, 2)))

    def test_rows_must_pair_up(self):
        with pytest.raises(ValueError, match="B x K"):
            SimilarityGroup(sp=np.zeros((2, 1)), sn=np.zeros((3, 4)))
