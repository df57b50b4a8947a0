import math

import numpy as np
import pytest

from pairsim.geometry import (
    GridSpec,
    convergence_target,
    decision_boundary,
    gradient_field,
    on_boundary,
    write_gradient_field_csv,
)
from pairsim.losses import CircleParams


class TestDecisionBoundary:
    def test_reduced_circle(self):
        b = decision_boundary(CircleParams.reduced(256, 0.25))
        assert b.center_sn == 0.0
        assert b.center_sp == 1.0
        assert b.radius == pytest.approx(0.3535534, abs=1e-7)

    def test_reduced_matches_general_formula(self):
        for m in np.arange(0.05, 1.0, 0.05):
            red = decision_boundary(CircleParams.reduced(1, m))
            gen = decision_boundary(
                CircleParams.general(1, op=1 + m, on=-m, dp=1 - m, dn=m)
            )
            assert abs(red.radius - math.sqrt(2) * m) < 1e-12
            assert abs(red.radius - gen.radius) < 1e-12
            assert red.center_sn == gen.center_sn and red.center_sp == gen.center_sp

    def test_degenerate_radius(self):
        p = CircleParams(gamma=1, op=1, on=0, dp=1, dn=0, is_reduced=True)
        with pytest.raises(ValueError, match="degenerate boundary"):
            decision_boundary(p)

    def test_general_example(self):
        b = decision_boundary(CircleParams.general(1, op=1.5, on=-0.5, dp=0.5, dn=0.5))
        assert (b.center_sn, b.center_sp) == (0.0, 1.0)
        assert b.radius == pytest.approx(math.sqrt(2) / 2)


class TestConvergenceTarget:
    def test_quarter_margin(self):
        assert convergence_target(0.25) == (0.25, 0.75)

    def test_small_margin_approaches_optimum(self):
        sn, sp = convergence_target(1e-9)
        assert abs(sn) < 1e-8 and abs(sp - 1.0) < 1e-8

    def test_lies_on_reduced_boundary(self):
        for m in (0.1, 0.25, 0.5, 0.9):
            sn, sp = convergence_target(m)
            assert abs(sn**2 + (sp - 1) ** 2 - 2 * m**2) < 1e-12

    def test_gap_minimal_on_circle(self):
        m = 0.25
        sn_t, sp_t = convergence_target(m)
        gap_t = sp_t - sn_t
        theta = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        sn = math.sqrt(2) * m * np.cos(theta)
        sp = 1 + math.sqrt(2) * m * np.sin(theta)
        valid = (np.abs(sn) <= 1) & (np.abs(sp) <= 1)
        assert np.all((sp[valid] - sn[valid]) >= gap_t - 1e-9)

    def test_range_check(self):
        with pytest.raises(ValueError):
            convergence_target(0.0)
        with pytest.raises(ValueError):
            convergence_target(1.0)


class TestOnBoundary:
    def test_target_is_on_boundary(self):
        p = CircleParams.reduced(64, 0.25)
        assert on_boundary(0.25, 0.75, p, 1e-9)

    def test_optimum_is_off_boundary(self):
        p = CircleParams.reduced(64, 0.25)
        assert not on_boundary(0.0, 1.0, p, 1e-6)

    def test_am_softmax_line_point_not_on_circle(self):
        p = CircleParams.reduced(64, 0.3)
        assert not on_boundary(0.2, 0.5, p, 1e-6)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            on_boundary(0.2, 0.5, CircleParams.reduced(1, 0.25), 0.0)


class TestGradientField:
    def test_triplet_field_is_hinge_indicator(self):
        rows = gradient_field("triplet", 1.0, 0.25, GridSpec(resolution=21))
        sn, sp, d_sn, d_sp, loss = rows.T
        violating = loss > 1e-12
        assert np.all(d_sn[violating] == 1.0)
        assert np.all(d_sp[violating] == -1.0)
        assert np.all(d_sn[~violating] == 0.0)

    def test_circle_emphasizes_sn_at_a(self):
        rows = gradient_field("circle", 256.0, 0.25, GridSpec(resolution=11))
        at_a = rows[(np.isclose(rows[:, 0], 0.8)) & (np.isclose(rows[:, 1], 0.8))]
        assert at_a.shape[0] == 1
        assert abs(at_a[0, 2]) > abs(at_a[0, 3])

    def test_attenuated_where_converged(self):
        for loss_id in ("triplet", "am_softmax", "circle"):
            rows = gradient_field(loss_id, 256.0, 0.25, GridSpec(resolution=21))
            tiny = rows[:, 4] < 1e-12
            norms = np.hypot(rows[tiny, 2], rows[tiny, 3])
            assert np.all(norms < 1e-9)

    def test_row_major_order(self):
        rows = gradient_field("circle", 1.0, 0.25, GridSpec(resolution=3))
        np.testing.assert_allclose(rows[:3, 0], 0.0)
        np.testing.assert_allclose(rows[:3, 1], [0.0, 0.5, 1.0])

    def test_one_kernel_call_per_field(self, monkeypatch):
        from pairsim import geometry

        calls = []
        original = geometry.loss_grad

        def spy(loss_id, g, gamma, m):
            calls.append(g.sp.shape)
            return original(loss_id, g, gamma, m)

        monkeypatch.setattr(geometry, "loss_grad", spy)
        gradient_field("circle", 64, 0.25, GridSpec(resolution=7))
        assert calls == [(49, 1)]

    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            GridSpec(resolution=1)

    @pytest.mark.parametrize(
        "ranges",
        [
            {"sn_range": (-math.inf, 1.0)},
            {"sp_range": (0.0, math.inf)},
            {"sn_range": (math.nan, 1.0)},
            {"sp_range": (0.0, math.nan)},
            {"sn_range": (-1e308, 1e308)},  # finite bounds, infinite width
            {"sp_range": (1.0, 0.0)},
        ],
    )
    def test_range_validation_names_the_range(self, ranges):
        (name,) = ranges
        with pytest.raises(ValueError, match=f"grid {name} .* finite, non-empty interval"):
            GridSpec(**ranges)

    def test_csv_format(self, tmp_path):
        rows = gradient_field("circle", 64.0, 0.25, GridSpec(resolution=2))
        path = tmp_path / "field.csv"
        write_gradient_field_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "sn,sp,d_sn,d_sp,loss"
        assert len(lines) == 5
        assert all(len(line.split(",")) == 5 for line in lines[1:])
