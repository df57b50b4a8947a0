"""Acceptance gate: one printed pass/fail line per criterion.

Each test exercises one numbered criterion at its stated tolerance and
runtime budget. Verdict lines are echoed immediately and also queued on
the conftest hook so they appear in the terminal summary despite
pytest's per-test output capture.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from pairsim.cli import main as cli_main
from pairsim.dataio import ClusterSpec, gen_clusters
from pairsim.engine import TrainConfig, train
from pairsim.evalkit import similarity_scatter, sweep
from pairsim.geometry import GridSpec, convergence_target, decision_boundary, gradient_field
from pairsim.grads import fd_check, loss_grad
from pairsim.losses import (
    CircleParams,
    UnifiedParams,
    am_softmax_loss,
    triplet_hard_loss,
    unified_loss,
)
from pairsim.simcore import SimilarityGroup

from conftest import ACCEPTANCE_LINES


@contextmanager
def criterion(num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
        print(line, flush=True)
        ACCEPTANCE_LINES.append(line)


def group(sp, sn):
    return SimilarityGroup(sp=np.atleast_1d(sp), sn=np.atleast_1d(sn))


# ---------------------------------------------------------------- benchmark

BENCH_SPEC = ClusterSpec(16, 20, 32, center_scale=1.0, noise_sigma=0.1, seed=7)

CIRCLE_CONFIG = TrainConfig(
    paradigm="pair_wise",
    loss="circle",
    gamma=128.0,
    m=0.25,
    lr=0.3,
    iterations=1500,
    p_classes=8,
    k_samples=4,
    embed_dim=32,
    hidden=64,
    seed=7,
)
AM_CONFIG = replace(CIRCLE_CONFIG, loss="am_softmax", m=0.35)


@pytest.fixture(scope="module")
def benchmark_dataset():
    return gen_clusters(BENCH_SPEC)


@pytest.fixture(scope="module")
def benchmark_runs(benchmark_dataset):
    """Seeded circle / AM-Softmax runs shared by the seeded criteria.

    Returns ({(loss, seed): RunRecord}, total training seconds).
    """
    runs, start = {}, time.perf_counter()
    for seed in (7, 8, 9):
        for config in (CIRCLE_CONFIG, AM_CONFIG):
            seeded = replace(config, seed=seed)
            runs[(config.loss, seed)] = train(benchmark_dataset, seeded)
    return runs, time.perf_counter() - start


# ---------------------------------------------------------------- criteria


def test_criterion_1_unified_am_identity():
    # |unified - am_softmax| <= 1e-12 relative over 1e5 random K=1 cases.
    with criterion(1, "unified/AM-Softmax identity"):
        rng = np.random.default_rng(101)
        # CPU time of this process: the loop is pure Python and calls no
        # BLAS, so load from other processes on the host does not count.
        start = time.process_time()
        worst = 0.0
        for _ in range(100_000):
            sp = rng.uniform(-1, 1)
            sn = rng.uniform(-1, 1, rng.integers(1, 33))
            p = UnifiedParams(rng.uniform(0.5, 512), rng.uniform(-0.2, 0.5))
            a = unified_loss(group(sp, sn), p)
            b = am_softmax_loss(sp, sn, p)
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        elapsed = time.process_time() - start
        assert worst <= 1e-12
        assert elapsed < 5.0


def test_criterion_2_triplet_limit():
    # (1/gamma) * L_uni approaches the hinge within log(1+KL)/gamma.
    with criterion(2, "triplet hard-mining limit"):
        rng = np.random.default_rng(202)
        gamma, m = 1e4, 0.3
        # CPU time, as in criterion 1.
        start = time.process_time()
        for _ in range(10_000):
            k = int(rng.integers(1, 9))
            l = int(rng.integers(1, 9))
            g = group(rng.uniform(-1, 1, k), rng.uniform(-1, 1, l))
            scaled = unified_loss(g, UnifiedParams(gamma, m)) / gamma
            hinge = triplet_hard_loss(g, m)
            assert abs(scaled - hinge) <= math.log(1 + k * l) / gamma
        elapsed = time.process_time() - start
        assert elapsed < 5.0


def test_criterion_3_gradient_oracle():
    # Frozen-weight finite differences agree to < 1e-5; differentiating
    # through the weights must disagree materially away from sn = m.
    with criterion(3, "detached-weight gradient oracle"):
        rng = np.random.default_rng(303)
        p = CircleParams.reduced(4.0, 0.25)
        start = time.perf_counter()
        worst = 0.0
        checked = 0
        while checked < 1_000:
            g = group(
                rng.uniform(-1, 1, rng.integers(1, 6)),
                rng.uniform(-1, 1, rng.integers(1, 6)),
            )
            near_kink = np.any(np.abs(p.op - g.sp) < 1e-5) or np.any(
                np.abs(g.sn - p.on) < 1e-5
            )
            if near_kink:
                continue
            worst = max(worst, fd_check("circle", g, p, eps=1e-6, mode="frozen"))
            checked += 1
        assert worst < 1e-5

        g = group(0.5, 0.6)  # sn well away from m = 0.25
        full_err = fd_check("circle", g, p, eps=1e-6, mode="full")
        assert full_err > 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_4_boundary_geometry():
    # Reduced boundary is the circle centered (0, 1) with radius sqrt(2)m;
    # the target (m, 1-m) minimizes the gap sp - sn over the boundary.
    with criterion(4, "decision boundary and target"):
        for m in np.arange(0.05, 1.0, 0.05):
            b = decision_boundary(CircleParams.reduced(64.0, m))
            assert b.center_sn == 0.0 and b.center_sp == 1.0
            assert abs(b.radius - math.sqrt(2) * m) <= 1e-12
            sn_t, sp_t = convergence_target(m)
            assert abs(sn_t - m) <= 1e-12 and abs(sp_t - (1 - m)) <= 1e-12
            theta = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
            sn = b.radius * np.cos(theta)
            sp = 1.0 + b.radius * np.sin(theta)
            assert np.all(sp - sn >= (sp_t - sn_t) - 1e-9)


def test_criterion_5_gradient_field_properties():
    # 101x101 single-pair fields over [0, 1]^2.
    with criterion(5, "gradient-field geometry"):
        grid = GridSpec(sn_range=(0.0, 1.0), sp_range=(0.0, 1.0), resolution=101)
        fields = {
            loss_id: gradient_field(loss_id, 256.0, 0.25, grid)
            for loss_id in ("triplet", "am_softmax", "circle")
        }
        # (a) equal-magnitude gradients for the unweighted losses.
        for loss_id in ("triplet", "am_softmax"):
            rows = fields[loss_id]
            np.testing.assert_array_equal(np.abs(rows[:, 2]), np.abs(rows[:, 3]))
        # (b) circle loss emphasizes sn at the unbalanced point (0.8, 0.8).
        rows = fields["circle"]
        at_a = rows[np.isclose(rows[:, 0], 0.8) & np.isclose(rows[:, 1], 0.8)]
        assert at_a.shape[0] == 1
        assert abs(at_a[0, 2]) > abs(at_a[0, 3])
        # (c) attenuation: converged region has vanishing gradients.
        for rows in fields.values():
            tiny = rows[:, 4] < 1e-12
            assert np.all(np.hypot(rows[tiny, 2], rows[tiny, 3]) < 1e-9)


def test_criterion_6_training_dynamics(benchmark_runs):
    # Early phase favors raising sp over lowering sn; the final gap beats
    # the AM-Softmax comparator. Strict on seed 7, documented on 7/8/9.
    with criterion(6, "seeded training dynamics"):
        runs, train_seconds = benchmark_runs
        for seed in (7, 8, 9):
            circle, am = runs[("circle", seed)], runs[("am_softmax", seed)]
            early = CIRCLE_CONFIG.iterations // 10
            window = max(1, early // 10)
            sp0 = float(np.mean(circle.mean_sp[:window]))
            sn0 = float(np.mean(circle.mean_sn[:window]))
            sp1 = float(np.mean(circle.mean_sp[early - window : early]))
            sn1 = float(np.mean(circle.mean_sn[early - window : early]))
            assert (sp1 - sp0) > (sn0 - sn1)
            tail = slice(-50, None)
            gap_c = float(np.mean(circle.mean_sp[tail] - circle.mean_sn[tail]))
            gap_a = float(np.mean(am.mean_sp[tail] - am.mean_sn[tail]))
            assert gap_c > gap_a
        assert train_seconds < 60.0


def test_criterion_7_scatter_concentration(benchmark_runs, benchmark_dataset):
    # Hardest-pair scatter: tighter for circle than AM-Softmax, and at
    # least 90% of anchors end inside the circle decision boundary.
    with criterion(7, "hardest-pair concentration"):
        runs, _ = benchmark_runs
        circle = similarity_scatter(runs[("circle", 7)].model, benchmark_dataset)
        am = similarity_scatter(runs[("am_softmax", 7)].model, benchmark_dataset)
        var_c = float(circle.points.var(axis=0).sum())
        var_a = float(am.points.var(axis=0).sum())
        assert var_c < var_a
        sn, sp = circle.points[:, 0], circle.points[:, 1]
        inside = sn**2 + (sp - 1.0) ** 2 < 2 * 0.25**2
        assert np.mean(inside) >= 0.90


def test_criterion_8_gamma_robustness(benchmark_dataset):
    # R@1 spread across the gamma sweep stays within 0.05 absolute.
    with criterion(8, "scale-factor robustness"):
        start = time.perf_counter()
        rows = sweep(
            benchmark_dataset, CIRCLE_CONFIG, "gamma", [32, 64, 128, 256, 512, 1024]
        )
        recalls = [r1 for _, r1 in rows]
        assert max(recalls) - min(recalls) <= 0.05
        assert time.perf_counter() - start < 600.0


def test_criterion_9_cli_determinism(tmp_path):
    # Identical train invocations produce byte-identical artifacts.
    with criterion(9, "end-to-end determinism"):
        data = tmp_path / "toy.csv"
        assert cli_main(
            ["gen", "--classes", "6", "--per-class", "8", "--dim", "16",
             "--seed", "5", "-o", str(data)]
        ) == 0
        argv = [
            "train", "--data", str(data), "--loss", "circle", "--gamma", "128",
            "--lr", "0.1", "--iterations", "40", "--p-classes", "4",
            "--k-samples", "4", "--embed-dim", "16", "--seed", "5",
            "--out-dir", str(tmp_path / "runs"),
        ]
        assert cli_main(argv) == 0
        (run_dir,) = (p for p in (tmp_path / "runs").iterdir() if p.is_dir())
        ckpt = (run_dir / "checkpoint.json").read_bytes()
        record = (run_dir / "record.csv").read_bytes()
        assert cli_main(argv) == 0
        assert (run_dir / "checkpoint.json").read_bytes() == ckpt
        assert (run_dir / "record.csv").read_bytes() == record


def test_criterion_10_numerical_safety():
    # No NaN/Inf from any loss or gradient across the stated input box.
    with criterion(10, "numerical safety fuzz"):
        rng = np.random.default_rng(1010)
        loss_ids = ("circle", "unified", "am_softmax", "normface", "softmax", "triplet")
        for case in range(100_000):
            g = group(
                rng.uniform(-1, 1, rng.integers(1, 5)),
                rng.uniform(-1, 1, rng.integers(1, 5)),
            )
            gamma = float(np.exp(rng.uniform(0, np.log(2.0**16))))
            m = float(rng.uniform(-0.2, 0.95))
            out = loss_grad(loss_ids[case % 6], g, gamma, m)
            assert math.isfinite(out.value)
            assert np.all(np.isfinite(out.d_sp)) and np.all(np.isfinite(out.d_sn))
