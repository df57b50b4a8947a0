"""Host-speed probe: a fixed kernel timed next to every measured step.

The benchmark shares its cores with other tenants of the host, which slow
it by up to 70 % for stretches from a second to well over a minute. A run
that falls wholly inside such a stretch is slow in every job, so neither
the median nor the minimum over its jobs removes the slowdown. The probe
measures it instead: ``probe_seconds`` runs a fixed mix of interpreter
work, small numpy calls, a small matmul and a sort (the mix the program
runs), and a step's time is scaled by ``REFERENCE_S / probe time`` taken
beside it. The probe is the benchmark's own code, so a change to the
program moves the scaled times in full while the host's speed does not.
``REFERENCE_S`` is the probe's time on an undisturbed 2-vCPU Xeon host
with one BLAS thread, so scaled times read close to wall time there.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Seconds one probe takes on the undisturbed reference host.
REFERENCE_S = 2.0e-3
ROUNDS = 200

_X = np.linspace(0.0, 1.0, 64)
_M = np.cos(np.arange(64 * 64, dtype=np.float64).reshape(64, 64))
_V = np.sin(np.arange(8192, dtype=np.float64) * 0.7)


def probe_seconds() -> float:
    """Wall time of one run of the fixed probe kernel."""
    start = perf_counter()
    acc = 0.0
    for i in range(ROUNDS):
        z = np.exp(-_X * (i % 7)) + np.log1p(_X)
        acc += float(z.sum()) + float((_M @ _M[:, i % 64]).max())
        acc += len(repr({"round": i, "acc": round(acc, 3)}))
    acc += float(np.argsort(_V)[0]) + float(np.sort(_V)[4096])
    if not np.isfinite(acc):  # keeps the work from being skipped
        raise ArithmeticError("probe kernel overflowed")
    return perf_counter() - start


class StepLog:
    """Step durations of one job, with a probe before the first step and
    after each one. ``probe`` is what runs the probe (a traced job passes
    one that records the probe as a span of its own)."""

    def __init__(self, probe=probe_seconds):
        self._probe = probe
        self.seconds: list[float] = []
        self.probes: list[float] = [probe()]

    def add(self, seconds: float) -> None:
        self.seconds.append(seconds)
        self.probes.append(self._probe())

    def __len__(self) -> int:
        return len(self.seconds)

    def scaled(self) -> list[float]:
        """Each step at reference speed, from the probes on either side."""
        return [
            s * 2.0 * REFERENCE_S / (before + after)
            for s, before, after in zip(self.seconds, self.probes, self.probes[1:])
        ]

    def scale(self) -> float:
        """The job's reference-speed factor: REFERENCE_S over its median probe."""
        return REFERENCE_S / statistics.median(self.probes)


def scaled_seconds(fn) -> float:
    """``fn()``'s wall time at reference speed, from probes on either side."""
    before = probe_seconds()
    start = perf_counter()
    fn()
    took = perf_counter() - start
    return took * 2.0 * REFERENCE_S / (before + probe_seconds())
