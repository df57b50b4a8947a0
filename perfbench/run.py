"""pairsim benchmark: one workload, one closed-loop run, one JSON result line.

    python3 perfbench/run.py --workload train_pairwise --seed 1 --seconds 28 --trace 0

Workloads: train_pairwise, train_classlevel, retrieval_eval, gradfield
(see perfbench/README.md). The program is imported from ``src/`` beside
this directory, never from an installed copy, so the run fails in a tree
without the sources. BLAS and OpenMP are pinned to THREADS threads.

A run builds the workload's inputs from the seed, then repeats the same
job, one at a time, until ``--seconds`` have passed, checks the outputs,
and prints the metrics; the last stdout line is the JSON result. Between
jobs, spread over the run, it times the program's start-up in
STARTUP_REPS fresh interpreters and builds the inputs SETUP_REPS times in
all. Every time is taken at the host's reference speed (see hostspeed.py)
and reported as a median over the run's repeats.
With ``--trace 1`` it alternates untraced and traced jobs, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import hostspeed

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 6
STARTUP_REPS = 10
STARTUP_PROBE = "import numpy as np, pairsim.cli; np.ones((64, 64)) @ np.ones((64, 64))"
# Untraced (and, with --trace 1, traced) jobs a run needs before it may stop.
MIN_JOBS = 5
# step_ms_tail is the highest percentile with this many steps beyond it.
TAIL_BEYOND = 10
# Past this many seconds beyond --seconds the run starts no more jobs.
OVERRUN_S = 60.0

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Job:
    run_id: int
    traced: bool
    ok: bool = False
    seconds: float = 0.0  # wall time, probes included
    steps: hostspeed.StepLog | None = None

    def reference_seconds(self) -> float:
        """The job's time at reference speed, probes left out."""
        steps = self.steps
        rest = self.seconds - sum(steps.probes[1:]) - sum(steps.seconds)
        return sum(steps.scaled()) + rest * steps.scale()

    def wall_seconds(self) -> float:
        return self.seconds - sum(self.steps.probes[1:])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pairsim" / "__init__.py").is_file():
        print(f"perfbench: no pairsim sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    # One CPU for the whole run, start-up interpreters included, so that
    # the host-speed probes time the CPU the measured code ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    import pairsim

    if Path(pairsim.__file__).resolve().parent != (src / "pairsim").resolve():
        print(f"perfbench: imported pairsim from {pairsim.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workloads.make(args.workload, args.seed), work, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, work: Path, src: Path) -> int:
    import tracing
    import workloads

    startup_s, setup_s = [startup_seconds(src)], []
    inputs = build_inputs(wl, work, setup_s)

    tracer = tracing.Tracer() if args.trace else None
    jobs: list[Job] = []
    problems = []
    first = None
    window = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - window
        done = [j for j in jobs if j.ok]
        enough = min(sum(not j.traced for j in done),
                     sum(j.traced for j in done) if tracer else MIN_JOBS) >= MIN_JOBS
        if (enough and elapsed >= args.seconds) or elapsed > args.seconds + OVERRUN_S:
            break
        job = Job(run_id=len(jobs), traced=tracer is not None and len(jobs) % 2 == 1)
        out = work / f"job{job.run_id}"
        out.mkdir()
        extra = run_job(wl, inputs, out, job, tracer if job.traced else None)
        if job.ok:
            sums = workloads.digest(out, extra)
            first = first or (sums, len(job.steps))
            if (sums, len(job.steps)) != first:
                job.ok = False
                problems.append(f"job {job.run_id}{' (traced)' if job.traced else ''}: "
                                "outputs or step count differ from job 0")
        jobs.append(job)
        if job.run_id > 0:
            shutil.rmtree(out, ignore_errors=True)
        # Set-up is repeated across the run, like the jobs, so that its
        # median sees the same host as theirs.
        share = min(1.0, (time.perf_counter() - window) / args.seconds)
        if len(startup_s) < STARTUP_REPS * share:
            startup_s.append(startup_seconds(src))
        if len(setup_s) < SETUP_REPS * share:
            build_inputs(wl, work, setup_s)
    while len(startup_s) < STARTUP_REPS:
        startup_s.append(startup_seconds(src))
    while len(setup_s) < SETUP_REPS:
        build_inputs(wl, work, setup_s)
    # Read before the checks, whose reference computations would otherwise
    # set the peak; set-up builds its inputs in small pieces for the same
    # reason.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(jobs)
    failed = sum(not j.ok for j in jobs)
    quality = 0.0
    if jobs and jobs[0].ok:
        try:
            run_problems, quality = wl.check(inputs, work / "job0")
        except Exception:  # a check that crashes is a failed check
            run_problems = [traceback.format_exc()]
        problems += run_problems
    else:
        run_problems = ["job 0 failed; nothing to check"]
        problems += run_problems

    print("env " + json.dumps(environment(), sort_keys=True))
    plain = [j for j in jobs if j.ok and not j.traced]
    traced = [j for j in jobs if j.ok and j.traced]
    metrics = {}
    if tracer is None:
        if plain:
            metrics = end_to_end(wl, startup_s, setup_s, plain, quality, peak_rss_mb)
    else:
        if plain and traced:
            metrics, map_problems = per_layer(args.workload, tracer, traced, plain)
            run_problems += map_problems
            problems += map_problems
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans(tracer, out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    if run_problems:
        failed = attempted
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={attempted} failed={failed}")
    print(f"metric fail_ratio {failed / max(attempted, 1)!r} ratio")
    for p in problems:
        print(f"check FAILED: {p}", file=sys.stderr)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def build_inputs(wl, work: Path, setup_s: list) -> dict:
    """Build the inputs in a fresh directory, appending the time taken at
    reference speed."""
    where = work / f"setup{len(setup_s)}"
    where.mkdir()
    built = {}

    def build():
        with redirect_stdout(io.StringIO()):
            built.update(wl.prepare(where))

    setup_s.append(hostspeed.scaled_seconds(build))
    return built


def startup_seconds(src: Path) -> float:
    """Time, at reference speed, of a fresh interpreter importing the
    program and making its first BLAS call: the start-up every ``pairsim``
    command pays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")])))
    # No timeout: with one, subprocess polls for the exit in sleeps of up
    # to 50 ms, which rounds the measured time up to the next sleep.
    return hostspeed.scaled_seconds(lambda: subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], env=env, cwd=ROOT, check=True))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def run_job(wl, inputs, out: Path, job: Job, tracer) -> dict:
    """Run one job, filling in ``job``; returns its in-memory results."""
    import tracing

    if tracer is None:
        job.steps = hostspeed.StepLog()
    else:
        # The probe is a span of its own, so it counts in no layer's self time.
        tracer.run_id = job.run_id
        job.steps = hostspeed.StepLog(tracer.wrap("perfbench.probe", hostspeed.probe_seconds))
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                extra = wl.job(inputs, out, job.steps)
            else:
                with tracing.instrument(tracer):
                    traced_job = tracer.wrap("job", wl.job)
                    start = time.perf_counter()
                    extra = traced_job(inputs, out, job.steps)
        job.seconds = time.perf_counter() - start
    except Exception:  # one failed job is counted and the run goes on
        print(f"job {job.run_id} failed:\n{traceback.format_exc()}", file=sys.stderr)
        job.seconds = time.perf_counter() - start
        return {}
    job.ok = True
    return extra


def reference_times(jobs):
    """(per-step seconds, job seconds) at reference speed: each step the
    median over the run's identical jobs, and the median job."""
    steps = [statistics.median(times) for times in zip(*(j.steps.scaled() for j in jobs))]
    return steps, statistics.median(j.reference_seconds() for j in jobs)


def tail(samples: list):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return 100.0 * (1.0 - beyond / n), ordered[n - beyond - 1]


def end_to_end(wl, startup_s, setup_s, jobs, quality, peak_rss_mb) -> dict:
    steps, run_s = reference_times(jobs)
    pct, tail_s = tail(steps)
    print(f"note setup_s is the median of {', '.join(map(repr, startup_s))} s of start-up "
          f"plus the median of {', '.join(map(repr, setup_s))} s of input builds")
    print(f"note wall-clock run_s (probes left out, not scaled): median "
          f"{statistics.median(j.wall_seconds() for j in jobs)!r} s, least "
          f"{min(j.wall_seconds() for j in jobs)!r} s; host speed factor: median "
          f"{statistics.median(j.steps.scale() for j in jobs)!r}")
    metrics = {
        "setup_s": (statistics.median(startup_s) + statistics.median(setup_s), "s"),
        "run_s": (run_s, "s"),
        "items_per_s": (wl.items_per_job / run_s, "1/s"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
        "step_ms_tail": (1e3 * tail_s, "ms"),
        "quality": (float(quality), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"note {len(jobs)} jobs of {len(steps)} steps (step = {wl.step_name}); each step "
          f"the median over the jobs at reference speed; step_ms_tail is "
          f"p{pct:.2f} of the {len(steps)} steps")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
        if name in wl.aliases:
            print(f"metric {wl.aliases[name]} {value!r} {unit} (reported as {name})")
    return metrics


def per_layer(workload: str, tracer, traced, plain):
    """(metrics, problems): a layer with spans where the layer map says it
    does not run, or none where it says it does, is a problem."""
    import tracing

    ids = [j.run_id for j in traced]
    values = tracing.layer_values(tracer, ids)
    metrics = {}
    problems = []
    for layer in tracing.LAYERS:
        per_job, count = values[layer.name]
        # Times at reference speed, as in end_to_end; counts and bytes
        # are the same in every job.
        if layer.unit == "ms":
            per_job = [v * j.steps.scale() for v, j in zip(per_job, traced)]
        value = statistics.median(per_job)
        metrics[layer.name] = (value, layer.unit)
        runs = workload in layer.runs_on
        if (count > 0) != runs:
            problems.append(f"layer {layer.name} has {count} spans, but the layer map says "
                            f"it {'runs' if runs else 'does not run'} on {workload}")
        print(f"layer {layer.name} {value!r} {layer.unit} spans={count} moves=[{layer.moves}]")
    plain_s = reference_times(plain)[1]
    traced_s = reference_times(traced)[1]
    spans = statistics.median(tracing.spans_per_job(tracer, ids))
    metrics["trace.overhead_ms"] = (1e3 * (traced_s - plain_s), "ms")
    metrics["trace.spans"] = (float(spans), "count")
    print(f"layer trace.overhead_ms {metrics['trace.overhead_ms'][0]!r} ms: traced run_s "
          f"{traced_s!r} s over {len(traced)} jobs minus untraced run_s {plain_s!r} s over "
          f"{len(plain)} jobs")
    print(f"layer trace.spans {spans!r} count per traced job")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
