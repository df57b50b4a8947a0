"""Steadiness mode: repeat each workload over seeds and report the spread.

    python3 perfbench/steady.py --seeds 10 --sets 2
    python3 perfbench/steady.py --workloads gradfield --seeds 5

Every run is a fresh ``perfbench/run.py`` process, one after another,
with seeds 1, 2, ... and BENCHMARK.json's ``run_seconds``.
For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json. With ``--sets 2`` the same seeds run twice and it also
prints how far the second median moved, in the metric's worse direction,
as a share of the first. It exits non-zero when a run fails, a spread
exceeds its bound, or a median moves by more than its bound. The full table is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "wall_s": wall, "env": env, "result": result}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = range(1, args.seeds + 1)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for set_no in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                run = run_once(workload, seed, bench["run_seconds"])
                run["set"] = set_no
                runs.append(run)
                print(f"set {set_no} {workload} seed {seed}: exit {run['returncode']}, "
                      f"{run['wall_s']:.1f} s", file=sys.stderr)

    bad = [r for r in runs if r["returncode"] != 0 or not r["result"]["correct"]]
    rows = []
    for workload in workloads:
        for name, spec in metrics.items():
            sets = []
            for set_no in range(args.sets):
                values = [r["result"]["metrics"][name]["value"] for r in runs
                          if r["workload"] == workload and r["set"] == set_no
                          and name in r["result"]["metrics"]]
                if len(values) >= 2:
                    sets.append(summarize(values))
            if not sets:
                continue
            row = {"workload": workload, "metric": name, "unit": spec["unit"],
                   "bound": spec["bound"], "sets": sets}
            row["spread_ok"] = all(s["spread"] <= spec["bound"] for s in sets)
            if len(sets) > 1:
                first, last = sets[0]["median"], sets[-1]["median"]
                sign = 1.0 if spec["better"] == "lower" else -1.0
                row["shift"] = sign * (last - first) / first
                row["shift_ok"] = row["shift"] <= spec["bound"]
            rows.append(row)

    print(f"{'workload':17} {'metric':13} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'shift':>7}")
    for row in rows:
        for s in row["sets"]:
            flag = ""
            if s["spread"] > row["bound"]:
                flag = "  WIDE"
            elif s["spread"] > row["bound"] / 3:
                flag = "  over bound/3"
            shift = f"{row['shift']:7.3f}" if "shift" in row else ""
            if not row.get("shift_ok", True):
                flag += "  MOVED"
            print(f"{row['workload']:17} {row['metric']:13} {s['median']:12.5g} "
                  f"{s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:7.3f} "
                  f"{row['bound']:6.2f} {shift}{flag}")
    envs = {json.dumps(r["env"], sort_keys=True) for r in runs if r["env"]}
    for env in sorted(envs):
        print(f"env {env}")
    print(f"{len(runs)} runs, {len(bad)} failed or incorrect")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"runs": runs, "rows": rows}, indent=1), encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    ok = not bad and all(r["spread_ok"] and r.get("shift_ok", True) for r in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
