#!/usr/bin/env python3
"""Run bench/run.py over ten seeds, twice, and summarise the spread.

    python3 bench/collect.py [--out bench/BENCH_baseline.json]

Every workload of BENCHMARK.json runs at seeds 1..10 for its
``run_seconds``, in two sets of the same seeds, plus one traced run at
seed 1.  Runs are sequential, one process at a time.  For every end-to-end
metric it prints the unit, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (q3 - q1) / median.  The
answer digests of the two sets must be identical, and no set-2 median may
be worse than the set-1 median by more than the metric's bound.  Every
spread must stay within its bound, except that of ``setup_s``: set-up time
is gated by the drift of its median between the sets only.  ``--out``
writes everything, with the run conditions, as JSON.  The exit status is
1 when an answer fails the benchmark's check or one of these tests fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2
TRACE_SEED = 1


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - t0
    result["notes"] = lines[:-1]
    for line in lines:
        if line.startswith("answer digest sha256 "):
            result["digest"] = line.split()[-1]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {"conditions": {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "measurement": "wall-clock time.perf_counter of the benchmark's own "
                       "process only, scaled to reference seconds by a fixed "
                       "calibration loop timed next to every op and set-up "
                       "(bench/calibrate.py); no CPU pinning, no system-wide "
                       "tracing",
        "load": "one process per workload, no threads, closed loop: each "
                "op starts when the previous one returns",
    }, "workloads": {}}
    ok = True
    for spec_entry in spec["workloads"]:
        workload = spec_entry["name"]
        sets = [[one_run(workload, seed, seconds, 0) for seed in SEEDS]
                for _ in range(SETS)]
        entry = {"why": spec_entry["why"], "sets": []}
        for runs in sets:
            metrics = {}
            for name in runs[0]["metrics"]:
                metrics[name] = summary(
                    [r["metrics"][name]["value"] for r in runs])
                metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            entry["sets"].append({
                "metrics": metrics,
                "digests": [r.get("digest") for r in runs],
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "correct": all(r["correct"] for r in runs),
                "elapsed_s": sum(r["elapsed_s"] for r in runs),
                "notes": runs[0]["notes"],
            })
        print(f"== {workload}")
        for i, s in enumerate(entry["sets"]):
            print(f"  set {i + 1}: correct {s['correct']}, failed "
                  f"{s['failed']} of {s['attempted']}, "
                  f"{s['elapsed_s']:.0f} s for {len(SEEDS)} runs")
            for name, m in s["metrics"].items():
                bound = bounds[name]["bound"]
                flag = ("ok" if m["spread"] < bound / 3 else
                        "within bound" if m["spread"] <= bound
                        else "OVER BOUND")
                if name == "setup_s":
                    flag += " (not gated)"
                else:
                    ok &= m["spread"] <= bound
                print(f"    {name:<14} {m['unit']:<8} "
                      f"median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                      f"q3 {m['q3']:<12.6g} spread {m['spread']:.3f} {flag}")
                print("      values "
                      + " ".join(f"{v:.4g}" for v in m["values"]))
            ok &= s["correct"]
        first, second = entry["sets"][0], entry["sets"][1]
        same = first["digests"] == second["digests"]
        ok &= same
        print(f"  digests identical across sets: {same}")
        for name, m in second["metrics"].items():
            a, b = first["metrics"][name]["median"], m["median"]
            worse = ((b - a) / a if bounds[name]["better"] == "lower"
                     else (a - b) / a)
            ok &= worse <= bounds[name]["bound"]
            print(f"    {name:<14} set 2 vs set 1: {worse:+.3f} "
                  f"(bound {bounds[name]['bound']})")
        traced = one_run(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, "notes": traced["notes"],
                              "metrics": traced["metrics"]}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("all spreads within bounds, all answers correct" if ok else
          "SOME CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
