#!/usr/bin/env python3
"""Benchmark of the strongedge package: one workload per process.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/``; without it the benchmark exits with status 2.

A run sets up the workload's inputs from ``--seed`` (five times and for
one second at least: set-up time is the median in reference seconds, see
below, and the inputs must repeat), runs the first op once as a warm-up outside that timing, then
runs whole passes over the ops for as long as the next pass should still
end within ``--seconds`` (one pass at least).  One process, no threads,
closed loop: each op starts when the previous one has returned.  The
first pass is checked by the code in ``checks.py``, which shares nothing
with the package; every later pass must reproduce the first pass's answer
digest.  Times are in reference seconds (``calibrate.py``): each op's and
each set-up's wall time is scaled by the machine speed measured by a fixed
loop run right before and after it, because the shared host's speed drifts
by up to a factor of two within minutes.  Each op's time is its median over
the passes: ``wall_ref_s`` is the sum of these and ``op_ref_s.p50`` their
median, so one slow stretch of the machine moves one sample of one op, not
the figure.  The raw wall-clock figures are printed above the result line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics: spans recorded
around the package's public functions (``spans.py``), over one set-up
(without the warm-up op) plus one pass, median over traced passes;
``trace.overhead_s`` is the median traced pass less the median untraced
one, both in reference seconds.  The spans are written to ``.bench_out/``
in the checkout.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when an answer fails the
benchmark's own check, or when inputs or answers do not repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans
from calibrate import Calibrator
from workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5     # set-ups per run, at least
SETUP_MIN_S = 1.0     # and set-ups until they took this long together
P90_MIN_SAMPLES = 100
MODULES = ("cli", "colorer", "generate", "instances", "oracle")
TAGS = ("M1", "M2", "M3", "M4", "M5",
        "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8")

# per-layer metrics read from spans: "<span name>.<field>", field one of
# calls, s (inclusive) and self_s; the engine is the solve span's own time
SPAN_METRICS = (
    "generate.generate.calls",
    "generate.generate.s",
    "density.density_exceeds.calls",
    "density.density_exceeds.s",
    "density.mad.calls",
    "density.mad.s",
    "discharge.trace_faces.calls",
    "discharge.trace_faces.s",
    "graph.girth.s",
    "graph.build_graph.calls",
    "graph.build_graph.s",
    "graph.delete_vertex.calls",
    "graph.delete_vertex.s",
    "graph.induced.calls",
    "reducer.find_reducible_mad.calls",
    "reducer.find_reducible_mad.s",
    "reducer.find_reducible_girth7.calls",
    "reducer.find_reducible_girth7.s",
    "colorer.solve.s",
    "colorer.engine.self_s",
    "colorer.extend.calls",
    "colorer.extend.s",
    "colorer.verify_strong.s",
    "conflicts.edges_within_distance_two.calls",
    "conflicts.edges_within_distance_two.s",
    "conflicts.ConflictIndex.s",
    "conflicts.conflict_graph.s",
    "oracle.strong_chromatic_index_exact.s",
    "oracle.list_strong_colorable.s",
    "instances.parse_instance.s",
    "instances.serialize_instance.s",
    "instances.parse_coloring.s",
    "instances.serialize_coloring.s",
    "cli.run_command.self_s",
)


def load_library():
    """The package's modules, imported from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "strongedge" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'strongedge'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    package = importlib.import_module("strongedge")
    if Path(package.__file__).resolve().parent != (src / "strongedge"):
        print(f"bench: imported {package.__file__}, not the checkout's copy",
              file=sys.stderr)
        sys.exit(2)
    lib = argparse.Namespace()
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"strongedge.{name}"))
    return lib


class Run:
    """Accumulates passes, failures and answers over one benchmark run."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.digest: str | None = None
        self.walls = {False: [], True: []}   # traced? -> pass wall times
        self.ref_walls = {False: [], True: []}   # the same, reference s
        self.elapsed = 0.0   # all passes, calibration included
        self.op_times: list[list[float]] = []   # untraced, reference s
        self.passed_edges = 0   # edges of the ops that passed, one pass

    def run_pass(self, tracer=None) -> list:
        """One pass over every op; returns the outcomes."""
        traced = tracer is not None
        raws, times, ref_times = [], [], []
        clock = time.perf_counter
        start = clock()
        cal = Calibrator()
        for i, op in enumerate(self.ops):
            if traced:
                tracer.op = i
            t0 = clock()
            try:
                raw, err = op.run(), None
            except Exception as exc:  # a failed op is counted; the run goes on
                raw, err = None, exc
            times.append(clock() - t0)
            ref_times.append(cal.to_ref(times[-1]))
            raws.append((raw, err))
        self.elapsed += clock() - start
        if traced:
            tracer.op = -1
        self.walls[traced].append(sum(times))
        self.ref_walls[traced].append(sum(ref_times))
        outcomes = self._judge(raws, check=self.digest is None)
        if not traced:
            self.op_times.append(ref_times)
            self.passed_edges = sum(o.edges for o in outcomes if o is not None
                                    and o.failure is None and not o.problems)
        return outcomes

    def _judge(self, raws, check: bool) -> list:
        outcomes = []
        digest = hashlib.sha256()
        for op, (raw, err) in zip(self.ops, raws):
            self.attempted += 1
            if err is not None:
                self.failures[type(err).__name__] += 1
                digest.update(f"{op.label} raised {type(err).__name__}\n"
                              .encode())
                outcomes.append(None)
                continue
            try:
                outcome = op.outcome(raw, check)
            except Exception as exc:  # malformed output: a wrong answer
                self.failures["check-error"] += 1
                self.problems.append(f"{op.label}: checking raised {exc!r}")
                outcomes.append(None)
                continue
            if outcome.problems:
                self.failures["wrong-answer"] += 1
                self.problems += outcome.problems
            elif outcome.failure:
                self.failures[outcome.failure] += 1
            digest.update(f"{op.label}\n{outcome.digest}".encode())
            outcomes.append(outcome)
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            self.problems.append("a later pass gave other answers than the "
                                 "first")
        return outcomes

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def op_medians(self) -> list[float]:
        """Each op's median time over the untraced passes, reference s."""
        return [statistics.median(p[i] for p in self.op_times)
                for i in range(len(self.ops))]


def warm_up(ops) -> None:
    """Run the first op once, untimed, so lazy first-use work is done."""
    try:
        ops[0].run()
    except Exception:  # the same op is run and judged in every pass
        pass


def set_up(build, lib, seed, work):
    """Build the inputs SETUP_REPEATS times at least, and for SETUP_MIN_S
    at least; median time in reference and in wall seconds, the last
    inputs, and whether all were equal."""
    times, ref_times, first, repeat_ok = [], [], None, True
    cal = Calibrator()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        ops = probe = None  # free the previous copy before timing
        t0 = time.perf_counter()
        ops, probe = build(lib, seed, work)
        times.append(time.perf_counter() - t0)
        ref_times.append(cal.to_ref(times[-1]))
        keys = [op.key() for op in ops]
        first = first or keys
        repeat_ok &= keys == first
    warm_up(ops)
    return (statistics.median(ref_times), statistics.median(times), ops,
            probe, repeat_ok)


def scaling_exponent(run: Run) -> tuple[float, int]:
    """Least-squares slope of log(solve time) on log(m) over the ladder,
    from untraced passes (median time per op); (0, points) if no ladder."""
    points = [(math.log(len(op.pairs)), math.log(t))
              for op, t in zip(run.ops, run.op_medians()) if op.ladder]
    if len({x for x, _ in points}) < 2:
        return 0.0, len(points)
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx, len(points)


def certification_counters(outcomes) -> dict[str, float]:
    """Tag counts, slack and zero-slack steps from the returned reports."""
    counts = Counter()
    slack: dict[str, int] = {}
    zero = 0
    for outcome in outcomes:
        for report in (outcome.reports if outcome else ()):
            for rec in report.trace:
                tag = rec.claim_tag.value
                counts[tag] += 1
                gap = rec.bound - rec.actual
                slack[tag] = min(slack.get(tag, gap), gap)
                zero += gap == 0
    out: dict[str, float] = {}
    for tag in TAGS:
        out[f"reducer.tag.{tag}.count"] = counts[tag]
    for tag in TAGS:
        # -1: the tag never fired (a real slack is never negative)
        out[f"colorer.slack.min.{tag}"] = slack.get(tag, -1)
    out["colorer.slack.zero_steps"] = zero
    return out


def layer_metrics(tracer, setup_idx, pass_idx) -> dict[str, float]:
    agg = spans.aggregate(tracer.spans, list(setup_idx) + list(pass_idx))
    out = {}
    for metric in SPAN_METRICS:
        name, fieldname = metric.rsplit(".", 1)
        if name == "colorer.engine":
            name = "colorer.solve"
        out[metric] = agg[name][fieldname] if name in agg else 0
    row = agg.get("density.density_exceeds")
    out["density.density_exceeds.accept_ratio"] = (
        row["accepted"] / row["calls"] if row else 0.0)
    depths = spans.detector_calls_per_solve(tracer.spans, pass_idx)
    out["colorer.peel_depth.max"] = max(depths, default=0)
    return out


def solve_children(tracer, idx) -> dict[str, float]:
    """Time of the direct child spans of ``colorer.solve``, by name."""
    out: Counter = Counter()
    for i in idx:
        name, start, end, parent = tracer.spans[i][:4]
        if parent >= 0 and tracer.spans[parent][0] == "colorer.solve":
            out[name] += end - start
    return dict(out)


def emit(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = load_library()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, lib, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, lib, work) -> int:
    setup_s, setup_wall_s, ops, probe, repeat_ok = set_up(
        BUILDERS[args.workload], lib, args.seed, work)
    run = Run(ops)
    traced = bool(args.trace)
    tracer = setup_idx = None
    traced_passes = []   # (span index range, outcomes) per traced pass
    if traced:
        tracer = spans.Tracer()
        tracer.install()
        try:
            BUILDERS[args.workload](lib, args.seed, work)
        finally:
            tracer.uninstall()
        setup_idx = range(len(tracer.spans))
    while True:
        if traced:
            run.run_pass()
            tracer.install()
            try:
                start = len(tracer.spans)
                outcomes = run.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_passes.append((range(start, len(tracer.spans)), outcomes))
        else:
            run.run_pass()
        # stop before a pass that would end past the window, so a run takes
        # about --seconds whatever the pass length (always one pass at least)
        passes = len(run.walls[False])
        if run.elapsed * (passes + 1) / passes > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_line = None
    if probe is not None:
        t0 = time.perf_counter()
        try:
            report = probe.run()
            status = ("certified" if report.certified and report.complete
                      else "uncertified")
        except Exception as exc:  # the probe's failure is what it reports
            status = f"failed with {type(exc).__name__}"
        probe_line = (f"probe {probe.label}: {status} in "
                      f"{time.perf_counter() - t0:.3f} s (outside the timed "
                      f"passes and the op counts)")

    if not repeat_ok:
        run.problems.append("the set-ups built different inputs")
    correct = not run.problems
    exp, rungs = scaling_exponent(run)

    emit(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
         f"ops/pass {len(ops)}  passes {len(run.walls[False])} untraced, "
         f"{len(run.walls[True])} traced")
    emit(f"answer digest sha256 {run.digest}")
    emit("pass walls s (op time only): "
         + " ".join(f"{w:.3f}" for w in run.walls[False])
         + (" | traced: " + " ".join(f"{w:.3f}" for w in run.walls[True])
            if traced else ""))
    emit(f"fail_ratio {run.failed / run.attempted:.4f} "
         f"({run.failed} of {run.attempted} ops)"
         + "".join(f"  {k}={v}" for k, v in sorted(run.failures.items())))
    if probe_line:
        emit(probe_line)
    for p in run.problems[:10]:
        emit(f"CHECK FAILED: {p}")
    if rungs:
        emit(f"colorer.scaling_exp {exp:.3f} over {rungs} ladder inputs, m "
             f"{min(len(o.pairs) for o in ops if o.ladder)}.."
             f"{max(len(o.pairs) for o in ops if o.ladder)}; no sweep to "
             f"1e5 vertices is run: sizes stay where a whole pass fits in "
             f"one run")

    if not traced:
        times = [t for p in run.op_times for t in p]
        op_medians = run.op_medians()
        wall_ref_s = sum(op_medians)
        values = {
            "setup_s": setup_s,
            "wall_ref_s": wall_ref_s,
            "edges_per_ref_s": run.passed_edges / wall_ref_s,
            "op_ref_s.p50": statistics.median(op_medians),
            "peak_rss_mb": peak_rss_mb,
        }
        emit(f"wall clock, uncalibrated: setup {setup_wall_s:.6f} s, median "
             f"pass {statistics.median(run.walls[False]):.6f} s; machine "
             f"speed {wall_ref_s / statistics.median(run.walls[False]):.3f} "
             f"of the reference")
        if len(times) >= P90_MIN_SAMPLES:
            emit(f"op_ref_s.p90 {statistics.quantiles(times, n=10)[-1]:.6f} "
                 f"ref_s ({len(times)} op samples)")
        else:
            emit(f"op_ref_s.p90 not reported: {len(times)} op samples, "
                 f"fewer than {P90_MIN_SAMPLES}")
    else:
        per_pass = [layer_metrics(tracer, setup_idx, idx)
                    for idx, _ in traced_passes]
        layer = {k: statistics.median(p[k] for p in per_pass)
                 for k in per_pass[0]}
        first_outcomes = traced_passes[0][1]
        layer["oracle.nodes"] = sum(o.nodes for o in first_outcomes if o)
        layer.update(certification_counters(first_outcomes))
        layer["colorer.scaling_exp"] = exp
        layer["trace.overhead_s"] = (statistics.median(run.ref_walls[True])
                                     - statistics.median(run.ref_walls[False]))
        values = layer
        first_idx = list(setup_idx) + list(traced_passes[0][0])
        children = solve_children(tracer, first_idx)
        if children:
            whole = per_pass[0]["colorer.solve.s"]
            own = per_pass[0]["colorer.engine.self_s"]
            parts = " + ".join(f"{k} {v:.4f}" for k, v in
                               sorted(children.items(), key=lambda kv: -kv[1]))
            gap = whole - own - sum(children.values())
            emit(f"colorer.solve.s = colorer.engine.self_s + child spans, "
                 f"set-up and first traced pass: {whole:.4f} = {own:.4f} + "
                 f"{parts} (unaccounted {gap:.2g} s)")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        emit(f"spans: {len(tracer.spans)} written to "
             f"{path.relative_to(ROOT)}")

    # the metrics and units BENCHMARK.json lists for this mode, in its order
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in SPEC["per_layer" if traced else "end_to_end"]}
    for name, (value, unit) in metrics.items():
        emit(f"{name} {value:.6g} {unit}")
    emit(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
