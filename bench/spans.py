"""Span tracing from the benchmark's side of the library boundary.

The package itself is not edited.  :class:`Tracer` rebinds each target
function in every ``strongedge`` module namespace that binds it (so both
``colorer.mad`` and ``density.mad`` are traced, and so is a call made
through ``cli.solve_mad3``), records one span per call in memory, and puts
the original objects back on :meth:`Tracer.uninstall`.  A target that no
longer exists records zero calls; that is not an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  An attribute with a dot is a method
# rebound on its class.  Both solve pipelines share one span name, so
# "colorer.solve" is the whole certified solve whichever pipeline ran.
TARGETS = (
    ("generate.generate", "strongedge.generate", "generate"),
    ("density.density_exceeds", "strongedge.density", "density_exceeds"),
    ("density.mad", "strongedge.density", "mad"),
    ("discharge.trace_faces", "strongedge.discharge", "trace_faces"),
    ("graph.girth", "strongedge.graph", "girth"),
    ("graph.build_graph", "strongedge.graph", "build_graph"),
    ("graph.delete_vertex", "strongedge.graph", "Graph.delete_vertex"),
    ("graph.induced", "strongedge.graph", "Graph.induced"),
    ("reducer.find_reducible_mad", "strongedge.reducer",
     "find_reducible_mad"),
    ("reducer.find_reducible_girth7", "strongedge.reducer",
     "find_reducible_girth7"),
    ("colorer.solve", "strongedge.colorer", "solve_mad3"),
    ("colorer.solve", "strongedge.colorer", "solve_girth7"),
    ("colorer.extend", "strongedge.colorer", "extend"),
    ("colorer.verify_strong", "strongedge.colorer", "verify_strong"),
    ("conflicts.edges_within_distance_two", "strongedge.conflicts",
     "edges_within_distance_two"),
    ("conflicts.ConflictIndex", "strongedge.conflicts",
     "ConflictIndex.__init__"),
    ("conflicts.conflict_graph", "strongedge.conflicts", "conflict_graph"),
    ("oracle.strong_chromatic_index_exact", "strongedge.oracle",
     "strong_chromatic_index_exact"),
    ("oracle.list_strong_colorable", "strongedge.oracle",
     "list_strong_colorable"),
    ("instances.parse_instance", "strongedge.instances", "parse_instance"),
    ("instances.serialize_instance", "strongedge.instances",
     "serialize_instance"),
    ("instances.parse_coloring", "strongedge.instances", "parse_coloring"),
    ("instances.serialize_coloring", "strongedge.instances",
     "serialize_coloring"),
    ("cli.run_command", "strongedge.cli", "run_command"),
)

DETECTORS = ("reducer.find_reducible_mad", "reducer.find_reducible_girth7")

# span name -> what to note about a call's return value
_OUTCOMES = {
    # density_exceeds returns None when the graph is not too dense
    "density.density_exceeds": lambda out: out is None,
}


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, op id, outcome]``.

    ``op`` is the index of the operation running when a span starts (-1
    during set-up).  Spans are only ever appended, so a pass is a slice
    ``spans[mark_a:mark_b]`` and parent indices stay valid.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = _OUTCOMES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if outcome is not None:
                rec[5] = outcome(out)
            return out
        return traced

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "strongedge" or k.startswith("strongedge.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                self._undo.append((cls, meth, vars(cls)[meth]))
                setattr(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans: list[list], indices) -> dict:
    """Per-name totals over the spans at ``indices``.

    Returns ``{name: {"calls", "s", "self_s", "accepted"}}`` where ``s`` is
    inclusive time (a span nested in one of the same name is not counted
    twice) and ``self_s`` is time not covered by direct child spans.
    Direct children of one span never overlap: the library is
    single-threaded, so the union of their intervals is their sum.
    """
    indices = list(indices)
    child = defaultdict(float)
    for i in indices:
        rec = spans[i]
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "accepted": 0})
    for i in indices:
        name, start, end, parent = spans[i][:4]
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        if spans[i][5]:
            row["accepted"] += 1
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return out


def detector_calls_per_solve(spans: list[list], indices) -> list[int]:
    """Peel steps of each ``colorer.solve`` span: detector calls under it."""
    per_solve: dict[int, int] = {}
    for i in indices:
        if spans[i][0] == "colorer.solve":
            per_solve.setdefault(i, 0)
    for i in indices:
        if spans[i][0] not in DETECTORS:
            continue
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] != "colorer.solve":
            parent = spans[parent][3]
        if parent >= 0:
            per_solve[parent] = per_solve.get(parent, 0) + 1
    return list(per_solve.values())
