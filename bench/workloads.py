"""The benchmark workloads: inputs made from a seed, one operation each,
and how each operation's output is checked.

A builder returns ``(ops, probe)``.  Every op has ``key()`` (its inputs,
for the determinism check), ``run()`` (the timed part, calls into the
package only through module attributes, so spans can be wrapped around
them) and ``outcome(raw, check)``.  ``probe`` is an extra op reported on
its own, outside the timed passes, or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field

from checks import (coloring_problems, parse_coloring_text,
                    parse_instance_text, strong_chromatic_index)

POOL = tuple(range(40))
"""Colors the random lists are drawn from (as in acceptance criteria 3, 4)."""

SEED_SPACE = 2 ** 31


@dataclass
class Outcome:
    """What one run of an op produced, judged by the benchmark."""

    edges: int
    failure: str | None = None       # why the op counts as failed
    problems: list[str] = field(default_factory=list)  # wrong answers
    digest: str = ""                 # canonical answer text
    reports: list = field(default_factory=list)        # SolveReports
    nodes: int = 0                   # exact-search nodes


def _coloring_text(coloring: dict) -> str:
    return "".join(f"{a} {b} {c}\n" for (a, b), c in sorted(coloring.items()))


def _trace_text(reports) -> str:
    return "".join(f"{r.claim_tag.value} {r.edge[0]} {r.edge[1]} {r.bound} "
                   f"{r.actual} {r.color}\n"
                   for rep in reports for r in rep.trace)


def _label_pairs(g) -> list[tuple[int, int]]:
    return [tuple(sorted((g.labels[u], g.labels[v]))) for u, v in g.edges]


def _list_size(pipeline: str, max_degree: int, cap: int) -> int:
    return 3 * max_degree + 1 if pipeline == "mad3" else 3 * cap


class CliOp:
    """``gen | color | verify`` in-process: generate an instance, write it
    with random lists, color it and verify it through ``cli.run_command``."""

    ladder = False

    def __init__(self, lib, work, index, family, n, delta, pipeline,
                 gen_seed, list_seed):
        self.lib, self.family, self.n, self.delta = lib, family, n, delta
        self.pipeline, self.gen_seed, self.list_seed = (pipeline, gen_seed,
                                                        list_seed)
        self.inst_path = work / f"inst-{index}.txt"
        self.col_path = work / f"col-{index}.txt"
        cap = [] if pipeline == "mad3" else ["--delta-cap", str(delta)]
        self.color_argv = ["color", str(self.inst_path), "--pipeline",
                           pipeline, *cap, "-o", str(self.col_path)]
        self.verify_argv = ["verify", str(self.inst_path), str(self.col_path)]
        self.label = f"{family} n={n} delta={delta}"

    def key(self) -> str:
        return f"{self.label} {self.gen_seed} {self.list_seed}"

    def run(self):
        lib = self.lib
        inst = lib.generate.generate(lib.generate.GenSpec(
            self.family, self.n, delta=self.delta, seed=self.gen_seed))
        g = inst.graph
        rng = random.Random(self.list_seed)
        size = _list_size(self.pipeline, g.max_degree(), self.delta)
        lists = {e: frozenset(rng.sample(POOL, size)) for e in range(g.m)}
        text = lib.instances.serialize_instance(lib.instances.InstanceFile(
            g, inst.rotation, lists, inst.properties))
        self.inst_path.write_text(text)
        self.col_path.unlink(missing_ok=True)
        # keep the SolveReport the CLI computes, for the digest and counters
        solve = "solve_mad3" if self.pipeline == "mad3" else "solve_girth7"
        inner = getattr(lib.cli, solve)
        reports = []

        def tap(*args, **kwargs):
            report = inner(*args, **kwargs)
            reports.append(report)
            return report
        setattr(lib.cli, solve, tap)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                color_rc = lib.cli.run_command(self.color_argv)
                verify_rc = lib.cli.run_command(self.verify_argv)
        finally:
            setattr(lib.cli, solve, inner)
        coloring = (self.col_path.read_text() if self.col_path.exists()
                    else "")
        return text, coloring, color_rc, verify_rc, reports

    def outcome(self, raw, check: bool) -> Outcome:
        text, coloring_text, color_rc, verify_rc, reports = raw
        edges, lists = parse_instance_text(text)
        out = Outcome(len(edges), reports=reports)
        if color_rc != 0:
            out.failure = f"color-exit-{color_rc}"
        elif verify_rc != 0:
            out.failure = f"verify-exit-{verify_rc}"
        elif len(reports) != 1 or not reports[0].certified:
            out.failure = "uncertified"
        try:
            coloring = parse_coloring_text(coloring_text)
        except ValueError as exc:
            out.problems.append(f"{self.label}: {exc}")
            coloring = {}
        if check and color_rc in (0, 2):
            out.problems += [f"{self.label}: {p}" for p in
                             coloring_problems(edges, coloring, lists)]
        out.digest = _coloring_text(coloring) + _trace_text(reports)
        return out


class SolveOp:
    """One call of ``solve_mad3`` or ``solve_girth7`` on a prepared input."""

    def __init__(self, lib, label, graph, pipeline, cap, rng, ladder):
        self.lib, self.label, self.graph = lib, label, graph
        self.pipeline, self.cap, self.ladder = pipeline, cap, ladder
        self.pairs = _label_pairs(graph)
        size = _list_size(pipeline, graph.max_degree(), cap)
        self.lists = {e: frozenset(rng.sample(POOL, size))
                      for e in range(graph.m)}

    def key(self) -> str:
        text = "".join(f"{a} {b} {sorted(self.lists[e])}\n"
                       for e, (a, b) in enumerate(self.pairs))
        return f"{self.label} " + hashlib.sha256(text.encode()).hexdigest()

    def run(self):
        colorer = self.lib.colorer
        if self.pipeline == "mad3":
            return colorer.solve_mad3(self.graph, self.lists)
        return colorer.solve_girth7(self.graph, self.lists, self.cap)

    def outcome(self, report, check: bool) -> Outcome:
        out = Outcome(len(self.pairs), reports=[report])
        if not (report.certified and report.complete):
            out.failure = "uncertified"
        m = len(self.pairs)
        stray = sorted(e for e in report.coloring if not 0 <= e < m)
        if stray:
            out.problems.append(f"{self.label}: unknown edge ids {stray[:5]}")
        coloring = {self.pairs[e]: c for e, c in report.coloring.items()
                    if 0 <= e < m}
        if check:
            lists = {self.pairs[e]: lst for e, lst in self.lists.items()}
            out.problems += [f"{self.label}: {p}" for p in
                             coloring_problems(self.pairs, coloring, lists)]
        out.digest = _coloring_text(coloring) + _trace_text([report])
        return out


class ExactOp:
    """Exact strong chromatic index, then a proof that one color fewer
    cannot be list-colored."""

    ladder = False

    def __init__(self, lib, label, graph):
        self.lib, self.label, self.graph = lib, label, graph
        self.pairs = _label_pairs(graph)

    def key(self) -> str:
        return f"{self.label} {self.pairs}"

    def run(self):
        oracle = self.lib.oracle
        first = oracle.SearchBudget()
        result = oracle.strong_chromatic_index_exact(self.graph, first)
        fewer = frozenset(range(result.chi_s - 1))
        second = oracle.SearchBudget()
        below = oracle.list_strong_colorable(
            self.graph, {e: fewer for e in range(self.graph.m)}, second)
        return result, below, first.nodes_used + second.nodes_used

    def outcome(self, raw, check: bool) -> Outcome:
        result, below, nodes = raw
        out = Outcome(len(self.pairs), nodes=nodes)
        if below is not None:
            out.failure = "colorable-below-optimum"
            out.problems.append(f"{self.label}: colorable with "
                                f"{result.chi_s - 1} colors")
        coloring = {self.pairs[e]: c for e, c in result.witness.items()}
        if check:
            out.problems += [f"{self.label}: {p}" for p in
                             coloring_problems(self.pairs, coloring)]
            used = len(set(coloring.values()))
            if used != result.chi_s:
                out.problems.append(f"{self.label}: witness uses {used} "
                                    f"colors, chi_s is {result.chi_s}")
            best = strong_chromatic_index(self.pairs)
            if best != result.chi_s:
                out.problems.append(f"{self.label}: chi_s {result.chi_s}, "
                                    f"subset DP says {best}")
        out.digest = f"{result.chi_s}\n" + _coloring_text(coloring)
        return out


def _generate(lib, family, n, delta, rng):
    spec = lib.generate.GenSpec(family, n, delta=delta,
                                seed=rng.randrange(SEED_SPACE))
    return lib.generate.generate(spec).graph


# ---------------------------------------------------------------------
# builders, one per workload
# ---------------------------------------------------------------------

CORPUS_PAIRS = 36
"""Ops come in pairs: one sparse-mad3 instance, one planar-girth7 one."""


def corpus(lib, seed, work):
    """Criteria 3 and 4 in miniature: sizes spread evenly over the same
    ranges (sparse n 8..60, planar n 7..45 under caps 4, 5, 6); the seed
    picks the graphs and the lists."""
    rng = random.Random(f"corpus:{seed}")
    ops = []
    for k in range(CORPUS_PAIRS):
        n = 8 + round(k * 52 / (CORPUS_PAIRS - 1))
        ops.append(CliOp(lib, work, len(ops), "sparse-mad3", n, 4, "mad3",
                         rng.randrange(SEED_SPACE), rng.randrange(SEED_SPACE)))
        n = 7 + round(k * 38 / (CORPUS_PAIRS - 1))
        ops.append(CliOp(lib, work, len(ops), "planar-girth7", n,
                         (4, 5, 6)[k % 3], "girth7",
                         rng.randrange(SEED_SPACE), rng.randrange(SEED_SPACE)))
    return ops, None


MAD3_LADDER = (100, 200, 400)
MAD3_TREE = 700
PROBE_PATH = 700


def mad3_large(lib, seed, work):
    """A doubling ladder of planar girth-7 graphs (max degree 4, so mad
    below 2.8) and a max-degree-4 tree, for ``solve_mad3``.  The probe is
    a path, the known deep-recursion input for the density check."""
    rng = random.Random(f"mad3-large:{seed}")
    ops = []
    for n in MAD3_LADDER:
        g = _generate(lib, "planar-girth7", n, 4, rng)
        ops.append(SolveOp(lib, f"planar-girth7 n={n}", g, "mad3", 4, rng,
                           ladder=True))
    g = _generate(lib, "tree", MAD3_TREE, 4, rng)
    ops.append(SolveOp(lib, f"tree n={MAD3_TREE}", g, "mad3", 4, rng,
                       ladder=False))
    g = _generate(lib, "tree", PROBE_PATH, 2, rng)
    probe = SolveOp(lib, f"path n={PROBE_PATH}", g, "mad3", 2, rng,
                    ladder=False)
    return ops, probe


GIRTH7_LADDER = (100, 200, 400)
GIRTH7_LONG = 400


def girth7_large(lib, seed, work):
    """A doubling ladder of planar girth-7 graphs under caps 4, 5 and 6,
    plus a tree and a long cycle, where ``girth()`` finds no early exit."""
    rng = random.Random(f"girth7-large:{seed}")
    ops = []
    for n in GIRTH7_LADDER:
        for cap in (4, 5, 6):
            g = _generate(lib, "planar-girth7", n, cap, rng)
            ops.append(SolveOp(lib, f"planar-girth7 n={n} cap={cap}", g,
                               "girth7", cap, rng, ladder=True))
    g = _generate(lib, "tree", GIRTH7_LONG, 4, rng)
    ops.append(SolveOp(lib, f"tree n={GIRTH7_LONG}", g, "girth7", 4, rng,
                       ladder=False))
    g = _generate(lib, "cycle", GIRTH7_LONG, 2, rng)
    ops.append(SolveOp(lib, f"cycle n={GIRTH7_LONG}", g, "girth7", 4, rng,
                       ladder=False))
    return ops, None


EXACT_OPS = 400
# (family, n, delta): at most 7 edges each, so proving chi_s - 1 colors
# impossible stays within about 6! search nodes per graph.  Two trees to one
# sparse graph: op times cluster by chi_s (about 1 ms at 5, 10 ms at 7), and
# at one to one the median op fell in the gap between clusters, where it
# moved by 15% from seed to seed.
EXACT_MIX = (("tree", 8, 4), ("sparse-mad3", 5, 4), ("tree", 8, 3))


def exact_small(lib, seed, work):
    """Small random graphs (n <= 8) for the exact oracle."""
    rng = random.Random(f"exact-small:{seed}")
    ops = []
    for i in range(EXACT_OPS):
        family, n, delta = EXACT_MIX[i % len(EXACT_MIX)]
        g = _generate(lib, family, n, delta, rng)
        ops.append(ExactOp(lib, f"{family} n={n} delta={delta} #{i}", g))
    return ops, None


BUILDERS = {
    "corpus": corpus,
    "mad3-large": mad3_large,
    "girth7-large": girth7_large,
    "exact-small": exact_small,
}
