"""Command-line front end.

Exit codes for ``color``: 0 the coloring is certified, 1 the instance
fails the pipeline's hypotheses (or cannot be read), 3 an internal
guarantee was violated (a bug, or a non-planar girth-7 input below
density 14/5).  ``verify`` exits 0/1 for valid/invalid.  Any command
exits 2 on a usage error (bad arguments).

Colorings go to stdout as ``c U V COLOR`` lines; everything human-facing
goes to stderr, so ``color`` output pipes straight into ``verify``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .colorer import (HypothesisError, TheoremViolationError, solve_girth7,
                      solve_mad3, uniform_lists, verify_strong)
from .density import density_exceeds, mad
from .discharge import audit_girth7, audit_mad, trace_faces
from .generate import FAMILIES, GenSpec, generate
from .graph import girth
from .instances import (InstanceFile, ParseError, parse_coloring,
                        parse_instance, serialize_coloring,
                        serialize_instance)
from .oracle import BudgetExceededError, SearchBudget, \
    strong_chromatic_index_exact


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load(path: str) -> InstanceFile:
    return parse_instance(_read(path))


def _emit(text: str, output: str | None):
    if output and output != "-":
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _say(msg: str):
    print(msg, file=sys.stderr)


def _cmd_color(args) -> int:
    if args.delta_cap is not None and args.pipeline != "girth7":
        _say("usage error: --delta-cap applies only to --pipeline girth7")
        return 2
    inst = _load(args.instance)
    g = inst.graph
    # no lists: the solve uses its theorem's budget
    lists = (uniform_lists(g, args.colors) if args.colors is not None
             else inst.lists)
    try:
        if args.pipeline == "mad3":
            report = solve_mad3(g, lists)
        else:
            report = solve_girth7(g, lists, delta_cap=args.delta_cap)
    except HypothesisError as exc:
        _say(f"rejected: {exc}")
        return 1
    except TheoremViolationError as exc:
        _say(f"internal guarantee violated: {exc}")
        return 3
    _say(f"pipeline {args.pipeline}: {g.n} vertices, {g.m} edges, "
         f"{report.colors_used} colors used")
    _say("certified: every extension step stayed within its bound")
    _emit(serialize_coloring(g, report.coloring), args.output)
    return 0


def _cmd_verify(args) -> int:
    inst = _load(args.instance)
    g = inst.graph
    coloring = parse_coloring(_read(args.coloring), g)
    violations = verify_strong(g, coloring, inst.lists)
    for v in violations:
        if v.kind == "list":
            a, b = g.label_pair(v.edges[0])
            _say(f"violation (list): edge {a}-{b} uses {v.color}, "
                 f"not in its allowed list")
        else:
            names = ", ".join("{}-{}".format(*g.label_pair(e))
                              for e in v.edges if 0 <= e < g.m)
            _say(f"violation ({v.kind}): edges {names or v.edges}"
                 + (f" share color {v.color}" if v.color is not None
                    else ""))
    if violations:
        return 1
    _say(f"valid strong edge coloring with "
         f"{len(set(coloring.values()))} colors")
    return 0


def _cmd_exact(args) -> int:
    inst = _load(args.instance)
    g = inst.graph
    budget = SearchBudget(max_nodes=args.max_nodes,
                          edge_cap=max(args.edge_cap, g.m)
                          if args.force else args.edge_cap)
    try:
        result = strong_chromatic_index_exact(g, budget)
    except BudgetExceededError as exc:
        _say(f"gave up: {exc}")
        return 1
    except ValueError as exc:
        _say(f"refused: {exc}")
        return 1
    _say(f"strong chromatic index = {result.chi_s} "
         f"(clique lower bound {result.lower_bound_clique})")
    _emit(serialize_coloring(g, result.witness), args.output)
    return 0


def _cmd_mad(args) -> int:
    inst = _load(args.instance)
    g = inst.graph
    if args.threshold is not None:
        try:
            thr = Fraction(args.threshold)
        except ZeroDivisionError:
            raise ValueError(
                f"threshold {args.threshold} has a zero denominator") from None
        witness = density_exceeds(g, thr)
        if witness is None:
            _say(f"maximum average degree does not exceed {thr}")
            return 0
        labels = sorted(g.labels[v] for v in witness.vertices)
        _say(f"density {witness.density} > {thr} on vertices {labels}")
        return 0
    witness = mad(g)
    labels = sorted(g.labels[v] for v in witness.vertices)
    _say(f"maximum average degree = {witness.density} "
         f"(achieved by {labels})")
    return 0


def _cmd_girth(args) -> int:
    inst = _load(args.instance)
    value = girth(inst.graph)
    _say("girth = " + ("infinite" if value == float("inf") else str(int(value))))
    return 0


def _cmd_audit(args) -> int:
    if args.delta_cap is not None and args.scheme != "girth7":
        _say("usage error: --delta-cap applies only to --scheme girth7")
        return 2
    inst = _load(args.instance)
    g = inst.graph
    if args.scheme == "girth7":
        if inst.rotation is None:
            _say("the girth-7 scheme needs rotation records (r lines)")
            return 1
        report = audit_girth7(trace_faces(g, inst.rotation), args.delta_cap)
    else:
        report = audit_mad(g)
    led = report.ledger
    total = led.total_initial()  # audits raise unless the final sums to it
    _say(f"scheme {args.scheme}: total initial charge {total}, "
         f"total final {total}, {len(led.transfers)} transfers")
    _say(f"identity total: {report.identity_total}")
    if report.plan is not None:
        _say(f"detector: {report.plan.claim_tag.value} deleting vertex "
             f"{g.labels[report.plan.delete_vertex]}")
    else:
        _say("detector: no reducible configuration found")
    touches = dict(report.plan_touches)
    for (kind, i), q in report.negatives:
        touched = touches.get((kind, i), False)
        where = (f"vertex {g.labels[i]}" if kind == "v" else f"face {i}")
        _say(f"negative final charge {q} at {where}"
             + (" [plan touches it]" if touched else ""))
    if not report.negatives:
        _say("no element ends with negative charge")
    for note in report.notes:
        _say(f"note: {note}")
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(args.family, args.n, delta=args.delta, seed=args.seed)
    inst = generate(spec)
    _emit(serialize_instance(inst), args.output)
    return 0


def _at_least(low: int):
    """An argparse ``type`` for integers no smaller than ``low``: anything
    else is a usage error (exit 2) before any command runs."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was, and each
    # call gets a fresh namespace filled from the declared defaults
    p = argparse.ArgumentParser(
        prog="strongedge",
        description="strong edge coloring from lists, with certificates")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("color", help="color an instance constructively")
    c.add_argument("instance")
    c.add_argument("--pipeline", choices=("mad3", "girth7"), default="mad3")
    c.add_argument("--delta-cap", type=int, default=None,
                   help="degree cap for the girth7 pipeline (>= 4)")
    c.add_argument("--colors", type=int, default=None,
                   help="ignore instance lists; use colors 0..N-1 everywhere")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_color)

    v = sub.add_parser("verify", help="check a coloring file")
    v.add_argument("instance")
    v.add_argument("coloring")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("exact", help="exact strong chromatic index")
    e.add_argument("instance")
    e.add_argument("--max-nodes", type=_at_least(1), default=2_000_000)
    e.add_argument("--edge-cap", type=_at_least(0), default=28)
    e.add_argument("--force", action="store_true",
                   help="lift the edge cap to the instance size")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=_cmd_exact)

    m = sub.add_parser("mad", help="exact maximum average degree")
    m.add_argument("instance")
    m.add_argument("--threshold", default=None,
                   help="rational P/Q or decimal: report whether some "
                   "subgraph is denser")
    m.set_defaults(func=_cmd_mad)

    gi = sub.add_parser("girth", help="shortest cycle length")
    gi.add_argument("instance")
    gi.set_defaults(func=_cmd_girth)

    a = sub.add_parser("audit", help="run a charge-counting audit")
    a.add_argument("instance")
    a.add_argument("--scheme", choices=("mad", "girth7"), default="mad")
    a.add_argument("--delta-cap", type=int, default=None,
                   help="degree cap for the girth7 scheme (>= 4)")
    a.set_defaults(func=_cmd_audit)

    ge = sub.add_parser("gen", help="generate a seeded instance")
    ge.add_argument("family", choices=FAMILIES)
    ge.add_argument("n", type=int)
    ge.add_argument("--delta", type=int, default=4)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("-o", "--output", default=None)
    ge.set_defaults(func=_cmd_gen)
    return p


def run_command(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _say(f"bad input: {exc}")
        return 1
    except OSError as exc:
        _say(f"io error: {exc}")
        return 1
    except ValueError as exc:
        _say(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run_command())
