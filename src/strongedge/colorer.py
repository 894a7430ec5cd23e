"""Constructive list strong edge coloring.

Two certified pipelines plus a greedy baseline:

- :func:`solve_mad3` — graphs with maximum degree at most 4 and maximum
  average degree below 3, color budget ``3*max_degree + 1``;
- :func:`solve_girth7` — planar graphs of girth at least 7 under a degree
  cap of at least 4, color budget ``3*delta_cap`` (planarity is trusted,
  never machine-checked);
- :func:`greedy_color` — no guarantees, works on anything.

The certified pipelines peel one vertex at a time off a mutable
:class:`~strongedge.graph.PeelState` per component, following the plans
that the reducer's engine yields, then walk them in reverse on the input
graph and re-color each plan's erased edges.  The walk keeps each
vertex's star of colored edges, each mapped to its color, so an edge's
colored conflicts are the union of the stars around it.  A plan's bounds
are its configuration's formulas; each re-colored edge's colored
conflicts are counted once, when it is re-colored, and checked against
the formula, and its list must be longer than that count so that a color
is spare.
Neither pipeline checks the density before it peels: a coloring is
correct by its certificate, so an input that peels is colored whatever
its density.  A detector miss is a density rejection, with the densest
set of the component it happened on as the witness, when ``mad`` of that
component reaches the pipeline's threshold (3, or 14/5 for girth 7), and
a "theorem violation" error below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from .conflicts import edges_within_distance_two
from .density import DensityWitness, mad
from .graph import Graph, PeelState, girth as graph_girth
from .instances import ColorLists
from .reducer import (GIRTH7_MATCHERS, MAD_MATCHERS, ClaimTag, Matcher,
                      ReductionPlan, _girth7_cap, _new, _peel)

PartialColoring = dict[int, int]
"""Partial assignment: edge id -> color id."""


class HypothesisError(ValueError):
    """The input violates a documented precondition of the pipeline.

    ``witness`` is in dense vertex ids; the message names labels."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TheoremViolationError(RuntimeError):
    """A guarantee the pipelines rest on failed at runtime.

    Either the detector found no configuration below the pipeline's
    density threshold, or an extension step found its promise broken.
    Both mean a bug — here or in the guarantee — and are never swallowed.
    """


class ExtensionError(TheoremViolationError):
    """An extension step could not honor its conflict bound."""

    def __init__(self, message: str, *, claim_tag: ClaimTag, edge: int,
                 bound: int, actual: int):
        super().__init__(message)
        self.claim_tag = claim_tag
        self.edge = edge
        self.bound = bound
        self.actual = actual


@dataclass(frozen=True)
class Violation:
    """One reason a coloring is not a total list strong edge coloring."""

    kind: str  # "conflict" | "uncolored" | "unknown-edge" | "list"
    edges: tuple[int, ...]
    color: int | None = None


class ExtensionRecord(NamedTuple):
    """Instrumentation for one extension step (labels, not dense ids).

    ``actual`` counts the colored edges within distance two of ``edge``
    when it was re-colored, and the list was longer; ``bound`` equals
    ``actual``, as :func:`extend` checks the formula without recording it.
    A named tuple: a trace holds one per re-colored edge.
    """

    claim_tag: ClaimTag
    edge: tuple[int, int]
    bound: int
    actual: int
    color: int


@dataclass
class SolveReport:
    """Outcome of a solve: the coloring plus how it was obtained.

    ``certified`` is True when every edge was colored through the
    reduction machinery with every per-step conflict bound verified, as
    both pipelines always do; :func:`greedy_color` reports False and sets
    ``failed_edge`` where it ran out.  ``trace`` records every extension
    step that ran, one :class:`ExtensionRecord` named tuple each: the
    tag, the edge as a label pair, the bound (equal to the actual count),
    the actual count of colored conflicts and the color taken.
    ``colors_used`` counts the distinct colors in ``coloring``.
    """

    coloring: PartialColoring
    certified: bool
    failed_edge: int | None = None
    trace: tuple[ExtensionRecord, ...] = ()

    @property
    def colors_used(self) -> int:
        return len(set(self.coloring.values()))

    @property
    def complete(self) -> bool:
        return self.failed_edge is None


def uniform_lists(g: Graph, n_colors: int) -> ColorLists:
    """The default lists: every edge may use colors ``0..n_colors-1``."""
    palette = frozenset(range(n_colors))
    return {e: palette for e in range(g.m)}


def verify_strong(g: Graph, coloring: PartialColoring,
                  lists: ColorLists | None = None) -> list[Violation]:
    """All the ways ``coloring`` fails to be a list strong edge coloring.

    Returns an empty list on success.  Reports, in this order: colors on
    unknown edge ids (an entry, not a crash), uncolored edges, pairs of
    edges within distance two that share a color and, when ``lists`` is
    given, each colored edge whose color is outside its list, in
    ``coloring``'s order.  An edge with no entry in ``lists`` may take
    any color.  Each edge's two stars are first checked by their colors
    alone; only where a color repeats are the (edge, color) pairs built
    that name the clashing edges.
    """
    out: list[Violation] = []
    for e in sorted(coloring):
        if not 0 <= e < g.m:
            out.append(Violation("unknown-edge", (e,), coloring[e]))
    for e in range(g.m):
        if e not in coloring:
            out.append(Violation("uncolored", (e,)))
    # two edges lie within distance two exactly when both touch the ends
    # of one edge xy, so each edge's two stars are checked for a repeat
    edge_at = g.edge_at
    colors_at = [[c for f in at.values() if (c := coloring.get(f)) is not None]
                 for at in edge_at]
    clashes: set[tuple[int, int]] = set()
    for e, (x, y) in enumerate(g.edges):
        cx, cy = colors_at[x], colors_at[y]
        # a colored e is in both stars, so its color counts once
        if (len({*cx, *cy})
                == len(cx) + len(cy) - (coloring.get(e) is not None)):
            continue
        near = [(f, c) for f in edge_at[x].values()
                if (c := coloring.get(f)) is not None]
        near += [(f, c) for f in edge_at[y].values()
                 if f != e and (c := coloring.get(f)) is not None]
        clashes.update((f, h) for (f, c), (h, k)
                       in combinations(sorted(near), 2) if c == k)
    out += [Violation("conflict", (e, f), coloring[e])
            for e, f in sorted(clashes)]
    if lists is not None:
        for e, c in coloring.items():
            allowed = lists.get(e)
            if allowed is not None and c not in allowed:
                out.append(Violation("list", (e,), c))
    return out


def greedy_color(g: Graph, lists: ColorLists) -> SolveReport:
    """Color edges in id order with the smallest spare list color.

    No guarantees: returns a report with ``failed_edge`` set on the first
    edge whose list is exhausted.  Never certified.
    """
    lists = _normalize_lists(g, lists)
    coloring: PartialColoring = {}
    for e in range(g.m):
        used = {coloring[f] for f in edges_within_distance_two(g, e)
                if f in coloring}
        spare = sorted(lists[e] - used)
        if not spare:
            return SolveReport(coloring, certified=False, failed_edge=e)
        coloring[e] = spare[0]
    return SolveReport(coloring, certified=False)


def extend(g: Graph, partial: PartialColoring, plan: ReductionPlan,
           lists: ColorLists, trace: list[ExtensionRecord],
           stars: list[dict[int, int]]) -> PartialColoring:
    """Run a plan's extension steps on top of ``partial``, in place.

    ``g`` is a :class:`~strongedge.graph.Graph`, not a peel state: the
    step reads whole stars.  ``stars[w]`` maps each colored edge at
    vertex ``w`` to its color, so it holds exactly the edges of
    ``partial`` at ``w``.  ``partial`` must already be erased according
    to the plan (its erased edges uncolored in both it and ``stars``); it
    is extended and returned, each colored edge added to both its end
    stars and each step appended to ``trace``.  Each step counts the
    colored conflicts of its edge ``uv`` (``actual``): the union of the
    stars of the vertices of ``N(u) | N(v)``, less ``uv``, gathered in
    one dict whose values are their colors.  The stars of ``u`` and ``v``
    themselves are not merged: a colored edge ``ux`` other than ``uv``
    is in the star of ``x``, a neighbor of ``u``, and so is ``vx`` in
    that of a neighbor of ``v``, so the union is the same and ``uv`` is
    never in it.  It checks the paper's claim
    ``actual <= step.bound``; the list must be longer than ``actual``,
    which leaves a spare color, and the smallest spare color is taken.
    Violated promises raise :class:`ExtensionError` — loudly, because
    they mean the machinery's guarantee failed.
    """
    adj, edges, labels = g.adj, g.edges, g.labels
    tag = plan.claim_tag
    for e, bound in plan.extension_order:
        u, v = edges[e]
        near: dict[int, int] = {}
        for w in adj[u]:
            if w != v:
                near.update(stars[w])
        for w in adj[v]:
            if w != u:
                near.update(stars[w])
        actual = len(near)
        if actual > bound:
            raise ExtensionError(
                f"extension of edge {g.label_pair(e)} under {tag.value}: "
                f"{actual} colored conflicts exceed the promised bound "
                f"{bound}", claim_tag=tag, edge=e, bound=bound,
                actual=actual)
        allowed = lists[e]
        if len(allowed) <= actual:
            raise ExtensionError(
                f"edge {g.label_pair(e)} under {tag.value}: list of "
                f"size {len(allowed)} cannot guarantee a spare color "
                f"against bound {actual}", claim_tag=tag, edge=e,
                bound=actual, actual=actual)
        # more list colors than colored conflicts: a spare one exists
        color = min(allowed.difference(near.values()))
        partial[e] = stars[u][e] = stars[v][e] = color
        trace.append(_new(ExtensionRecord, (
            tag, (labels[u], labels[v]), actual, actual, color)))
    return partial


# ---------------------------------------------------------------------
# the list checks and the per-component solve shared by both pipelines
# ---------------------------------------------------------------------

def _name_edges(g: Graph, ids: list[int]) -> str:
    """The first 10 edges of ``ids`` as a list of label pairs, then how
    many more there are, so a message stays short on any graph."""
    text = str([g.label_pair(e) for e in ids[:10]])
    if len(ids) > 10:
        text += f" and {len(ids) - 10} more"
    return text


def _normalize_lists(g: Graph, lists: dict[int, Iterable[int]]) -> ColorLists:
    missing = [e for e in range(g.m) if e not in lists]
    if missing:
        raise HypothesisError(
            f"edges without a color list: {_name_edges(g, missing)}")
    return {e: frozenset(lists[e]) for e in range(g.m)}


def _solve_components(g: Graph, lists: dict[int, Iterable[int]] | None,
                      matchers: tuple[Matcher, ...], delta_cap: int | None,
                      budget: int, formula: str,
                      threshold: Fraction | int) -> SolveReport:
    """Check the lists, then solve per connected component, all into one
    coloring.

    Every edge needs a nonempty list, and unless ``g`` has a single edge
    every list needs at least ``budget`` colors (``formula`` names the
    budget in the error), which ``lists=None`` gives every edge.  A
    detector miss rejects ``g`` if ``mad`` of the component it happened
    on reaches ``threshold``, with that component's densest set as the
    witness, and raises :class:`TheoremViolationError` otherwise.
    """
    lists = _normalize_lists(g, lists if lists is not None
                             else uniform_lists(g, budget))
    if any(not lst for lst in lists.values()):
        raise HypothesisError("every edge needs a nonempty color list")
    if g.m == 1:
        return SolveReport({0: min(lists[0])}, certified=True)
    short = [e for e in range(g.m) if len(lists[e]) < budget]
    if short:
        raise HypothesisError(
            f"lists must have at least {formula} = {budget} colors; "
            f"too short on edges {_name_edges(g, short)}")
    trace: list[ExtensionRecord] = []
    coloring: PartialColoring = {}
    # the unwinds' colored edges at each vertex, edge -> color
    stars: list[dict[int, int]] = [{} for _ in range(g.n)]

    for comp in g.components():
        m = sum(map(len, map(g.adj.__getitem__, comp))) // 2
        if m == 0:
            continue
        if m == 1:
            e = g.edge_id(*comp)
            coloring[e] = min(lists[e])
            continue
        state = PeelState(g, comp)
        plans = list(_peel(state, matchers, delta_cap))
        if state.adj:  # no matcher fired on what is left
            witness = mad(g.induced(comp))  # its id i is comp[i]
            if (density := witness.density) >= threshold:
                dense = frozenset(comp[v] for v in witness.vertices)
                raise HypothesisError(
                    f"maximum average degree is {density} >= {threshold} "
                    f"on vertices {sorted(g.labels[v] for v in dense)}",
                    witness=DensityWitness(dense, density))
            raise TheoremViolationError(
                f"no reducible configuration found on a "
                f"hypothesis-satisfying graph with {len(state.adj)} "
                f"vertices — the guarantee this pipeline rests on failed")
        while plans:  # popped, so each plan is freed as the stars grow
            plan = plans.pop()
            for e in plan.erase_edges:
                if coloring.pop(e, None) is not None:
                    u, v = g.edges[e]
                    del stars[u][e], stars[v][e]
            # later plans colored only edges alive when this one was made,
            # so on g the step sees the colored conflicts the state had then
            extend(g, coloring, plan, lists, trace, stars)

    del stars  # freed before the gate builds its own color stars
    if bad := verify_strong(g, coloring, lists):
        raise TheoremViolationError(
            f"solver produced an invalid coloring: {bad[:3]}")
    return SolveReport(coloring, certified=True, trace=tuple(trace))


# ---------------------------------------------------------------------
# public pipelines
# ---------------------------------------------------------------------

def solve_mad3(g: Graph, lists: dict[int, Iterable[int]] | None = None
               ) -> SolveReport:
    """Certified coloring for sparse graphs: max degree <= 4, mad < 3.

    Every list must have at least ``3*max_degree(g) + 1`` colors, the
    budget ``lists=None`` gives every edge: ``solve_mad3(g)`` is the
    first theorem as stated.  Only the degree is checked up front.  A
    miss is a :class:`HypothesisError` with a witness when ``mad`` of the
    missed component is at least 3, and a :class:`TheoremViolationError`
    below it, where the theory says it cannot happen; an input that the
    M configurations peel to empty is colored whatever its density.
    """
    delta = g.max_degree()
    if delta > 4:
        raise HypothesisError(
            f"maximum degree {delta} exceeds 4; the sparse pipeline does "
            f"not apply")
    return _solve_components(g, lists, MAD_MATCHERS, None,
                             3 * delta + 1, "3*max_degree+1", 3)


def solve_girth7(g: Graph, lists: dict[int, Iterable[int]] | None = None,
                 delta_cap: int | None = None) -> SolveReport:
    """Coloring for planar graphs of girth >= 7 under a degree cap.

    Planarity is trusted, not machine-checked; girth and the degree cap
    (default ``max(4, max_degree(g))``) are verified.  Every list needs
    at least ``3*delta_cap`` colors, the budget ``lists=None`` gives
    every edge: ``solve_girth7(g)`` is the second theorem as stated.  On
    genuinely planar inputs the detectors never miss.  A miss is a
    :class:`HypothesisError` with a witness when ``mad`` of the missed
    component is at least 14/5, which Euler's formula rules out for
    planar graphs of girth >= 7, and a :class:`TheoremViolationError`
    below it.
    """
    delta_cap, over = _girth7_cap(g, delta_cap)
    if over:
        raise HypothesisError(over)
    got_girth = graph_girth(g, limit=7)
    if got_girth < 7:
        raise HypothesisError(
            f"girth {got_girth} is below 7; the girth-7 pipeline does "
            f"not apply")
    return _solve_components(g, lists, GIRTH7_MATCHERS, delta_cap,
                             3 * delta_cap, "3*delta_cap", Fraction(14, 5))
