"""Reducible configurations, the peeling engine over them, and detectors.

Each configuration is local and guaranteed to be "unwindable": delete
one vertex, color the smaller graph recursively, possibly erase a couple
of edge colors, then re-color the affected edges in a fixed order — with
a counting argument bounding how many colored edges can conflict with
each re-colored edge at its turn.

Two families exist, one per solving pipeline: ``M1``..``M5`` for the
sparse pipeline (max degree <= 4, maximum average degree < 3) and
``G1``..``G8`` for the planar girth-7 pipeline (degree cap >= 4).
Each tag is one matcher: ``match(g, v, d)`` asks whether the tag's
configuration sits at vertex ``v`` and returns its plan or None, where
``d`` is the degree the bound formulas are evaluated at.  Matchers are
pure queries: they never mutate the graph, and they are meaningful on any
graph — whether the governing hypotheses hold is the caller's business.

The next plan is chosen in one place, the engine :func:`_peel`: the
first tag in order that fires anywhere wins, at its smallest vertex id.
Both pipelines peel with it, and ``find_reducible_mad`` /
``find_reducible_girth7`` take its first plan on every vertex of a graph.

Each matcher also has a radius: deleting a vertex can change its answer
at ``v`` only if ``v`` lies within that distance of the deleted vertex.
A matcher that reads degrees up to distance ``r`` from ``v`` has radius
``r + 1``, because a deletion changes exactly the degrees of the deleted
vertex's neighbors.  Each matcher's docstring names that farthest read.
And each matcher has a degree window: its first test is on the degree
of ``v`` itself, so it can fire only while that degree lies in the
window.  The engine uses the radii to re-check a vertex a matcher
refused only once a degree that matcher read there has fallen, and the
windows to skip vertices whose own degree rules the tag out:

    tag  radius  window       tag  radius  window
    M1   1       at most 1    G1   3       at most 1
    M2   2       2            G2   2       2
    M3   3       2            G3   2       at least 1
    M4   2       4            G4   3       2
    M5   4       4            G5   3       2
                              G6   3       2
                              G7   3       at least 5
                              G8   4       at least 5
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import partial
from typing import Callable, Iterator, NamedTuple

from .conflicts import edges_within_distance_two
from .graph import INFINITY, Graph, PeelState, count_twos


class ClaimTag(str, Enum):
    """Which reducible configuration a plan came from."""

    M1_PENDANT = "M1"
    M2_TWO_WEAK = "M2"
    M3_TWO_TWOS = "M3"
    M4_ALL_TWOS = "M4"
    M5_THREE_TWOS = "M5"
    G1_PENDANT = "G1"
    G2_TWO_WEAK = "G2"
    G3_ALL_WEAK = "G3"
    G4_FOUR_AND_TWO = "G4"
    G5_FOUR_AND_THREE = "G5"
    G6_THREE_WITH_TWO_TWOS = "G6"
    G7_ONE_STRONG_NEIGHBOR = "G7"
    G8_TWO_STRONG_NEIGHBORS = "G8"


class ExtensionStep(NamedTuple):
    """One edge to re-color, with its guaranteed conflict bound.

    ``bound`` is the configuration's formula (for example ``2*d + 3``),
    not clipped to the graph at hand: the claim is that when this step
    runs, at most ``bound`` colored edges lie within distance two of
    ``edge``.  :func:`~strongedge.colorer.extend` counts them and checks
    the claim.  A named tuple, so a step unpacks as ``edge, bound``.
    """

    edge: int
    bound: int


class ReductionPlan(NamedTuple):
    """Recipe produced by a detector, in the detected graph's edge ids.

    Apply by deleting ``delete_vertex``, coloring the rest (recursively),
    un-coloring every edge in ``erase_edges``, then coloring the edges of
    ``extension_order`` first to last.  Every erased edge shows up later
    in the extension order, so the final coloring is total.
    """

    claim_tag: ClaimTag
    delete_vertex: int
    erase_edges: tuple[int, ...]
    extension_order: tuple[ExtensionStep, ...]


# the hot paths build plans, steps and records with the C-level
# tuple.__new__: a named tuple's generated __new__ costs a Python frame
_new = tuple.__new__


def _plan(g: Graph, tag: ClaimTag, delete_vertex: int,
          erase_pairs: list[tuple[int, int]],
          extension: list[tuple[tuple[int, int], int]]) -> ReductionPlan:
    """Assemble a plan from vertex pairs.

    ``extension`` lists ``((u, v), formula_bound)`` in coloring order.
    Each step keeps its formula as is: the configuration's counting
    argument, evaluated at ``d``.  Counting the conflicts a step really
    meets is left to :func:`~strongedge.colorer.extend`, which does it
    anyway when the step runs.
    """
    edge_at = g.edge_at
    return _new(ReductionPlan, (
        tag, delete_vertex, tuple([edge_at[u][v] for u, v in erase_pairs]),
        tuple([_new(ExtensionStep, (edge_at[u][v], formula))
               for (u, v), formula in extension])))


def _other_neighbor(g: Graph, v: int, not_this: int) -> int:
    """The neighbor of a degree-2 vertex ``v`` other than ``not_this``."""
    a, b = g.adj[v]
    return b if a == not_this else a


# ---------------------------------------------------------------------
# sparse pipeline (max degree <= 4, mad < 3): tags M1..M5, with d the
# maximum degree of the graph the plan is made on
# ---------------------------------------------------------------------

def _m1(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """An isolated or pendant vertex (reads the degree of ``v``)."""
    a = g.adj[v]
    if len(a) <= 1:
        return _new(ReductionPlan, (ClaimTag.M1_PENDANT, v, (), (
            _new(ExtensionStep, (g.edge_at[v][a[0]], 3 * d)),) if a else ()))
    return None


def _two_weak(tag: ClaimTag, g: Graph, v: int,
              d: int) -> ReductionPlan | None:
    """A 2-vertex whose both neighbors have degree <= 3 (distance 1).
    M2 and G2 are this configuration with the same bounds; ``tag`` names
    which one the plan is for."""
    if g.degree(v) != 2:
        return None
    u, w = g.adj[v]
    if g.degree(u) <= 3 and g.degree(w) <= 3:
        return _plan(g, tag, v, [], [((v, u), 2 * d + 2), ((v, w), 2 * d + 3)])
    return None


def _m3(g: Graph, v1: int, d: int) -> ReductionPlan | None:
    """A 2-vertex v1 ~ {v, w1} where v has two or more degree-2 neighbors
    yet w1 still has degree <= 3 (distance 2: the neighbors of v)."""
    if g.degree(v1) != 2:
        return None
    for v, w1 in (g.adj[v1], g.adj[v1][::-1]):
        if g.degree(w1) <= 3 and count_twos(g, v) >= 2:
            return _plan(g, ClaimTag.M3_TWO_TWOS, v1, [],
                         [((v, v1), 2 * d + 4), ((v1, w1), 2 * d + 4)])
    return None


def _m4(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """A 4-vertex with four degree-2 neighbors (distance 1)."""
    if g.degree(v) == 4 and all(g.degree(u) == 2 for u in g.adj[v]):
        ext = [((v, u), d + 3 + i) for i, u in enumerate(g.adj[v])]
        return _plan(g, ClaimTag.M4_ALL_TWOS, v, [], ext)
    return None


def _m5(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """A 4-vertex with exactly three degree-2 neighbors, one of which has
    its far endpoint w1 outside the "4-vertex with a single degree-2
    neighbor" class (distance 3: the neighbors of w1)."""
    if g.degree(v) != 4:
        return None
    twos = [u for u in g.adj[v] if g.degree(u) == 2]
    if len(twos) != 3:
        return None
    for v1 in twos:
        w1 = _other_neighbor(g, v1, v)
        if g.degree(w1) == 4 and count_twos(g, w1) == 1:
            continue
        v2 = min(u for u in twos if u != v1)
        return _plan(g, ClaimTag.M5_THREE_TWOS, v1, [(v, v2)],
                     [((v1, w1), 2 * d + 4),
                      ((v, v1), 2 * d + 3),
                      ((v, v2), 2 * d + 4)])
    return None


# ---------------------------------------------------------------------
# planar girth-7 pipeline (degree cap >= 4): tags G1..G8, with d the cap
# ---------------------------------------------------------------------

def _g1(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """An isolated vertex, or a pendant edge ``vu`` with fewer than 3*cap
    edges within distance two (distance 2: the degrees of u's neighbors).

    Those edges number ``sum(deg(w) for w in N(u) - {v})`` when no
    triangle passes through u, and fewer otherwise, so that sum decides
    when it is below 3*cap; only when it is not is the exact set counted.
    The plan's bound is the formula 3*cap itself.
    """
    adj = g.adj
    if not adj[v]:
        return _new(ReductionPlan, (ClaimTag.G1_PENDANT, v, (), ()))
    if len(adj[v]) == 1:
        u = adj[v][0]
        e = g.edge_at[u][v]
        if (sum(map(len, map(adj.__getitem__, adj[u]))) - 1 < 3 * d
                or len(edges_within_distance_two(g, e)) < 3 * d):
            return _new(ReductionPlan, (ClaimTag.G1_PENDANT, v, (), (
                _new(ExtensionStep, (e, 3 * d)),)))
    return None


def _g3(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """A vertex all of whose neighbors have degree <= 2 (distance 1)."""
    tau = g.degree(v)
    if tau >= 1 and all(g.degree(u) <= 2 for u in g.adj[v]):
        ext = [((v, u), d + tau - 1 + i) for i, u in enumerate(g.adj[v])]
        return _plan(g, ClaimTag.G3_ALL_WEAK, v, [], ext)
    return None


def _g4(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """A 2-vertex between a 4-vertex u and a 2-vertex w, where u has more
    degree-2 neighbors than just v (distance 2: the neighbors of u)."""
    if g.degree(v) != 2:
        return None
    for u, w in (g.adj[v], g.adj[v][::-1]):
        if (g.degree(u) == 4 and g.degree(w) == 2
                and count_twos(g, u) != 1):
            return _plan(g, ClaimTag.G4_FOUR_AND_TWO, v, [],
                         [((u, v), 2 * d + 3), ((w, v), d + 4)])
    return None


def _g5(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """A 2-vertex between a 4-vertex u with three degree-2 neighbors and a
    3-vertex w (distance 2: the neighbors of u)."""
    if g.degree(v) != 2:
        return None
    for u, w in (g.adj[v], g.adj[v][::-1]):
        if (g.degree(u) == 4 and g.degree(w) == 3
                and count_twos(g, u) == 3):
            return _plan(g, ClaimTag.G5_FOUR_AND_THREE, v, [],
                         [((w, v), 2 * d + 3), ((u, v), d + 7)])
    return None


def _g6(g: Graph, v1: int, d: int) -> ReductionPlan | None:
    """A 2-vertex v1 ~ {v, w1} where v is a 3-vertex with two degree-2
    neighbors and w1 is neither a 5-or-more-vertex nor a 4-vertex with a
    single degree-2 neighbor (distance 2: the neighbors of v and w1)."""
    if g.degree(v1) != 2:
        return None
    for v, w1 in (g.adj[v1], g.adj[v1][::-1]):
        if g.degree(v) != 3 or count_twos(g, v) != 2:
            continue
        if g.degree(w1) >= 5:
            continue
        if g.degree(w1) == 4 and count_twos(g, w1) == 1:
            continue
        v2 = next(u for u in g.adj[v] if u != v1 and g.degree(u) == 2)
        return _plan(g, ClaimTag.G6_THREE_WITH_TWO_TWOS, v1, [(v, v2)],
                     [((v1, w1), 2 * d + 3),
                      ((v, v1), d + 5),
                      ((v, v2), 2 * d + 2)])
    return None


def _g7(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """A vertex of degree k >= 5 with exactly one neighbor of degree >= 3.
    Reducible at a pendant neighbor, or at a degree-2 neighbor whose far
    endpoint has degree <= 3 (distance 2: the far endpoints)."""
    k = g.degree(v)
    if k < 5:
        return None
    strong = [u for u in g.adj[v] if g.degree(u) >= 3]
    if len(strong) != 1:
        return None
    pendants = [u for u in g.adj[v] if g.degree(u) == 1]
    if pendants:
        u = pendants[0]
        return _plan(g, ClaimTag.G7_ONE_STRONG_NEIGHBOR, u, [],
                     [((u, v), d + 2 * k - 4)])
    for v1 in g.adj[v]:
        if g.degree(v1) != 2:
            continue
        w1 = _other_neighbor(g, v1, v)
        if g.degree(w1) <= 3:
            return _plan(g, ClaimTag.G7_ONE_STRONG_NEIGHBOR, v1, [],
                         [((v1, w1), 2 * d + k - 1),
                          ((v, v1), d + 2 * k - 1)])
    return None


def _g8(g: Graph, v: int, d: int) -> ReductionPlan | None:
    """A vertex of degree k >= 5 with exactly two neighbors of degree >= 3
    and ell pendant neighbors.  Reducible at a pendant neighbor when
    ell >= k-4; when ell == k-5 (so exactly three degree-2 neighbors) it
    reduces if every far endpoint is a 2-vertex or a 3-vertex with two
    degree-2 neighbors (distance 3: the neighbors of the far endpoints)."""
    k = g.degree(v)
    if k < 5:
        return None
    strong = [u for u in g.adj[v] if g.degree(u) >= 3]
    if len(strong) != 2:
        return None
    ell = sum(1 for u in g.adj[v] if g.degree(u) == 1)
    if ell >= k - 4:
        u = next(x for x in g.adj[v] if g.degree(x) == 1)
        return _plan(g, ClaimTag.G8_TWO_STRONG_NEIGHBORS, u, [],
                     [((u, v), 2 * d + 2 * k - ell - 5)])
    if ell == k - 5:
        twos = [u for u in g.adj[v] if g.degree(u) == 2]
        fars = [_other_neighbor(g, u, v) for u in twos]
        if all(g.degree(w) == 2
               or (g.degree(w) == 3 and count_twos(g, w) == 2)
               for w in fars):
            (v1, v2, v3), (w1, w2, w3) = twos, fars
            return _plan(g, ClaimTag.G8_TWO_STRONG_NEIGHBORS, v1,
                         [(v2, w2), (v3, w3)],
                         [((v, v1), 2 * d + k - 1),
                          ((v1, w1), d + k + 2),
                          ((v2, w2), d + k + 2),
                          ((v3, w3), d + k + 2)])
    return None


# ---------------------------------------------------------------------
# the matchers in priority order, the engine over them, and the detectors
# ---------------------------------------------------------------------

class Matcher(NamedTuple):
    """One tag's matcher, its radius and its degree window ``(lo, hi)``:
    the matcher fires at ``v`` only if ``lo <= degree(v) <= hi`` (see the
    module docstring)."""

    tag: ClaimTag
    match: Callable[[Graph, int, int], ReductionPlan | None]
    radius: int
    window: tuple[int, int | float]


MAD_MATCHERS = (
    Matcher(ClaimTag.M1_PENDANT, _m1, 1, (0, 1)),
    Matcher(ClaimTag.M2_TWO_WEAK, partial(_two_weak, ClaimTag.M2_TWO_WEAK),
            2, (2, 2)),
    Matcher(ClaimTag.M3_TWO_TWOS, _m3, 3, (2, 2)),
    Matcher(ClaimTag.M4_ALL_TWOS, _m4, 2, (4, 4)),
    Matcher(ClaimTag.M5_THREE_TWOS, _m5, 4, (4, 4)),
)

GIRTH7_MATCHERS = (
    Matcher(ClaimTag.G1_PENDANT, _g1, 3, (0, 1)),
    Matcher(ClaimTag.G2_TWO_WEAK, partial(_two_weak, ClaimTag.G2_TWO_WEAK),
            2, (2, 2)),
    Matcher(ClaimTag.G3_ALL_WEAK, _g3, 2, (1, INFINITY)),
    Matcher(ClaimTag.G4_FOUR_AND_TWO, _g4, 3, (2, 2)),
    Matcher(ClaimTag.G5_FOUR_AND_THREE, _g5, 3, (2, 2)),
    Matcher(ClaimTag.G6_THREE_WITH_TWO_TWOS, _g6, 3, (2, 2)),
    Matcher(ClaimTag.G7_ONE_STRONG_NEIGHBOR, _g7, 3, (5, INFINITY)),
    Matcher(ClaimTag.G8_TWO_STRONG_NEIGHBORS, _g8, 4, (5, INFINITY)),
)


def _peel(state: PeelState, matchers: tuple[Matcher, ...],
          delta_cap: int | None) -> Iterator[ReductionPlan]:
    """Yield plans, deleting each plan's vertex, until no matcher fires.

    Each plan is yielded before its vertex is deleted, so the first one is
    the answer on the state as given.  Plans are made at the state's
    current maximum degree, or at ``delta_cap`` when given.  The generator
    returns when ``state`` is empty or when no matcher fires at any vertex
    left, which it leaves in ``state``: a miss is a nonempty ``state.adj``.
    Each matcher has a min-heap of vertex ids that holds every vertex it
    currently fires at (and stale ones, dropped at the top).  The first
    tag with a firing vertex wins, at its smallest id.  A tag's heap is
    built the first time the loop reaches the tag, from the alive vertices
    whose degree lies in its window; tags are reached in priority order,
    so the built heaps are a prefix of ``matchers``.  A vertex ``v`` that
    a tag refuses is watched from each vertex within ``radius - 1`` of it
    once its round has a plan (a miss takes no ball).  After ``x`` is
    deleted, each former neighbor ``y`` goes back on the built heaps whose
    window holds its new degree, and so does each watcher at ``y`` alive
    and in its window.  Every firing vertex stays queued, so the plans are
    a full scan's: deleting ``x`` can change the answer at ``v`` only if
    ``v`` is within ``radius - 1`` of some ``y``, in the ball taken when
    ``v`` was refused as distances only grow; and a vertex enters a window
    only as a ``y``, its degree falling.  Pushes do not check for a
    queued copy, yet the plans stay the same: a heap's minimum is the same
    with copies, and the asked vertex's copies pop together, so no tag is
    asked twice at one vertex in a round.  A heap holds its window's
    members when built, plus one entry per degree drop at a ``y`` and one
    per watch entry: O(n + m) per tag, plus the watches.
    """
    adj = state.adj
    heappush, heappop, delete = heapq.heappush, heapq.heappop, state.delete
    indexed = tuple(enumerate(matchers))
    heaps: list[list[int]] = []
    tags_at: list[list[int]] = [[] for _ in range(state.max_degree() + 1)]
    watch: dict[int, list[tuple[int, int]]] = {}
    while adj:
        d = delta_cap if delta_cap is not None else state.max_degree()
        plan, refused = None, []  # refused (tag, vertex) pairs, flat
        for k, matcher in indexed:
            if k == len(heaps):
                # deletions only pop keys, so ``adj`` stays ascending: a heap
                lo, hi = matcher.window
                heaps.append([v for v, a in adj.items() if lo <= len(a) <= hi])
                for g in range(lo, min(hi, len(tags_at) - 1) + 1):
                    tags_at[g].append(k)
            heap = heaps[k]
            while heap:
                v = heap[0]
                if v in adj:
                    plan = matcher.match(state, v, d)
                    if plan is not None:
                        break
                    refused += k, v
                while heap and heap[0] == v:
                    heappop(heap)
            if plan is not None:
                break
        else:
            return
        yield plan
        if refused:  # most rounds refuse nothing; they build no iterators
            pairs = iter(refused)
            for k, v in zip(pairs, pairs):
                for ring in state.ball(v, matchers[k].radius - 1):
                    for w in ring:
                        watch.setdefault(w, []).append((k, v))
        nbrs = adj[plan.delete_vertex]
        delete(plan.delete_vertex)
        watch.pop(plan.delete_vertex, None)
        for y in nbrs:
            for k in tags_at[len(adj[y])]:
                heappush(heaps[k], y)
            for k, v in watch.pop(y, ()):
                if v in adj and k in tags_at[len(adj[v])]:
                    heappush(heaps[k], v)


def find_reducible_mad(g: Graph) -> ReductionPlan | None:
    """First reducible configuration for the sparse pipeline, or None.

    Tag priority M1 > M2 > M3 > M4 > M5, smallest vertex id first within
    a tag: the engine's first plan on every vertex of ``g``.  Bound
    formulas are evaluated at the maximum degree of ``g`` itself; their
    validity rests on it being at most 4.
    """
    return next(_peel(PeelState(g, range(g.n)), MAD_MATCHERS, None), None)


def _girth7_cap(g: Graph, delta_cap: int | None) -> tuple[int, str | None]:
    """``delta_cap`` (default ``max(4, max degree)``), checked to be >= 4,
    and why the maximum degree does not fit under it (None when it does).
    """
    delta = g.max_degree()
    cap = delta_cap if delta_cap is not None else max(4, delta)
    if cap < 4:
        raise ValueError(f"delta_cap must be >= 4, got {cap}")
    return cap, (f"maximum degree {delta} exceeds the cap {cap}"
                 if delta > cap else None)


def find_reducible_girth7(g: Graph, delta_cap: int | None = None
                          ) -> ReductionPlan | None:
    """First reducible configuration for the girth-7 pipeline, or None.

    ``delta_cap`` (default ``max(4, max degree)``) is the degree cap the
    governing color budget ``3 * delta_cap`` is computed from; a cap below
    4 or a maximum degree above it raises ValueError.  Tag priority G1 >
    ... > G8, smallest vertex id first within a tag: the engine's first
    plan on every vertex of ``g``.
    """
    cap, over = _girth7_cap(g, delta_cap)
    if over:
        raise ValueError(over)
    return next(_peel(PeelState(g, range(g.n)), GIRTH7_MATCHERS, cap), None)
