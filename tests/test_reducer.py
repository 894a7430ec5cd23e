"""Detector tests: each configuration pinned by a hand-built witness.

The witnesses are constructed so that every earlier tag is structurally
impossible, which makes the expected tag, deleted vertex, erased edges,
and extension order fully determined.  A plan's bounds are the
configuration's formulas; the trace that ``extend`` writes when the plan
runs clips each to the conflicts really met, and those clipped bounds
were counted by hand where asserted exactly.
"""

from __future__ import annotations

import random

import pytest

from strongedge import (ClaimTag, GenSpec, build_graph,
                        edges_within_distance_two, find_reducible_girth7,
                        find_reducible_mad, generate, uniform_lists)
from strongedge.graph import INFINITY, PeelState
from strongedge.reducer import (GIRTH7_MATCHERS, MAD_MATCHERS, _g1,
                                _girth7_cap)
from tests.helpers import (delete_vertex, extend_partial, random_graph,
                           random_sparse_graph, scan_first_plan,
                           set_count_g1)


def eid(g, a, b):
    return g.edge_id(a, b)


def ext_edges(g, plan):
    return [g.edges[s.edge] for s in plan.extension_order]


def formulas(plan):
    return [s.bound for s in plan.extension_order]


def check_plan_shape(g, plan):
    """Structural invariants every plan must satisfy; runs the plan with
    every other edge colored, as when it is unwound, and returns the
    bounds of the trace that ``extend`` writes."""
    v = plan.delete_vertex
    incident = {g.edge_id(v, w) for w in g.adj[v]}
    assert set(s.edge for s in plan.extension_order) == \
        incident | set(plan.erase_edges)
    for e in plan.erase_edges:
        assert e in {s.edge for s in plan.extension_order}
    ext = {s.edge for s in plan.extension_order}
    partial = {e: e for e in range(g.m) if e not in ext}  # all distinct
    trace = []
    extend_partial(g, partial, plan, uniform_lists(g, g.m + 1), trace)
    assert len(trace) == len(plan.extension_order)
    seen = set()
    for s, record in zip(plan.extension_order, trace):
        assert s.edge not in seen
        seen.add(s.edge)
        assert 0 <= s.bound
        later = ext - seen
        possible = len(edges_within_distance_two(g, s.edge) - later)
        assert record.actual == possible
        assert record.bound == min(s.bound, possible) <= possible
    return [record.bound for record in trace]


def test_m1_pendant_and_isolated():
    g = build_graph([(0, 1), (1, 2)])
    plan = find_reducible_mad(g)
    assert plan.claim_tag is ClaimTag.M1_PENDANT
    assert plan.delete_vertex == 0
    assert ext_edges(g, plan) == [(0, 1)]
    assert formulas(plan) == [6]
    check_plan_shape(g, plan)

    lonely = build_graph([(1, 2), (2, 3), (3, 1)], vertices=range(4))
    plan = find_reducible_mad(lonely)
    assert plan.claim_tag is ClaimTag.M1_PENDANT
    assert plan.delete_vertex == 0
    assert plan.extension_order == ()


def test_m2_on_c7_with_hand_counted_bounds():
    g = build_graph([(i, (i + 1) % 7) for i in range(7)])
    plan = find_reducible_mad(g)
    assert plan.claim_tag is ClaimTag.M2_TWO_WEAK
    assert plan.delete_vertex == 0
    assert ext_edges(g, plan) == [(0, 1), (0, 6)]
    # formulas allow 2*2+2=6 and 2*2+3=7 but only 3 and 4 edges within
    # distance two can be colored at those moments
    assert formulas(plan) == [6, 7]
    assert check_plan_shape(g, plan) == [3, 4]


def test_m3_two_degree_two_neighbors():
    g = build_graph([
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6),
        (3, 4), (3, 9), (3, 10), (4, 9), (4, 10),
        (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)])
    assert g.max_degree() == 4
    plan = find_reducible_mad(g)
    assert plan.claim_tag is ClaimTag.M3_TWO_TWOS
    assert plan.delete_vertex == 1
    assert ext_edges(g, plan) == [(0, 1), (1, 5)]
    assert formulas(plan) == [2 * 4 + 4] * 2
    check_plan_shape(g, plan)


def test_m4_four_degree_two_neighbors():
    # two hubs joined by four internally disjoint 2-paths; mad = 8/3
    g = build_graph([(0, i) for i in range(1, 5)]
                    + [(i, 5) for i in range(1, 5)])
    plan = find_reducible_mad(g)
    assert plan.claim_tag is ClaimTag.M4_ALL_TWOS
    assert plan.delete_vertex == 0
    assert ext_edges(g, plan) == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert formulas(plan) == [7, 8, 9, 10]
    check_plan_shape(g, plan)


def test_m5_three_degree_two_neighbors():
    g = build_graph([
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7),
        (4, 7), (4, 9), (5, 8), (5, 9), (5, 10), (6, 8), (6, 9),
        (6, 10), (7, 9), (7, 10)])
    assert g.max_degree() == 4
    plan = find_reducible_mad(g)
    assert plan.claim_tag is ClaimTag.M5_THREE_TWOS
    assert plan.delete_vertex == 1
    assert [g.edges[e] for e in plan.erase_edges] == [(0, 2)]
    assert ext_edges(g, plan) == [(1, 5), (0, 1), (0, 2)]
    assert formulas(plan) == [12, 11, 12]
    check_plan_shape(g, plan)


def test_mad_detector_none_on_cubic():
    # 3-regular: no degree <= 2 vertex, no 4-vertex -> nothing fires
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert find_reducible_mad(k4) is None


def test_g1_pendant_and_isolated():
    g = build_graph([(i, (i + 1) % 7) for i in range(7)] + [(0, 7)])
    plan = find_reducible_girth7(g, 4)
    assert plan.claim_tag is ClaimTag.G1_PENDANT
    assert plan.delete_vertex == 7
    assert ext_edges(g, plan) == [(0, 7)]
    assert formulas(plan) == [12]
    # 0-1, 0-6, 1-2 and 5-6: fewer than 12, which is why G1 fires
    assert check_plan_shape(g, plan) == [4]

    lonely = build_graph([], vertices=range(3))
    plan = find_reducible_girth7(lonely, 4)
    assert plan.claim_tag is ClaimTag.G1_PENDANT
    assert plan.delete_vertex == 0  # lowest id goes first
    assert plan.extension_order == ()


def test_g1_degree_sum_matches_the_conflict_set():
    # dense random cores, so triangles and 4-cycles abound, with pendants
    # hung on the vertices below the cap: where a triangle makes the
    # degree sum overcount, the conflict set must decide alike
    rng = random.Random(3)
    twin = (GIRTH7_MATCHERS[0]._replace(match=set_count_g1),
            *GIRTH7_MATCHERS[1:])
    overcounted = 0
    for trial in range(150):
        cap = (4, 5, 6)[trial % 3]
        n = rng.randint(4, 14)
        edges, deg = set(), [0] * n
        for _ in range(cap * n):
            u, w = sorted(rng.sample(range(n), 2))
            if (u, w) not in edges and deg[u] < cap and deg[w] < cap:
                edges.add((u, w))
                deg[u] += 1
                deg[w] += 1
        hung = [v for v in range(n) if deg[v] < cap and rng.random() < 0.7]
        edges |= {(v, n + i) for i, v in enumerate(hung)}
        g = build_graph(sorted(edges), vertices=range(n + len(hung)))
        for v in range(g.n):
            assert _g1(g, v, cap) == set_count_g1(g, v, cap)
            if g.degree(v) == 1:
                u = g.adj[v][0]
                near = sum(g.degree(w) for w in g.adj[u]) - 1
                exact = len(edges_within_distance_two(g, g.edge_id(u, v)))
                overcounted += exact < 3 * cap <= near
        assert (find_reducible_girth7(g, cap)
                == scan_first_plan(g, twin, cap))
    assert overcounted > 0


def test_g2_on_c7():
    g = build_graph([(i, (i + 1) % 7) for i in range(7)])
    plan = find_reducible_girth7(g, 4)
    assert plan.claim_tag is ClaimTag.G2_TWO_WEAK
    assert plan.delete_vertex == 0
    assert ext_edges(g, plan) == [(0, 1), (0, 6)]
    assert formulas(plan) == [10, 11]
    assert check_plan_shape(g, plan) == [3, 4]


def test_g3_all_weak_neighbors():
    g = build_graph([(0, i) for i in range(1, 5)]
                    + [(i, 5) for i in range(1, 5)])
    plan = find_reducible_girth7(g, 4)
    assert plan.claim_tag is ClaimTag.G3_ALL_WEAK
    assert plan.delete_vertex == 0
    assert ext_edges(g, plan) == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert formulas(plan) == [7, 8, 9, 10]
    check_plan_shape(g, plan)


def test_g4_four_then_two():
    g = build_graph([
        (0, 1), (0, 2), (0, 6), (0, 7), (1, 3), (2, 5), (3, 4),
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)])
    plan = find_reducible_girth7(g, 4)
    assert plan.claim_tag is ClaimTag.G4_FOUR_AND_TWO
    assert plan.delete_vertex == 1
    assert ext_edges(g, plan) == [(0, 1), (1, 3)]
    assert formulas(plan) == [11, 8]
    check_plan_shape(g, plan)


def test_g5_four_heavy_then_three():
    g = build_graph([
        (0, 1), (0, 2), (0, 3), (0, 9), (1, 4), (2, 5), (3, 6),
        (4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8), (7, 9), (8, 9)])
    plan = find_reducible_girth7(g, 4)
    assert plan.claim_tag is ClaimTag.G5_FOUR_AND_THREE
    assert plan.delete_vertex == 1
    assert ext_edges(g, plan) == [(1, 4), (0, 1)]
    assert formulas(plan) == [11, 11]
    check_plan_shape(g, plan)


def test_g6_three_with_two_twos():
    g = build_graph([
        (0, 1), (0, 2), (0, 8), (1, 3), (2, 7), (3, 4), (3, 5),
        (3, 6), (4, 7), (5, 7), (5, 8), (6, 7), (6, 8)])
    plan = find_reducible_girth7(g, 4)
    assert plan.claim_tag is ClaimTag.G6_THREE_WITH_TWO_TWOS
    assert plan.delete_vertex == 1
    assert [g.edges[e] for e in plan.erase_edges] == [(0, 2)]
    assert ext_edges(g, plan) == [(1, 3), (0, 1), (0, 2)]
    assert formulas(plan) == [11, 9, 10]
    check_plan_shape(g, plan)


def test_g7_one_strong_neighbor():
    g = build_graph([
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 9), (1, 5), (2, 6),
        (3, 7), (4, 8), (5, 10), (5, 11), (6, 10), (6, 11), (7, 10),
        (7, 11), (8, 10), (8, 11), (9, 10), (9, 11)])
    assert g.max_degree() == 5
    plan = find_reducible_girth7(g, 5)
    assert plan.claim_tag is ClaimTag.G7_ONE_STRONG_NEIGHBOR
    assert plan.delete_vertex == 1
    assert ext_edges(g, plan) == [(1, 5), (0, 1)]
    assert formulas(plan) == [14, 14]
    check_plan_shape(g, plan)


def test_g8_two_strong_neighbors():
    g = build_graph([
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
        (1, 10), (1, 11), (1, 12), (2, 3), (4, 7), (5, 8), (6, 9),
        (7, 10), (7, 13), (8, 11), (8, 13), (9, 12), (9, 13)])
    assert g.max_degree() == 5
    plan = find_reducible_girth7(g, 5)
    assert plan.claim_tag is ClaimTag.G8_TWO_STRONG_NEIGHBORS
    assert plan.delete_vertex == 4
    assert sorted(g.edges[e] for e in plan.erase_edges) == [(5, 8), (6, 9)]
    assert ext_edges(g, plan) == [(0, 4), (4, 7), (5, 8), (6, 9)]
    assert formulas(plan) == [14, 12, 12, 12]
    check_plan_shape(g, plan)


def test_girth7_detector_validates_arguments():
    # the cap rule of the solve, the detector and the audit
    g = build_graph([(0, 1)])
    with pytest.raises(ValueError, match="^delta_cap must be >= 4, got 3$"):
        find_reducible_girth7(g, 3)
    k6 = build_graph([(i, j) for i in range(6) for j in range(i + 1, 6)])
    with pytest.raises(ValueError, match="exceeds"):
        find_reducible_girth7(k6, 4)
    assert _girth7_cap(g, None) == 4 and _girth7_cap(k6, None) == 5


def test_girth7_detector_none_on_cubic_girth7():
    # cubic with girth 7 and no degree >= 5 vertex: no tag can fire;
    # such graphs are never planar, so this is outside the pipeline's
    # guarantee and the detector must answer None honestly
    g = build_graph(_mcgee())
    assert all(g.degree(v) == 3 for v in range(24))
    assert find_reducible_girth7(g, 4) is None


def _mcgee():
    edges = [(i, (i + 1) % 24) for i in range(24)]
    shift = {0: 12, 1: 7, 2: -7}
    for i in range(24):
        j = (i + shift[i % 3]) % 24
        if i < j:
            edges.append((i, j))
    return edges


def _detector_inputs(rng):
    """The empty graph, isolated vertices, random graphs of any girth and
    density (many with maximum degree above 4), sparse ones rich in
    degree-2 vertices, and disjoint unions of them with isolated vertices,
    relabeled at random so the components interleave by id."""
    yield build_graph([])
    yield build_graph([], vertices=range(5))
    pieces = []
    for trial in range(300):
        n = rng.randint(2, 14)
        if trial % 2:
            edges = random_graph(rng, n, rng.choice((0.1, 0.25, 0.4, 0.7)))
            vertices = range(n)
        else:
            edges, vertices = random_sparse_graph(rng, n, rng.randint(3, 6))
        pieces.append((edges, len(vertices)))
        yield build_graph(edges, vertices=vertices)
        if trial % 3 == 0:
            parts = rng.sample(pieces, min(3, len(pieces)))
            parts.append(([], rng.randint(1, 3)))
            edges, base = [], 0
            for part, size in parts:
                edges += [(base + u, base + v) for u, v in part]
                base += size
            label = rng.sample(range(3 * base), base)
            yield build_graph([(label[u], label[v]) for u, v in edges],
                              vertices=label)


def test_detectors_match_the_full_scan():
    # the engine's first plan against the full scan that takes every tag
    # in priority order and every vertex by ascending id
    fired = set()
    compared = wide = 0
    for g in _detector_inputs(random.Random(4)):
        wide += g.max_degree() > 4
        plan = find_reducible_mad(g)
        assert plan == scan_first_plan(g, MAD_MATCHERS, g.max_degree())
        fired.add(plan and plan.claim_tag.value)
        for cap in (4, 5, 6):
            if g.max_degree() > cap:
                continue
            plan = find_reducible_girth7(g, cap)
            assert plan == scan_first_plan(g, GIRTH7_MATCHERS, cap)
            fired.add(plan and plan.claim_tag.value)
            compared += 1
    assert compared > 300 and wide > 100
    assert {None, "M1", "M2", "M3", "G1", "G2", "G3", "G4", "G7"} <= fired


def test_plans_on_generated_instances_have_valid_shape():
    for seed in range(4):
        g = generate(GenSpec("sparse-mad3", 24, delta=4, seed=seed)).graph
        while g.n > 0:
            plan = find_reducible_mad(g)
            assert plan is not None
            assert all(b <= 3 * max(g.max_degree(), 1)
                       for b in check_plan_shape(g, plan))
            g = delete_vertex(g, plan.delete_vertex)
    for seed in range(4):
        g = generate(GenSpec("planar-girth7", 24, delta=4, seed=seed)).graph
        while g.n > 0:
            plan = find_reducible_girth7(g, 4)
            assert plan is not None
            assert all(b < 12 for b in check_plan_shape(g, plan))
            g = delete_vertex(g, plan.delete_vertex)


def _farthest_changes(g, matchers, d, deleted):
    """Per tag, the farthest distance from a deleted vertex at which
    deleting it changed whether the tag's matcher fires."""
    out = {}
    everything = range(g.n)
    for x in deleted:
        state = PeelState(g, everything)
        dist = {v: r for r, ring in enumerate(state.ball(x, g.n))
                for v in ring}
        before = [{v for v in everything
                   if v != x and m.match(state, v, d) is not None}
                  for m in matchers]
        state.delete(x)
        for m, fired in zip(matchers, before):
            now = {v for v in everything
                   if v != x and m.match(state, v, d) is not None}
            for v in fired ^ now:
                out[m.tag] = max(out.get(m.tag, 0), dist[v])
    return out


# (edges, degree the bounds use, the deletion that changes the tag's match
# at vertex 0 from the greatest distance) for the tags random graphs
# seldom take to their radius
FAR_CHANGES = [
    # M5 at 0 is blocked while every far endpoint 5, 6, 7 is a 4-vertex
    # with one degree-2 neighbor; deleting 22 makes 10 a 2-vertex
    ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7),
      (5, 8), (5, 9), (5, 10), (6, 11), (6, 12), (6, 13),
      (7, 14), (7, 15), (7, 16), (10, 22), (10, 23)]
     + [(f, h) for f in (8, 9, 11, 12, 13, 14, 15, 16) for h in (20, 21)],
     MAD_MATCHERS, 4, 22),
    # G1 at 0: 12 edges near the pendant edge 01 until 5 goes
    ([(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (3, 8),
      (3, 9), (3, 10), (4, 11), (4, 12), (4, 13)], GIRTH7_MATCHERS, 4, 5),
    # G7 at 0: every far endpoint has degree 4 until 12 goes
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 10), (1, 11),
      (2, 6), (3, 7), (4, 8), (5, 9), (6, 12), (6, 13), (6, 14)]
     + [(w, f) for w in (7, 8, 9) for f in (15, 16, 17)],
     GIRTH7_MATCHERS, 5, 12),
    # G8 at 0 (the witness above plus 10-30): far endpoint 7 has one
    # degree-2 neighbor until 30 goes
    ([(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
      (1, 10), (1, 11), (1, 12), (2, 3), (4, 7), (5, 8), (6, 9),
      (7, 10), (7, 13), (8, 11), (8, 13), (9, 12), (9, 13), (10, 30)],
     GIRTH7_MATCHERS, 5, 30),
]


def test_matcher_radii_bound_what_a_deletion_changes():
    # a deletion changes no match beyond the matcher's radius, and every
    # radius is reached, so none is larger than its reads make it
    reached = {}

    def note(changes):
        for tag, r in changes.items():
            reached[tag] = max(reached.get(tag, 0), r)
    for edges, matchers, d, x in FAR_CHANGES:
        g = build_graph(edges)
        note(_farthest_changes(g, matchers, d, [g.vertex_of_label(x)]))
    rng = random.Random(1)
    for i in range(40):
        cap = (4, 5, 6)[i % 3]
        edges, vertices = random_sparse_graph(rng, rng.randint(5, 14), cap)
        g = build_graph(edges, vertices=vertices)
        note(_farthest_changes(
            g, MAD_MATCHERS if cap == 4 else GIRTH7_MATCHERS, cap,
            range(g.n)))
    radius = {m.tag: m.radius for m in MAD_MATCHERS + GIRTH7_MATCHERS}
    assert reached == radius


def test_matcher_windows_are_sound_and_tight():
    # on every prefix of a random deletion order, a tag fires only where
    # the center's own degree lies in its window, and each finite end of
    # each window is reached by some firing, so none is wider than needed
    degrees = {}
    order_rng = random.Random(2)

    def walk(g, matchers, d, first=()):
        rest = [v for v in range(g.n) if v not in first]
        order_rng.shuffle(rest)
        state = PeelState(g, range(g.n))
        for x in [*first, *rest]:
            for v in state.adj:
                for m in matchers:
                    if m.match(state, v, d) is not None:
                        degrees.setdefault(m.tag, set()).add(state.degree(v))
            state.delete(x)
    # the far deletion first: it is what lets M5, G7 and G8 fire there
    for edges, matchers, d, x in FAR_CHANGES:
        g = build_graph(edges)
        walk(g, matchers, d, [g.vertex_of_label(x)])
    rng = random.Random(1)
    for i in range(40):
        cap = (4, 5, 6)[i % 3]
        edges, vertices = random_sparse_graph(rng, rng.randint(5, 14), cap)
        g = build_graph(edges, vertices=vertices)
        walk(g, MAD_MATCHERS if cap == 4 else GIRTH7_MATCHERS, cap)
    for m in MAD_MATCHERS + GIRTH7_MATCHERS:
        lo, hi = m.window
        assert all(lo <= k <= hi for k in degrees[m.tag]), m.tag
        ends = {lo} if hi == INFINITY else {lo, hi}
        assert ends <= degrees[m.tag], m.tag
