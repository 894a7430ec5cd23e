from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge import (FAMILIES, build_graph, conflict_rows,
                        edges_within_distance_two, generate, GenSpec)
from strongedge.graph import PeelState

from tests.helpers import (naive_conflicts, random_graph,
                           reference_conflict_graph)


cases = st.builds(
    lambda n, seed: (n, random_graph(random.Random(seed), n, 0.4)),
    st.integers(2, 9), st.integers(0, 10_000))


@settings(max_examples=150, deadline=None)
@given(cases)
def test_conflicts_match_definition(case):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    for e in range(g.m):
        mine = edges_within_distance_two(g, e)
        theirs = naive_conflicts(edges, _reindex(edges, g, e))
        assert mine == {_to_gid(edges, g, f) for f in theirs}


def _reindex(edges, g, e):
    u, v = g.edges[e]
    for i, (x, y) in enumerate(edges):
        if {x, y} == {u, v}:
            return i
    raise AssertionError


def _to_gid(edges, g, f):
    x, y = edges[f]
    return g.edge_id(x, y)


def _check_alive_conflicts(g, state):
    """Every alive edge's conflicts equal the definition's over the alive
    edges alone, and so equal its conflicts in ``g`` that are alive."""
    alive = [f for f, (x, y) in enumerate(g.edges)
             if x in state.adj and y in state.adj]
    pairs = [g.edges[f] for f in alive]
    for i, e in enumerate(alive):
        mine = edges_within_distance_two(state, e)
        assert mine == {alive[j] for j in naive_conflicts(pairs, i)}
        assert mine == edges_within_distance_two(g, e).intersection(alive)


@settings(max_examples=100, deadline=None)
@given(cases, st.randoms(use_true_random=False))
def test_peel_state_conflicts_match_definition(case, rnd):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    state = PeelState(g, range(g.n))
    order = rnd.sample(range(g.n), rnd.randint(0, g.n))
    _check_alive_conflicts(g, state)
    for v in order:
        state.delete(v)
        _check_alive_conflicts(g, state)


@settings(max_examples=80, deadline=None)
@given(cases)
def test_conflict_symmetry_and_index(case):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    for e in range(g.m):
        near = edges_within_distance_two(g, e)
        for f in near:
            assert e in edges_within_distance_two(g, f)
        assert e not in near


def test_c7_conflict_graph_is_4_regular():
    g = build_graph([(i, (i + 1) % 7) for i in range(7)])
    rows = conflict_rows(g)
    assert len(rows) == 7
    assert all(len(row) == 4 for row in rows)


def test_blowup_conflict_graph_is_complete():
    g = generate(GenSpec("c5-blowup", 0, delta=4)).graph
    rows = conflict_rows(g)
    assert len(rows) == 20
    assert all(row == tuple(f for f in range(20) if f != e)
               for e, row in enumerate(rows))


def _check_rows(g):
    """``conflict_rows`` equals the neighbor tuples of the conflict graph
    relabelled through build_graph, and each row equals the edge's sorted
    conflict set."""
    rows = conflict_rows(g)
    assert rows == reference_conflict_graph(g).adj
    assert rows == tuple(tuple(sorted(edges_within_distance_two(g, e)))
                         for e in range(g.m))
    assert conflict_rows(g) == rows


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.floats(0, 1), st.integers(0, 10**6))
def test_conflict_rows_match_reference(n, p, seed):
    _check_rows(build_graph(random_graph(random.Random(seed), n, p),
                            vertices=range(n)))


ROW_CASES = [(family, n, delta, seed)
             for family, n, deltas in (("cycle", 9, (4,)),
                                       ("tree", 12, (3, 4)),
                                       ("c5-blowup", 0, (2, 4, 6)),
                                       ("sparse-mad3", 10, (4,)),
                                       ("planar-girth7", 14, (4, 5)))
             for delta in deltas for seed in range(3)]


# a bowtie (0..4) and a C4 with a pendant edge (5..9), where the reach sets
# of an edge's two ends overlap most, an isolated vertex (10), and the path
# 13-11-12-14-15, where a row built in place in ``reach[11]`` would leak
# edge 14-15 into the row of 11-13
OVERLAPS = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
            (5, 6), (6, 7), (7, 8), (5, 8), (8, 9),
            (11, 12), (11, 13), (12, 14), (14, 15)]


def test_conflict_rows_match_reference_on_fixed_graphs():
    assert {case[0] for case in ROW_CASES} == set(FAMILIES)
    fixed = [build_graph([]), build_graph([], vertices=range(3)),
             build_graph(OVERLAPS, vertices=range(16))]
    fixed += [generate(GenSpec(family, n, delta=delta, seed=seed)).graph
              for family, n, delta, seed in ROW_CASES]
    for g in fixed:
        _check_rows(g)
