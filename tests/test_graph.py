from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge import (GenSpec, Graph, GraphError, build_graph, count_twos,
                        generate, girth)
from strongedge.graph import PeelState

from tests.helpers import bfs_girth, delete_vertex, random_graph, relabel


def edge_lists(max_n=10):
    return st.builds(
        lambda n, seed: (n, random_graph(random.Random(seed), n, 0.35)),
        st.integers(2, max_n), st.integers(0, 10_000))


def test_build_basic():
    g = build_graph([(0, 1), (1, 2), (2, 0)])
    assert (g.n, g.m) == (3, 3)
    assert g.adj[0] == (1, 2)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.edge_id(2, 1) == 2
    assert g.edges[0] == (0, 1)
    assert g.max_degree() == 2


def test_labels_survive_sparse_ids():
    g = build_graph([(10, 30), (30, 20)])
    assert g.labels == (10, 20, 30)
    assert g.vertex_of_label(30) == 2
    assert g.label_pair(g.edge_id(g.vertex_of_label(10),
                                  g.vertex_of_label(30))) == (10, 30)


def test_explicit_vertices_allow_isolated():
    g = build_graph([(0, 1)], vertices=range(4))
    assert g.n == 4
    assert g.degree(3) == 0
    assert len(g.components()) == 3


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="3"):
        build_graph([(3, 3)])


def test_duplicate_edges_collapse():
    g = build_graph([(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_label_pairs_come_sorted():
    # ids follow label order, so label_pair needs no comparison; labels
    # here are negative, sparse and handed over in shuffled pair order
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(2, 12)
        labels = rng.sample(range(-50, 50), n)
        edges = [(labels[u], labels[v]) if rng.random() < 0.5
                 else (labels[v], labels[u])
                 for u, v in random_graph(rng, n, 0.5)]
        g = build_graph(edges, vertices=labels)
        for e, (u, v) in enumerate(g.edges):
            assert g.label_pair(e) == tuple(sorted((g.labels[u],
                                                    g.labels[v])))


def test_missing_edge_and_label_raise():
    g = build_graph([(0, 1)])
    with pytest.raises(GraphError):
        g.edge_id(0, 0)
    # a negative id must not wrap around to vertex n-1
    with pytest.raises(GraphError):
        g.edge_id(-1, 0)
    with pytest.raises(GraphError):
        g.edge_id(0, g.n)
    with pytest.raises(GraphError):
        g.vertex_of_label(9)


def test_delete_vertex_keeps_labels():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    h = delete_vertex(g, 1)
    assert h.labels == (0, 2, 3)
    assert h.m == 2
    # deleting from the subgraph still refers to original names
    assert h.label_pair(0) == (0, 3)


def test_components_partition():
    g = build_graph([(0, 1), (2, 3), (3, 4)], vertices=range(6))
    comps = g.components()
    assert sorted(v for c in comps for v in c) == list(range(6))
    assert {len(c) for c in comps} == {1, 2, 3}


def test_induced_subgraph():
    g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    h = g.induced([0, 1, 2])
    assert (h.n, h.m) == (3, 3)


def test_degree_class_counts():
    # hub with one pendant, one 2-path, and two degree-3 neighbors
    g = build_graph([(0, 1), (0, 2), (2, 9), (0, 3), (0, 4),
                     (3, 5), (3, 6), (4, 7), (4, 8)])
    assert (g.degree(0), count_twos(g, 0)) == (4, 1)


def test_girth_known_values():
    assert girth(build_graph([(0, 1), (1, 2)])) == float("inf")
    assert girth(build_graph([(i, (i + 1) % 5) for i in range(5)])) == 5
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert girth(k4) == 3
    petersen = build_graph(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)])
    assert girth(petersen) == 5


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_degree_sum_and_girth_match_reference(case):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
    assert girth(g) == bfs_girth(edges, n)


@settings(max_examples=60, deadline=None)
@given(edge_lists(8), st.integers(0, 7))
def test_delete_vertex_matches_induced(case, which):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    v = which % g.n
    h = delete_vertex(g, v)
    keep = [w for w in range(g.n) if w != v]
    assert h.labels == tuple(g.labels[w] for w in keep)
    assert h.m == sum(1 for u, w in g.edges if v not in (u, w))


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_bounded_girth_matches_reference(case):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    exact = bfs_girth(edges, n)
    assert girth(g, limit=7) == (exact if exact < 7 else float("inf"))
    assert girth(g, limit=4) == (exact if exact < 4 else float("inf"))


def test_bounded_girth_on_a_long_cycle():
    # a depth-3 search per vertex; the unbounded one is quadratic here
    cycle = build_graph([(i, (i + 1) % 20_000) for i in range(20_000)])
    start = time.process_time()
    assert girth(cycle, limit=7) == float("inf")
    assert time.process_time() - start < 1.0
    assert girth(build_graph([(i, (i + 1) % 6) for i in range(6)]),
                 limit=7) == 6


@st.composite
def cycles_with_tails(draw):
    """Short cycles joined by paths, with pendant trees hung on them: a
    2-core to keep and at least one vertex to strip."""
    edges: list[tuple[int, int]] = []
    n = 0

    def path_from(u, length):
        nonlocal n
        for _ in range(length):
            edges.append((u, n))
            u, n = n, n + 1
        return u

    for k in range(draw(st.integers(0, 4))):
        length = draw(st.integers(3, 8))
        first = n
        n += length
        edges += [(first + i, first + (i + 1) % length)
                  for i in range(length)]
        if k:  # join to an earlier vertex by a path of 1-3 edges
            end = path_from(draw(st.integers(0, first - 1)),
                            draw(st.integers(0, 2)))
            edges.append((end, first + draw(st.integers(0, length - 1))))
    for _ in range(draw(st.integers(0, 2))):  # extra paths close new cycles
        if n >= 2:
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            edges.append((path_from(u, draw(st.integers(1, 3))), v))
    for _ in range(draw(st.integers(1, 12))):  # pendant trees
        if n:
            edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return n, edges


@settings(max_examples=200, deadline=None)
@given(cycles_with_tails())
def test_girth_on_the_core_matches_reference(case):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    assert min(g.degree(v) for v in range(g.n)) < 2
    exact = bfs_girth(edges, n)
    for limit in (4, 7, float("inf")):
        assert girth(g, limit=limit) == (exact if exact < limit
                                         else float("inf"))


GIRTH_LIMITS = (3, 4, 5, 6, 7, 8, float("inf"))


def _solve_inputs():
    """The shapes ``solve_girth7`` checks: planar girth-7 graphs under caps
    4-6, a tree and a long cycle, each also with one chord that closes a
    cycle of length 3 to 6 through vertex 0."""
    graphs = [generate(GenSpec("planar-girth7", n, delta=cap, seed=seed)).graph
              for seed in (1, 2) for n in (100, 200, 400) for cap in (4, 5, 6)]
    graphs += [generate(GenSpec("tree", 400, seed=1)).graph,
               build_graph([(i, (i + 1) % 400) for i in range(400)])]
    for i, g in enumerate(list(graphs)):
        state = PeelState(g, range(g.n))
        rings = state.ball(0, 5)
        far = next(ring[0] for ring in rings[2 + i % 4:] if ring)
        edges = [(g.labels[u], g.labels[v]) for u, v in g.edges]
        graphs.append(build_graph(edges + [(g.labels[0], g.labels[far])],
                                  vertices=g.labels))
    return graphs


def test_girth_matches_reference_on_the_solve_inputs():
    for g in _solve_inputs():
        exact = bfs_girth(list(g.edges), g.n)
        for limit in GIRTH_LIMITS:
            assert girth(g, limit=limit) == (exact if exact < limit
                                             else float("inf"))


def test_girth_reads_no_stale_visit():
    # the 4-cycle on 40..43 (dense ids 8..11) hangs off the 8-cycle at 0;
    # the search from 0 reaches all of it and sees only a 6-cycle estimate,
    # so a later search from 8 must not take those visits for its own
    g = build_graph([(i, (i + 1) % 8) for i in range(8)] + [(0, 40)]
                    + [(40 + i, 40 + (i + 1) % 4) for i in range(4)])
    for limit in GIRTH_LIMITS:
        assert girth(g, limit=limit) == (4 if limit > 4 else float("inf"))


def test_unbounded_girth_of_a_large_tree_is_linear():
    # the whole tree strips away before any search; a search from every
    # vertex took minutes on it.  CPU time, so a busy host does not count
    tree = generate(GenSpec("tree", 20_000)).graph
    start = time.process_time()
    assert girth(tree) == float("inf")
    assert time.process_time() - start < 2.0


def test_girth_does_not_depend_on_vertex_order_on_the_solve_inputs():
    # each search drops its start vertex, so the smallest vertex of a
    # shortest cycle is the one whose search must see it whole
    rnd = random.Random(25)
    for g in _solve_inputs():
        for _ in range(2):
            h = relabel(g.edges, rnd, range(g.n))
            exact = bfs_girth(list(h.edges), h.n)
            for limit in GIRTH_LIMITS:
                assert girth(h, limit=limit) == (exact if exact < limit
                                                 else float("inf"))


@settings(max_examples=200, deadline=None)
@given(cycles_with_tails(), st.randoms(use_true_random=False))
def test_girth_does_not_depend_on_vertex_order_on_the_core(case, rnd):
    n, edges = case
    h = relabel(edges, rnd, range(n))
    exact = bfs_girth(list(h.edges), h.n)
    for limit in GIRTH_LIMITS:
        assert girth(h, limit=limit) == (exact if exact < limit
                                         else float("inf"))


def test_unbounded_girth_of_a_cycle_and_a_planar_graph_is_linear():
    # the first search of the cycle sees all of it and the drop strips the
    # rest; a search from every vertex took about 40 minutes on it.  CPU
    # time, so a busy host does not count
    cycle = build_graph([(i, (i + 1) % 10 ** 5) for i in range(10 ** 5)])
    planar = generate(GenSpec("planar-girth7", 20_000, seed=1)).graph
    start = time.process_time()
    assert girth(cycle) == 10 ** 5
    assert girth(planar) == 7
    assert time.process_time() - start < 2.0


def _peel_view(g, alive):
    """What a peel state must hold once only ``alive`` is left."""
    adj = {v: [w for w in g.adj[v] if w in alive] for v in alive}
    return adj, max((len(a) for a in adj.values()), default=0)


@settings(max_examples=100, deadline=None)
@given(edge_lists(12), st.randoms(use_true_random=False))
def test_peel_state_deletes(case, rnd):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    comp = max(g.components(), key=len)
    state = PeelState(g, comp)
    order = rnd.sample(comp, len(comp))
    for k, v in enumerate(order):
        state.delete(v)
        assert (state.adj, state.max_degree()) == \
            _peel_view(g, set(order[k + 1:]))
