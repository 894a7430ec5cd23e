from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge import (BudgetExceededError, SearchBudget, build_graph,
                        check_proposition_small_delta, conflict_rows,
                        generate, GenSpec, list_strong_colorable,
                        strong_chromatic_index_exact, uniform_lists,
                        verify_strong)

from strongedge.oracle import _search
from tests.helpers import (dp_chromatic, naive_strong_ok, random_graph,
                           reference_conflict_graph, reference_search)


def test_cycle_values():
    c5 = build_graph([(i, (i + 1) % 5) for i in range(5)])
    r5 = strong_chromatic_index_exact(c5)
    assert r5.chi_s == 5
    c7 = build_graph([(i, (i + 1) % 7) for i in range(7)])
    assert strong_chromatic_index_exact(c7).chi_s == 4
    c6 = build_graph([(i, (i + 1) % 6) for i in range(6)])
    assert strong_chromatic_index_exact(c6).chi_s == 3


def test_witness_is_checked_and_optimal():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    r = strong_chromatic_index_exact(g)
    assert not verify_strong(g, r.witness)
    assert len(set(r.witness.values())) == r.chi_s
    assert r.lower_bound_clique <= r.chi_s


def test_blowup_needs_quadratic_colors():
    g = generate(GenSpec("c5-blowup", 0, delta=4)).graph
    r = strong_chromatic_index_exact(g)
    assert r.chi_s == 20  # (5/4) * 4^2, every edge pair in conflict
    assert r.lower_bound_clique == 20  # so no search beyond the clique


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10_000))
def test_matches_independent_chromatic_dp(n, seed):
    edges = random_graph(random.Random(seed), n, 0.45)
    if not edges:
        return
    g = build_graph(edges, vertices=range(n))
    masks = [sum(1 << f for f in row) for row in conflict_rows(g)]
    assert strong_chromatic_index_exact(g).chi_s == dp_chromatic(g.m, masks)
    assert naive_strong_ok(list(g.edges),
                           strong_chromatic_index_exact(g).witness)


def test_small_graph_answers_are_pinned():
    # chi_s, witness, clique bound and node counts of the exact search, then
    # the list search on chi_s - 1 uniform colors and on random 7-of-12
    # lists; the hash was taken before the two backtracking searches (one
    # with color-symmetry breaking, one over per-edge lists) became one.
    # The chi_s - 1 entry is the slow reference search without symmetry
    # breaking; the list search must answer it the same in no more nodes,
    # and its own node counts have a second hash
    digest, pruned = hashlib.sha256(), hashlib.sha256()
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, min(rng.randint(2, 7), len(pairs)))
        g = build_graph(edges, vertices=range(n))
        exact, fewer, listed = SearchBudget(), SearchBudget(), SearchBudget()
        r = strong_chromatic_index_exact(g, exact)
        uniform = uniform_lists(g, r.chi_s - 1)
        below = reference_search(
            reference_conflict_graph(g),
            [tuple(sorted(uniform[e])) for e in range(g.m)], fewer, False)
        twins = SearchBudget()
        got = list_strong_colorable(g, uniform, twins)
        assert (got and list(got.items())) == (below and list(below.items()))
        assert twins.nodes_used <= fewer.nodes_used
        pruned.update(repr(twins.nodes_used).encode())
        lists = {e: frozenset(rng.sample(range(12), 7)) for e in range(g.m)}
        found = list_strong_colorable(g, lists, listed)
        digest.update(repr((
            r.chi_s, sorted(r.witness.items()), r.lower_bound_clique,
            exact.nodes_used, below and sorted(below.items()),
            fewer.nodes_used, found and sorted(found.items()),
            listed.nodes_used)).encode())
    assert digest.hexdigest() == (
        "c3eb928e0a444e93c2c7cadabfcdf35e26e4409352ee1ea9df6b1fe0ea0c324a")
    assert pruned.hexdigest() == (
        "bdf4a9e55482c8c05f3ce1ce3779697b9db68ca1df12af0173ac97ca4d6215cb")


def test_exact_mix_answers_are_pinned():
    # the benchmark's exact mix (trees n=8 at degree 4 and 3, sparse-mad3
    # n=5) over 60 seeds: chi_s, witness, clique bound and node count of the
    # exact search, the verdict and node count on chi_s - 1 uniform colors,
    # then the list search on random lists of 2 to 4 colors out of -2..3;
    # the hash was taken before the searches read conflict rows in place of
    # a conflict Graph
    digest = hashlib.sha256()
    refuted = 0
    for seed in range(60):
        rng = random.Random(seed)
        for family, n, delta in (("tree", 8, 4), ("sparse-mad3", 5, 4),
                                 ("tree", 8, 3)):
            g = generate(GenSpec(family, n, delta=delta, seed=seed)).graph
            exact, fewer, listed = (SearchBudget(), SearchBudget(),
                                    SearchBudget())
            r = strong_chromatic_index_exact(g, exact)
            below = list_strong_colorable(g, uniform_lists(g, r.chi_s - 1),
                                          fewer)
            lists = {e: frozenset(rng.sample(range(-2, 4), rng.randint(2, 4)))
                     for e in range(g.m)}
            found = list_strong_colorable(g, lists, listed)
            refuted += found is None
            digest.update(repr((
                r.chi_s, sorted(r.witness.items()), r.lower_bound_clique,
                exact.nodes_used, below, fewer.nodes_used,
                found and sorted(found.items()),
                listed.nodes_used)).encode())
    assert refuted == 64  # both outcomes of the non-uniform search occur
    assert digest.hexdigest() == (
        "130ffb94ab90a2d7ce80358a3d3cf7520e7732158eb617d8fb1627da76c63661")


def _outcome(search, h, lists, *fresh, max_nodes=2_000_000):
    """What a search returns (items in order) or that it ran out of nodes,
    with the nodes it used; ``h`` is what ``search`` takes, neighbor
    tuples for ``_search`` and a Graph for ``reference_search``, which
    also takes its ``fresh`` flag."""
    budget = SearchBudget(max_nodes=max_nodes)
    try:
        found = search(h, lists, budget, *fresh)
    except BudgetExceededError:
        return "budget", budget.nodes_used
    return found and list(found.items()), budget.nodes_used


def _listed(g, lists, max_nodes=2_000_000):
    """``_outcome`` of ``list_strong_colorable`` on ``g`` itself."""
    budget = SearchBudget(max_nodes=max_nodes)
    try:
        found = list_strong_colorable(g, lists, budget)
    except BudgetExceededError:
        return "budget", budget.nodes_used
    return found and list(found.items()), budget.nodes_used


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.integers(0, 10**6))
def test_search_matches_reference(fresh, seed):
    # random conflict graphs colored from ``chi - 1`` or ``chi`` colors.
    # With ``fresh`` every list is 0..width-1, where the reference's fresh
    # rule and the search's twin pruning build the same tree; otherwise
    # the colors sit around 0 and some lists are one color short.  The
    # same answer with items in the same order and the same node count,
    # also when both run out; lists that happen to be all the same are
    # pruned, so there the answer is the same in no more nodes
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    h = build_graph(random_graph(rng, n, rng.uniform(0.2, 0.9)),
                    vertices=range(n))
    chi = dp_chromatic(n, [sum(1 << w for w in h.adj[v]) for v in range(n)])
    width = max(1, chi - rng.randint(0, 1))
    if fresh:
        lists = [tuple(range(width))] * n
    else:
        short = rng.randint(0, 1)  # drop one color from some lists, or none
        lists = [tuple(sorted(rng.sample(range(-1, width - 1),
                                       width - short * rng.randint(0, 1))))
                 for _ in range(n)]
    cap = rng.choice((rng.randint(1, 20), 5000))
    got = _outcome(_search, h.adj, lists, max_nodes=cap)
    ref = _outcome(reference_search, h, lists, fresh, max_nodes=cap)
    if fresh or len(set(lists)) > 1:
        assert got == ref
    elif ref[0] != "budget":
        assert got[0] == ref[0] and got[1] <= ref[1]


_PALETTES = (
    lambda rng, k: range(k),
    lambda rng, k: rng.sample(range(-40, 0), k),
    lambda rng, k: rng.sample((-(10**18), -1, 0, 10**18, 2**200, -(2**90),
                               7, 10**9 + 7, 2**64, -(10**12)), k),
    lambda rng, k: [rng.choice((-(10**18), 0, 2**200))],
    lambda rng, k: [],
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.integers(0, len(_PALETTES) - 1),
       st.integers(0, 10**6))
def test_twin_pruning_matches_reference(n, kind, seed):
    # one list on every edge (small, negative, huge, single or empty colors,
    # also with no edges at all): the answer of the search without twin
    # pruning, items in the same order, in no more nodes; a cap the
    # reference answers within is one the list search answers within
    rng = random.Random(seed)
    g = build_graph(random_graph(rng, n, rng.uniform(0.2, 0.6)),
                    vertices=range(n))
    chi = strong_chromatic_index_exact(g).chi_s
    k = min(8, max(1, chi - 1 + rng.randint(0, 2)))
    _check_twins(g, _PALETTES[kind](rng, k), rng)


def _check_twins(g, palette, rng):
    """Compare the list search on ``palette`` for every edge with the
    reference, also under a random cap; returns the reference's answer."""
    lists = {e: frozenset(palette) for e in range(g.m)}
    rows = [tuple(sorted(set(palette)))] * g.m
    answer, nodes = _outcome(reference_search, reference_conflict_graph(g),
                             rows, False, max_nodes=20_000)
    if answer == "budget":
        return
    same, own = _listed(g, lists)
    assert same == answer and own <= nodes
    cap = rng.randint(1, nodes)
    assert _listed(g, lists, cap) == (
        (answer, own) if own <= cap else ("budget", cap + 1))
    return answer


def test_twin_pruning_tries_an_unused_color_after_used_ones():
    # a hexagon with pendant edges at two vertices two apart, 4 colors: in
    # the search's order some edge must take an unused color while a used
    # one is still open to it, so dropping the unused colors before trying
    # one of them would refute a colorable graph
    g = build_graph([(0, 5), (0, 6), (1, 2), (1, 4), (1, 6), (3, 7), (4, 7),
                     (5, 7)])
    assert _check_twins(g, range(4), random.Random(0)) is not None


def test_list_search_keeps_color_values():
    # colors far outside any bitmask width: searched by their ranks and
    # returned as given, with the reference's coloring and node count
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    huge = 2 ** 200
    lists = {0: frozenset({huge}), 1: frozenset({-7, huge}),
             2: frozenset({-7, 0, 10**18}), 3: frozenset({0, 10**18, huge}),
             4: frozenset({-(10**18), 0, 10**18})}
    h = reference_conflict_graph(g)
    budget = SearchBudget()
    got = list_strong_colorable(g, lists, budget)
    assert got is not None and not verify_strong(g, got)
    assert all(got[e] in lists[e] for e in range(g.m))
    assert {huge, -7, 10**18}.issubset(got.values())
    assert (list(got.items()), budget.nodes_used) == _outcome(
        reference_search, h, [tuple(sorted(lists[e])) for e in range(g.m)],
        False)
    star = [g.edge_id(1, w) for w in (0, 2, 5)]  # pairwise in conflict
    lists.update((e, frozenset({-7, huge})) for e in star)
    budget = SearchBudget()
    assert list_strong_colorable(g, lists, budget) is None
    assert (None, budget.nodes_used) == _outcome(
        reference_search, h, [tuple(sorted(lists[e])) for e in range(g.m)],
        False)


@pytest.mark.parametrize("k_colors", [4, 5])
def test_budget_boundary_matches_reference(k_colors):
    # C5 needs 5 colors: 4 is a full refutation, 5 a found coloring.  With
    # exactly the nodes a search needs it answers; one fewer raises, having
    # counted the node it was refused, in the search, the reference with
    # its fresh rule and the list search on the same uniform lists
    g = build_graph([(i, (i + 1) % 5) for i in range(5)])
    lists = [tuple(range(k_colors))] * g.m
    answer, k = _outcome(_search, conflict_rows(g), lists)
    assert (answer is None) == (k_colors == 4)
    for search, graph, *fresh in ((_search, conflict_rows(g)),
                                  (reference_search,
                                   reference_conflict_graph(g), True)):
        assert _outcome(search, graph, lists, *fresh,
                        max_nodes=k) == (answer, k)
        assert _outcome(search, graph, lists, *fresh,
                        max_nodes=k - 1) == ("budget", k)
    uniform = uniform_lists(g, k_colors)
    assert _listed(g, uniform, k) == (answer, k)
    assert _listed(g, uniform, k - 1) == ("budget", k)


def test_edge_cap_refusal_mentions_knob():
    g = generate(GenSpec("sparse-mad3", 30, seed=1)).graph
    assert g.m > 28
    with pytest.raises(ValueError, match="edge_cap"):
        strong_chromatic_index_exact(g)


def test_list_search_is_not_bounded_by_the_recursion_limit():
    # one search level per edge: 1200 levels would overflow a recursive
    # search at Python's default limit of 1000 frames
    g = build_graph([(i, i + 1) for i in range(1200)])
    coloring = list_strong_colorable(g, uniform_lists(g, 3))
    assert coloring is not None and not verify_strong(g, coloring)


def test_node_budget_raises_instead_of_lying():
    g = generate(GenSpec("c5-blowup", 0, delta=4)).graph
    tiny = SearchBudget(max_nodes=3, edge_cap=28)
    with pytest.raises(BudgetExceededError):
        # force actual search below the clique bound answer
        list_strong_colorable(g, uniform_lists(g, 19), tiny)


def test_list_solver_roundtrip():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    got = list_strong_colorable(g, uniform_lists(g, 3))
    assert got is not None and not verify_strong(g, got)
    # two conflicting edges sharing a singleton list is unsolvable
    lists = {0: frozenset({7}), 1: frozenset({7}), 2: frozenset({1, 2})}
    assert list_strong_colorable(g, lists) is None


def test_list_search_counts_a_repeated_color_once():
    # a repeated color counts once: counted per occurrence it carries into
    # the next rank's bit, so [5, 5] would read as {7} and refute this path,
    # and (5, 5, 9) would name a rank past the palette
    g = build_graph([(0, 1), (1, 2)])
    assert list_strong_colorable(g, {0: [5, 5], 1: [7]}) == {0: 5, 1: 7}
    assert list_strong_colorable(g, {0: (5, 5, 9), 1: (9,)}) == {0: 5, 1: 9}


def test_list_solver_requires_full_lists():
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="1"):
        list_strong_colorable(g, {0: frozenset({1})})


def test_missing_list_message_stays_short():
    # naming every missing id took 10,918 characters on this path
    path = build_graph([(i, i + 1) for i in range(2000)])
    with pytest.raises(ValueError) as info:
        list_strong_colorable(path, {})
    text = str(info.value)
    assert len(text) < 1000
    assert text.endswith("and 1990 more")


def test_proposition_small_delta():
    for n in range(2, 10):
        path = build_graph([(i, i + 1) for i in range(n - 1)])
        r = check_proposition_small_delta(path)
        assert r.ok and r.chi_s <= r.bound
    for n in range(3, 10):
        cyc = build_graph([(i, (i + 1) % n) for i in range(n)])
        r = check_proposition_small_delta(cyc)
        assert r.ok
        assert (r.chi_s == 5) == (n == 5)
    single = build_graph([(0, 1)])
    r = check_proposition_small_delta(single)
    assert r.ok and r.bound == 1
    with pytest.raises(ValueError):
        check_proposition_small_delta(
            build_graph([(0, 1), (0, 2), (0, 3)]))
