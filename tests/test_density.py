from __future__ import annotations

import copy
import hashlib
import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge import (GenSpec, GraphError, build_graph, density_exceeds,
                        generate, mad, mad_deficit_sum)
from strongedge import density
from strongedge.density import MadBelowThree

from tests.helpers import (ReferenceMadBelowThree, bisect_mad, mad_below_3,
                           random_graph, subset_mad)

generate_module = importlib.import_module("strongedge.generate")

cases = st.builds(
    lambda n, seed: (n, random_graph(random.Random(seed), n, 0.4)),
    st.integers(1, 8), st.integers(0, 10_000))


@settings(max_examples=100, deadline=None)
@given(cases)
def test_mad_matches_subset_enumeration(case):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    w = mad(g)
    assert w.density == subset_mad(edges, n)
    assert w.check(g)


@settings(max_examples=60, deadline=None)
@given(cases, st.fractions(min_value=0, max_value=4))
def test_exceeds_agrees_with_enumeration(case, threshold):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    w = density_exceeds(g, threshold)
    truth = subset_mad(edges, n) > threshold
    assert (w is not None) == truth
    if w is not None:
        assert w.density > threshold
        assert w.check(g)


def test_known_values():
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert mad(k4).density == 3
    petersen = build_graph(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)])
    assert mad(petersen).density == 3
    path = build_graph([(i, i + 1) for i in range(9)])
    assert mad(path).density == Fraction(18, 10)
    c7 = build_graph([(i, (i + 1) % 7) for i in range(7)])
    assert mad(c7).density == 2


def test_witness_is_the_dense_part():
    # a clique with a pendant: only the clique achieves the maximum
    # (a tree tail ties the whole graph at density 2, so use K4)
    g = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)]
                    + [(3, 4)])
    w = mad(g)
    assert w.density == 3
    assert w.vertices == frozenset({0, 1, 2, 3})


def test_edgeless_and_empty():
    g = build_graph([], vertices=range(3))
    w = mad(g)
    assert w.density == 0
    with pytest.raises(GraphError):
        mad(build_graph([], vertices=()))
    assert density_exceeds(g, Fraction(1, 2)) is None


def test_threshold_must_be_nonnegative():
    g = build_graph([(0, 1)])
    with pytest.raises(ValueError):
        density_exceeds(g, Fraction(-1))


def test_deficit_sum():
    c7 = build_graph([(i, (i + 1) % 7) for i in range(7)])
    assert mad_deficit_sum(c7) == 2 * 7 - 3 * 7 == -7
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert mad_deficit_sum(k4) == 0


def test_strictness_at_exact_threshold():
    # K4 has max density exactly 3: "exceeds 3" must be False but any
    # slightly smaller threshold must produce the K4 itself
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert density_exceeds(k4, Fraction(3)) is None
    w = density_exceeds(k4, Fraction(3) - Fraction(1, 16))
    assert w is not None and w.vertices == frozenset(range(4))


sparse_cases = st.builds(
    lambda n, p, seed: (n, random_graph(random.Random(seed), n, p)),
    st.integers(1, 9), st.sampled_from((0.2, 0.35, 0.5, 0.7)),
    st.integers(0, 10_000))


@settings(max_examples=150, deadline=None)
@given(sparse_cases)
def test_pebble_game_matches_flow_and_enumeration(case):
    n, edges = case
    g = build_graph(edges, vertices=range(n))
    below = mad_below_3(g)
    assert below == (subset_mad(edges, n) < 3)
    assert below == (density_exceeds(g, 3 - Fraction(1, n * n)) is None)


@settings(max_examples=60, deadline=None)
@given(sparse_cases, st.randoms(use_true_random=False))
def test_refused_edge_leaves_no_trace(case, rnd):
    # after a refusal the checker must answer every further edge exactly
    # as a fresh checker holding only the accepted edges does
    n, edges = case
    rnd.shuffle(edges)
    checker, accepted = MadBelowThree(n), []
    for u, v in edges:
        if checker.try_add(u, v):
            accepted.append((u, v))
            continue
        assert sum(map(len, checker.out)) == 2 * len(accepted)
        fresh = MadBelowThree(n)
        assert all(fresh.try_add(a, b) for a, b in accepted)
        have = {frozenset(e) for e in accepted}
        for x, y in combinations(range(n), 2):
            if frozenset((x, y)) not in have:
                assert copy.deepcopy(checker).try_add(x, y) == \
                    copy.deepcopy(fresh).try_add(x, y)


def test_pebble_game_on_large_inputs():
    n = 10 ** 5
    assert mad_below_3(build_graph([(i, i + 1) for i in range(n - 1)]))
    rng = random.Random(3)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    rng.shuffle(tree)
    assert mad_below_3(build_graph(tree, vertices=range(n)))
    # a 2 x k ladder has mad < 3 and stays below 3 with one rung closing
    # it into a band; the second closing edge makes a prism of density 3
    k = 10 ** 4
    ladder = ([(i, i + 1) for i in range(k - 1)]
              + [(k + i, k + i + 1) for i in range(k - 1)]
              + [(i, k + i) for i in range(k)])
    rng.shuffle(ladder)
    checker = MadBelowThree(2 * k)
    assert all(checker.try_add(u, v) for u, v in ladder)
    assert checker.try_add(0, k - 1)
    assert not checker.try_add(k, 2 * k - 1)


def random_streams(count, seed):
    """``count`` shuffled edge streams on at most 30 vertices, p 0.2-0.9."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 30)
        edges = random_graph(rng, n, rng.uniform(0.2, 0.9))
        rng.shuffle(edges)
        yield n, edges


def tight_class_violations(checker, accepted):
    """Learned classes of two or more vertices that do not span exactly
    ``3|C| - 1`` copies of the accepted pairs."""
    parent = checker.tight
    if parent is None:
        return []

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    roots = [root(x) for x in range(len(parent))]
    pairs = Counter(roots[u] for u, v in accepted if roots[u] == roots[v])
    return [r for r, k in Counter(roots).items()
            if k > 1 and 2 * pairs[r] != 3 * k - 1]


def test_pebble_game_matches_the_search_only_twin():
    for n, edges in random_streams(2000, 19):
        fast, slow = MadBelowThree(n), ReferenceMadBelowThree(n)
        for u, v in edges:
            assert fast.try_add(u, v) == slow.try_add(u, v)


def test_learned_classes_stay_tight():
    for n, edges in random_streams(1000, 20):
        checker, accepted = MadBelowThree(n), []
        for u, v in edges:
            if checker.try_add(u, v):
                accepted.append((u, v))
            assert not tight_class_violations(checker, accepted)


class CheckedGame:
    """The pebble game beside its search-only twin: every answer must
    agree, and every learned class must stay tight."""

    def __init__(self, n):
        self.fast = MadBelowThree(n)
        self.slow = ReferenceMadBelowThree(n)
        self.accepted = []

    def try_add(self, u, v):
        ok = self.fast.try_add(u, v)
        assert ok == self.slow.try_add(u, v)
        if ok:
            self.accepted.append((u, v))
        assert not tight_class_violations(self.fast, self.accepted)
        return ok


def test_pebble_game_matches_the_twin_on_generator_pairs(monkeypatch):
    monkeypatch.setattr(generate_module, "MadBelowThree", CheckedGame)
    for n, seed in ((60, 0), (60, 1), (120, 2), (200, 3), (300, 4)):
        generate(GenSpec("sparse-mad3", n, seed=seed))


def test_pair_inside_a_learned_class_is_refused_without_search(monkeypatch):
    # K4 less the edge 23, plus a vertex 4 on 0 and 1: 7 edges on 5
    # vertices, so 2G spans 14 = 3*5 - 1 copies and the set is tight
    checker = MadBelowThree(5)
    for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1)):
        assert checker.try_add(u, v)
    assert checker.tight is None
    assert not checker.try_add(2, 3)
    assert len({density._find(checker.tight, x) for x in range(5)}) == 1

    def no_search(*args):
        raise AssertionError("searched inside a learned class")

    monkeypatch.setattr(MadBelowThree, "_fetch", no_search)
    for u, v in ((2, 3), (2, 4), (3, 4), (0, 1)):
        assert not checker.try_add(u, v)


def test_generator_refusals_mostly_skip_the_search(monkeypatch):
    # refusals that searched and then learned a class, on sparse-mad3 at
    # n = 1000: 666 when every pair is searched, 110 with learned classes;
    # the generation makes 1956 searches in all
    n = 1000
    fetches = 0
    searched = 0
    try_add, fetch = MadBelowThree.try_add, MadBelowThree._fetch

    def counted_fetch(self, *args):
        nonlocal fetches
        fetches += 1
        return fetch(self, *args)

    def counted_try_add(self, u, v):
        nonlocal searched
        before = fetches
        ok = try_add(self, u, v)
        tight = self.tight
        if (not ok and fetches > before and tight is not None
                and density._find(tight, u) == density._find(tight, v)):
            searched += 1
        return ok

    monkeypatch.setattr(MadBelowThree, "try_add", counted_try_add)
    monkeypatch.setattr(MadBelowThree, "_fetch", counted_fetch)
    generate(GenSpec("sparse-mad3", n, seed=1))
    assert 0 < searched <= n // 8
    assert fetches <= 1956


def test_pebbles_orient_the_doubled_graph():
    # after every call, each accepted pair is two arcs between its ends,
    # nothing else is an arc, and no vertex covers more than 3 of them
    for n, edges in random_streams(500, 21):
        checker, doubled = MadBelowThree(n), Counter()
        for u, v in edges:
            if checker.try_add(u, v):
                doubled[frozenset((u, v))] += 2
            out = checker.out
            assert max(map(len, out)) <= 3
            assert Counter(frozenset((a, b)) for a in range(n)
                           for b in out[a]) == doubled


def test_mad_on_a_long_path():
    # labelled i -> 7i mod n, the path sends flow along augmenting paths
    # hundreds of arcs long, past the default recursion limit
    n = 1500
    g = build_graph([(7 * i % n, 7 * (i + 1) % n) for i in range(n - 1)])
    assert mad(g).density == Fraction(2 * (n - 1), n)


def scrambled_path(n):
    """The path of :func:`test_mad_on_a_long_path`."""
    return build_graph([(7 * i % n, 7 * (i + 1) % n) for i in range(n - 1)])


def test_mad_matches_the_bisection_reference():
    rng = random.Random(6)
    graphs = []
    for _ in range(300):
        n = rng.randint(1, 12)
        graphs.append(build_graph(random_graph(rng, n, rng.uniform(0, 0.7)),
                                  vertices=range(n)))
    for seed in range(4):
        graphs.append(generate(GenSpec("sparse-mad3", 60, seed=seed)).graph)
        graphs.append(generate(GenSpec("planar-girth7", 60, seed=seed)).graph)
    graphs.append(generate(GenSpec("tree", 700, delta=2)).graph)
    graphs.append(scrambled_path(1500))
    for g in graphs:
        assert mad(g) == bisect_mad(g)


def test_witnesses_are_pinned():
    # the exact witness sets, not only their densities: mad() and
    # bisect_mad() both read them from density_exceeds, so the
    # differential above cannot see a change in which set is returned
    rng = random.Random(11)
    graphs = []
    for _ in range(300):
        n = rng.randint(1, 12)
        graphs.append(build_graph(random_graph(rng, n, rng.uniform(0.1, 0.8)),
                                  vertices=range(n)))
    graphs += [generate(GenSpec("planar-girth7", 60, seed=seed)).graph
               for seed in range(4)]
    thresholds = [Fraction(t) for t in ("0", "1", "2", "5/2", "4")]
    digest = hashlib.sha256()
    for g in graphs:
        for w in [density_exceeds(g, t) for t in thresholds] + [mad(g)]:
            digest.update(repr(None if w is None else
                               (sorted(w.vertices), w.density)).encode())
    assert digest.hexdigest() == (
        "d842b05fb76dcbc9e69fda50d32ba746f629bf7bfb1fc571dc8ca98bc5969622")


def test_mad_on_a_long_path_takes_few_flows(monkeypatch):
    calls = []

    def counted(g, threshold):
        calls.append(threshold)
        return density_exceeds(g, threshold)

    monkeypatch.setattr(density, "density_exceeds", counted)
    mad(scrambled_path(1500))
    assert len(calls) <= 3
