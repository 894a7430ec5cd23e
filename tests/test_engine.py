"""The peeling engine against its slow reference, and its answers pinned.

``helpers.reference_solve`` is the engine as it was before the mutable
peel state: a full scan for the first plan (``helpers.scan_first_plan``,
the twin of ``reducer._peel``'s choice) on a graph rebuilt at every
level, lists and colors carried over by labels.  On every input here the
engine must make the same plans (tag, deleted label, erased pairs,
extension pairs and bounds, in peel order, up to the miss on a component
the matchers miss) and return an equal report
(coloring, trace, certification), or raise the same error: on a miss,
the same density rejection with the same witness, or the same broken
guarantee.  The reference shares the matchers with the engine, so a
change to them moves both; a sha256 of the answers on seeded inputs
catches that.  It unwinds with ``helpers.reference_extend``, which counts
each step's colored conflicts from the whole conflict set, where the
engine's ``extend`` counts the stars in place.  The engine runs on the
input graph and the reference on each rebuilt level, so equal traces
mean equal counts from the two ways of counting on the two graphs.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge import (ClaimTag, GenSpec, HypothesisError,
                        TheoremViolationError, build_graph, generate,
                        solve_girth7, solve_mad3, uniform_lists,
                        verify_strong)
from strongedge import colorer
from strongedge.graph import PeelState
from strongedge.reducer import GIRTH7_MATCHERS, MAD_MATCHERS, _peel
from tests.helpers import (plan_in_labels, random_sparse_graph,
                           reference_solve, relabel)

POOL = list(range(40))


def _outcome(solve):
    """``solve()``'s report, or what a detector miss raised, in plain
    values: a density rejection's message and witness, or a broken
    guarantee's message.  Rejections without a witness propagate."""
    try:
        return solve()
    except HypothesisError as exc:
        if exc.witness is None:
            raise
        return type(exc).__name__, str(exc), exc.witness
    except TheoremViolationError as exc:
        return type(exc).__name__, str(exc)


def run_engine(g, solve):
    """``solve()``'s outcome and, per component peeled, whether it was
    peeled to empty and its plans, up to the miss if the matchers missed."""
    peels = []
    real = colorer._peel

    def peel(state, matchers, delta_cap):
        peeled = list(real(state, matchers, delta_cap))
        peels.append((not state.adj,
                      [plan_in_labels(g, plan) for plan in peeled]))
        return iter(peeled)
    colorer._peel = peel
    try:
        return _outcome(solve), peels
    finally:
        colorer._peel = real


def check_same(g, lists, pipeline, cap=None, solve=None):
    """Run both engines on ``g``; returns the tags the engine fired on the
    components it peeled to empty."""
    lists = {e: frozenset(lists[e]) for e in range(g.m)}
    if pipeline == "mad3":
        matchers, cap, threshold = MAD_MATCHERS, None, 3
    else:
        matchers, threshold = GIRTH7_MATCHERS, Fraction(14, 5)
    if solve is None:
        # a list budget of 0 lets lists below either pipeline's budget through
        solve = lambda: colorer._solve_components(  # noqa: E731
            g, lists, matchers, cap, 0, "0", threshold)
    new, peels = run_engine(g, solve)
    ref_plans = []
    assert new == _outcome(lambda: reference_solve(
        g, lists, matchers, cap, threshold, ref_plans))
    assert [plans for _, plans in peels] == ref_plans
    return {step[0] for emptied, plans in peels if emptied for step in plans}


def test_engine_matches_reference_on_the_acceptance_corpus():
    # the instances and lists of acceptance criteria 3 and 4
    rng = random.Random(0)
    for seed in range(500):
        n = rng.randint(8, 60)
        g = generate(GenSpec("sparse-mad3", n, delta=4, seed=seed)).graph
        size = 3 * g.max_degree() + 1
        lists = {e: frozenset(rng.sample(POOL, size)) for e in range(g.m)}
        check_same(g, lists, "mad3", solve=lambda: solve_mad3(g, lists))
    rng = random.Random(1)
    for seed in range(200):
        cap = (4, 5, 6)[seed % 3]
        n = rng.randint(7, 45)
        g = generate(GenSpec("planar-girth7", n, delta=cap, seed=seed)).graph
        lists = {e: frozenset(rng.sample(POOL, 3 * cap)) for e in range(g.m)}
        check_same(g, lists, "girth7", cap,
                   solve=lambda: solve_girth7(g, lists, delta_cap=cap))


def _answer(solve):
    """A solve's coloring, trace and certification, or the rejection it
    raised, in plain values.  The last slot is always None: the pinned
    digest was taken with it."""
    try:
        rep = solve()
    except HypothesisError as exc:
        return "HypothesisError", str(exc)
    return (sorted(rep.coloring.items()),
            [(r.claim_tag.value, r.edge, r.bound, r.actual, r.color)
             for r in rep.trace],
            rep.certified, None)


def test_answers_are_pinned():
    # about 9600 extension steps: every seeded input through both solves,
    # lists long enough for either budget
    rng = random.Random(2)
    answers = []
    for seed in range(20):
        for family, cap in (("sparse-mad3", 4), ("tree", 4),
                            ("planar-girth7", 4), ("planar-girth7", 5),
                            ("planar-girth7", 6)):
            g = generate(GenSpec(family, 60, delta=cap, seed=seed)).graph
            lists = {e: frozenset(rng.sample(POOL, 3 * cap + 1))
                     for e in range(g.m)}
            answers.append(_answer(lambda: solve_mad3(g, lists)))
            answers.append(_answer(
                lambda: solve_girth7(g, lists, delta_cap=cap)))
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == ("89e68b8fdd22fdf326fcde6fcbca7bc4"
                      "49aad35b1b22dedf7cab957f79529b2c")


def test_plans_are_pinned():
    # an answer cannot show the cap the bound formulas were evaluated at:
    # the trace records bound = actual and a larger cap leaves the smallest
    # spare color alone.  So the plans themselves, with their formulas, are
    # pinned over the inputs of test_answers_are_pinned, under the default
    # lists and cap and under each cap 4-6
    plans = []
    for seed in range(20):
        for family, cap in (("sparse-mad3", 4), ("tree", 4),
                            ("planar-girth7", 4), ("planar-girth7", 5),
                            ("planar-girth7", 6)):
            g = generate(GenSpec(family, 60, delta=cap, seed=seed)).graph
            for solve in (lambda: solve_mad3(g), lambda: solve_girth7(g),
                          *(lambda c=c: solve_girth7(g, None, c)
                            for c in (4, 5, 6))):
                try:
                    plans.append(run_engine(g, solve)[1])
                except HypothesisError as exc:
                    plans.append(str(exc))
    digest = hashlib.sha256(repr(plans).encode()).hexdigest()
    assert digest == ("3cfb8dde399c194578aa51e368662d13"
                      "22b79da5a495892bad331d28f8cbdd67")


def test_default_lists_and_cap_are_the_theorem_budgets():
    # solve_mad3(g) and solve_girth7(g) are the theorems as stated: each
    # answers as with uniform lists of its budget, 3*max_degree+1 colors
    # and 3*cap colors under the cap max(4, max_degree) or the one given
    solved = 0
    for seed in range(3):
        for family, cap in (("sparse-mad3", 4), ("tree", 4),
                            ("planar-girth7", 4), ("planar-girth7", 5),
                            ("planar-girth7", 6)):
            g = generate(GenSpec(family, 60, delta=cap, seed=seed)).graph
            delta = g.max_degree()
            for default, explicit in (
                    (lambda: solve_mad3(g),
                     lambda: solve_mad3(g, uniform_lists(g, 3 * delta + 1))),
                    (lambda: solve_girth7(g),
                     lambda: solve_girth7(g, uniform_lists(
                         g, 3 * max(4, delta)), max(4, delta))),
                    (lambda: solve_girth7(g, None, cap),
                     lambda: solve_girth7(g, uniform_lists(g, 3 * cap),
                                          cap))):
                answer = _answer(default)
                assert answer == _answer(explicit)
                solved += answer[0] != "HypothesisError"
    assert solved >= 20  # most inputs meet the hypotheses of both solves


def _subdivided_circulant(n, keep_matching):
    """C_n(1, 2) with every edge subdivided, except, if asked, the
    matching (2i, 2i+1): a max-degree-4 graph with mad below 3 whose
    hubs fire M4 (all edges subdivided) or M5 (matching kept)."""
    edges, nxt = [], n
    for i in range(n):
        for j in ((i + 1) % n, (i + 2) % n):
            if keep_matching and i % 2 == 0 and j == i + 1:
                edges.append((i, j))
            else:
                edges += [(i, nxt), (nxt, j)]
                nxt += 1
    return edges


# G8 at vertex 0 (degree 5, two strong neighbors, three 2-vertices whose
# far endpoints are 2-vertices or 3-vertices with two degree-2 neighbors)
G8_WITNESS = [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
    (1, 10), (1, 11), (1, 12), (2, 3), (4, 7), (5, 8), (6, 9),
    (7, 10), (7, 13), (8, 11), (8, 13), (9, 12), (9, 13)]


def test_engine_matches_reference_on_every_tag():
    rng = random.Random(5)
    fired = set()
    for n, keep in ((8, False), (10, True), (12, True), (14, False)):
        g = relabel(_subdivided_circulant(n, keep), rng)
        fired |= check_same(g, uniform_lists(g, 13), "mad3",
                            solve=lambda: solve_mad3(g, uniform_lists(g, 13)))
        fired |= check_same(g, uniform_lists(g, 12), "girth7", 4)
    g = relabel(G8_WITNESS, rng)
    fired |= check_same(g, uniform_lists(g, 15), "girth7", 5)
    for _ in range(60):
        edges, vs = random_sparse_graph(rng, rng.randint(6, 30), 4)
        g = relabel(edges, rng, vs)
        fired |= check_same(g, uniform_lists(g, 13), "mad3")
        for cap in (5, 6):
            edges, vs = random_sparse_graph(rng, rng.randint(6, 30), cap)
            g = relabel(edges, rng, vs)
            lists = {e: rng.sample(POOL, 3 * cap) for e in range(g.m)}
            fired |= check_same(g, lists, "girth7", cap)
    assert fired == {tag.value for tag in ClaimTag}


# Each case below blocks one tag at a center vertex by a degree the tag
# reads one ring inside its radius, and hangs on that ring a gadget on
# vertices 100 and up.  Before the gadget's first plan, no tag fires
# anywhere else, so the engine has asked the blocked tag at the center
# and been refused.  The gadget's plan then sets off deletions that end
# at distance exactly the radius from the center, and the center fires.
# An engine that watched a refused vertex one ring short would miss it.

def _sparse_delay(y):
    """While ``y`` has degree 4, M5 fires at 100 (also at 101, a larger
    id) and nothing else fires before it.  Its plan deletes 102, which
    leaves ``y`` with degree 3, so M3 deletes 103, the 2-vertex between
    ``y`` and 101 (a vertex with three degree-2 neighbors): ``y`` loses
    both its gadget neighbors."""
    return [(100, 102), (102, y), (100, 104), (104, 101), (100, 105),
            (105, 101), (100, 101), (101, 103), (103, y)]


def _girth7_delay(x):
    """Under a cap of 5, G8 fires at 100 and nothing else fires before
    it: 100 has strong neighbors 101 and 102 and 2-vertices 104, 105 and
    106, whose far ends ``x`` and 107 are 3-vertices with two degree-2
    neighbors.  Its plan deletes 104, which leaves ``x`` a 2-vertex
    between 108 and ``y``, its neighbor outside the gadget: G2 deletes
    ``x`` when ``y`` has degree 3, G4 when ``y`` is a 4-vertex with
    another degree-2 neighbor."""
    return [(100, 101), (100, 102), (100, 104), (100, 105), (100, 106),
            (104, x), (x, 108), (108, 101), (105, 107), (106, 107),
            (107, 103), (101, 102), (101, 103), (102, 103)]


def _pad(needs, ring=True):
    """Edges that only raise degrees: each vertex of ``needs`` joined to
    that many of 10..13 in turn, and the cycle on 10..13 if ``ring``."""
    out = [(10, 11), (11, 12), (12, 13), (10, 13)] if ring else []
    stubs = [v for v, k in needs.items() for _ in range(k)]
    return out + [(v, 10 + i % 4) for i, v in enumerate(stubs)]


BOUNDARY_CASES = {
    # tag: (pipeline, cap, center, edges)
    # the 2-vertex 5 between 6 (degree 4) and 7 (degree 3) fires once 6
    # has degree 3: the gadget leaves 1 a 2-vertex between 6 and 2, and
    # M3 deletes 1, at distance 2
    "M2": ("mad3", None, 5, [(5, 6), (5, 7), (6, 1), (6, 8), (6, 9), (1, 2)]
           + _sparse_delay(1) + _pad({7: 2, 8: 2, 9: 2, 2: 2})),
    # the 2-vertex 0 between 1 (degree 4) and 2 (degree 3) fires once 1
    # has two degree-2 neighbors: 3 gets there at the gadget's deletions,
    # at distance 3
    "M3": ("mad3", None, 0, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (3, 6)]
           + _sparse_delay(3) + _pad({2: 2, 4: 2, 5: 2, 6: 2})),
    # 0 has 2-vertices 1, 2 and 3 and fires once its fourth neighbor 4
    # has degree 2, at the gadget's deletions at distance 2; M5 at 0 stays
    # blocked, as 5, 6 and 7 are 4-vertices with one degree-2 neighbor
    "M4": ("mad3", None, 0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6),
                             (3, 7), (4, 8)]
           + _sparse_delay(4) + _pad({5: 3, 6: 3, 7: 3, 8: 3}, ring=False)),
    # 0 has 2-vertices 1, 2 and 3 whose far ends 5, 6 and 7 are
    # 4-vertices with one degree-2 neighbor, until 5's neighbor 8 has
    # degree 2, at the gadget's deletions at distance 4
    "M5": ("mad3", None, 0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6),
                             (3, 7), (5, 8), (8, 9)]
           + _sparse_delay(8)
           + _pad({4: 3, 5: 2, 6: 3, 7: 3, 9: 3}, ring=False)),
    # the pendant edge 01 has 15 edges near it (degrees 3, 4, 4 and 4 at
    # 2, 3, 4 and 5) until 2 loses 20, at distance 3
    "G1": ("girth7", 5, 0, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 20)]
           + _girth7_delay(20) + _pad({2: 1, 3: 3, 4: 3, 5: 3})),
    # the 2-vertex 0 between 1 (degree 4) and 2 (degree 3) fires once 1
    # loses 20, at distance 2
    "G2": ("girth7", 5, 0, [(0, 1), (0, 2), (1, 20)]
           + _girth7_delay(20) + _pad({1: 2, 2: 2})),
    # 0's neighbors 2, 3 and 4 are 2-vertices, and 1 has degree 3 until it
    # loses 20, at distance 2
    "G3": ("girth7", 5, 0, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (3, 6),
                            (4, 7), (1, 20)]
           + _girth7_delay(20) + _pad({1: 1, 5: 3, 6: 3, 7: 3})),
    # the 2-vertex 0 between the 4-vertex 1 and the 2-vertex 2 fires once
    # 1 has a second degree-2 neighbor: 4, when it loses 20 at distance 3
    "G4": ("girth7", 5, 0, [(0, 1), (0, 2), (2, 3), (1, 4), (1, 5), (1, 6),
                            (4, 20)]
           + _girth7_delay(20) + _pad({3: 4, 4: 1, 5: 2, 6: 2})),
    # the 2-vertex 0 between the 4-vertex 1 and the 3-vertex 2 fires once
    # 1 has three degree-2 neighbors: 0, 3 and 4, when 4 loses 20 at
    # distance 3
    "G5": ("girth7", 5, 0, [(0, 1), (0, 2), (1, 3), (3, 7), (1, 4), (1, 5),
                            (4, 20)]
           + _girth7_delay(20) + _pad({2: 2, 7: 2, 4: 1, 5: 2})),
    # the 2-vertex 0 between the 3-vertex 1 and the 4-vertex 2 (degree-2
    # neighbors 0 and 5) fires once 1 has a second degree-2 neighbor: 3,
    # when it loses 20 at distance 3
    "G6": ("girth7", 5, 0, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6),
                            (2, 7), (2, 8), (3, 9), (3, 20)]
           + _girth7_delay(20)
           + _pad({4: 2, 6: 2, 7: 2, 8: 2, 9: 3})),
    # 0 has degree 5, one strong neighbor 5 and 2-vertices 1..4 whose far
    # ends 6..9 have degree 4, until 6 loses 20 at distance 3
    "G7": ("girth7", 5, 0, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6),
                            (2, 7), (3, 8), (4, 9), (5, 6), (5, 7), (6, 20)]
           + _girth7_delay(20) + _pad({6: 1, 7: 2, 8: 3, 9: 3})),
    # the witness above, where far end 7 has one degree-2 neighbor until
    # 10 loses 20, at distance 4
    "G8": ("girth7", 5, 0, G8_WITNESS + [(10, 20)] + _girth7_delay(20)),
}


@pytest.mark.parametrize("tag", BOUNDARY_CASES)
def test_a_refused_vertex_is_rechecked_from_its_radius(tag):
    pipeline, cap, center, edges = BOUNDARY_CASES[tag]
    g = build_graph(edges)
    check_same(g, uniform_lists(g, 13 if cap is None else 3 * cap),
               pipeline, cap)
    # the case is what it claims: the tag is refused at the center before
    # the gadget's first plan, and fires there after it
    calls = []

    def recording(matcher):
        def match(state, v, d):
            plan = matcher.match(state, v, d)
            calls.append((matcher.tag.value, g.labels[v], plan is not None))
            return plan
        return matcher._replace(match=match)
    matchers = MAD_MATCHERS if cap is None else GIRTH7_MATCHERS
    list(_peel(PeelState(g, range(g.n)), tuple(map(recording, matchers)),
               cap))
    first = next(i for i, (_, _, fired) in enumerate(calls) if fired)
    assert calls[first][1] == 100
    asked = [(i, fired) for i, (t, v, fired) in enumerate(calls)
             if (t, v) == (tag, center)]
    assert any(i < first and not fired for i, fired in asked)
    assert any(i > first and fired for i, fired in asked)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    cap = draw(st.sampled_from((4, 5, 6)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    edges, deg = set(), [0] * n
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if u != v and key not in edges and deg[u] < cap and deg[v] < cap:
            edges.add(key)
            deg[u] += 1
            deg[v] += 1
    return build_graph(sorted(edges), vertices=range(n)), cap


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.integers(0, 2 ** 20))
def test_engine_matches_reference_on_small_graphs(case, seed):
    g, cap = case
    rng = random.Random(seed)
    size = 3 * cap + 1 if cap == 4 else 3 * cap
    lists = {e: rng.sample(POOL, size) for e in range(g.m)}
    if cap == 4:
        check_same(g, lists, "mad3")
    check_same(g, lists, "girth7", cap)


def test_engine_matches_reference_across_components():
    rng = random.Random(7)
    for trial in range(12):
        parts = [generate(GenSpec("sparse-mad3", rng.randint(3, 20), delta=4,
                                  seed=trial * 10 + k)).graph
                 for k in range(3)]
        parts.append(build_graph([(0, 1)]))
        parts.append(build_graph([], vertices=[0]))
        edges, vertices, base = [], [], 0
        for h in parts:
            edges += [(base + u, base + v) for u, v in h.edges]
            vertices += [base + v for v in range(h.n)]
            base += h.n
        g = relabel(edges, rng, vertices)  # components interleave by id
        assert len(g.components()) >= 5
        lists = {e: rng.sample(POOL, 13) for e in range(g.m)}
        check_same(g, lists, "mad3", solve=lambda: solve_mad3(g, lists))
        check_same(g, lists, "girth7", 4)


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)])


def _mcgee():
    edges = [(i, (i + 1) % 24) for i in range(24)]
    shift = {0: 12, 1: 7, 2: -7}
    for i in range(24):
        j = (i + shift[i % 3]) % 24
        if i < j:
            edges.append((i, j))
    return edges


def test_engine_matches_reference_on_detector_misses():
    rng = random.Random(11)
    # cubic graphs fire no G tag; pendant paths peel first, so the miss
    # comes on a Petersen core (10 vertices) or a McGee core (24), whose
    # density 3 reaches 14/5: each miss is a rejection with a witness
    tails = [(0, 30), (30, 31), (31, 32), (7, 40), (3, 41)]
    petersen = relabel(PETERSEN + tails, rng)
    mcgee = relabel(_mcgee() + [(5, 50), (50, 51)], rng)
    both = relabel(PETERSEN + tails + [(100 + u, 100 + v)
                                       for u, v in _mcgee()]
                    + [(60, 61), (61, 62), (62, 60 + 3)], rng)
    for g in (petersen, mcgee, both):
        # lists from 4 colors admit no strong coloring of the Petersen graph
        for pool, size in ((12, 12), (6, 5), (4, 3)):
            lists = {e: rng.sample(POOL[:pool], size) for e in range(g.m)}
            check_same(g, lists, "girth7", 4)
    # the Petersen core with a pendant path of 9 or 10 edges: 24 or 25
    # edges in all, on either side of the old exact-search limit
    for length in (9, 10):
        tail = [(0, 30)] + [(30 + i, 31 + i) for i in range(length - 1)]
        g = build_graph(PETERSEN + tail)
        assert g.m == 15 + length
        check_same(g, uniform_lists(g, 12), "girth7", 4)
    out, _ = run_engine(petersen, lambda: colorer._solve_components(
        petersen, uniform_lists(petersen, 12), GIRTH7_MATCHERS, 4, 12,
        "3*delta_cap", Fraction(14, 5)))
    core = sorted(petersen.labels[v] for v in out[2].vertices)
    assert out[0] == "HypothesisError" and len(core) == 10
    assert out[1] == (f"maximum average degree is 3 >= 14/5 on vertices "
                      f"{core}")
    assert out[2].check(petersen)
    # on both cores the McGee one misses first, and its witness holds it
    # alone, though the Petersen core is as dense
    out, _ = run_engine(both, lambda: colorer._solve_components(
        both, uniform_lists(both, 12), GIRTH7_MATCHERS, 4, 12,
        "3*delta_cap", Fraction(14, 5)))
    assert out[0] == "HypothesisError" and out[2].check(both)
    assert out[2].vertices == frozenset(both.components()[0])
    assert len(out[2].vertices) == 24
    # the sparse pipeline's rule is the same at threshold 3
    k4_tail = relabel([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (3, 4), (4, 5)], rng)
    assert check_same(k4_tail, uniform_lists(k4_tail, 13), "mad3") == set()
    out, _ = run_engine(k4_tail, lambda: colorer._solve_components(
        k4_tail, uniform_lists(k4_tail, 13), MAD_MATCHERS, None, 13,
        "3*max_degree+1", 3))
    assert out[0] == "HypothesisError" and "is 3 >= 3 on" in out[1]
    assert len(out[2].vertices) == 4 and out[2].check(k4_tail)
    # below the threshold a miss is a broken guarantee: a table cut to G1
    # misses on C_7, of density 2
    c7 = relabel([(i, (i + 1) % 7) for i in range(7)], rng)
    lists = uniform_lists(c7, 12)
    cut = GIRTH7_MATCHERS[:1]
    out, _ = run_engine(c7, lambda: colorer._solve_components(
        c7, lists, cut, 4, 12, "3*delta_cap", Fraction(14, 5)))
    assert out == _outcome(lambda: reference_solve(
        c7, lists, cut, 4, Fraction(14, 5), []))
    assert out[0] == "TheoremViolationError" and "7 vertices" in out[1]


def _peel_work(monkeypatch, solve):
    """What the peel of ``solve()`` asked, in order: ``(tag, v, fired)``
    for each matcher call and ``("ball", v, radius)`` for each ball; and
    how often each tag's matcher was asked."""
    log, tags = [], Counter()
    real_ball = PeelState.ball

    def ball(self, v, radius):
        log.append(("ball", v, radius))
        return real_ball(self, v, radius)

    def recording(matcher):
        def match(g, v, d):
            tags[matcher.tag.value] += 1
            plan = matcher.match(g, v, d)
            log.append((matcher.tag.value, v, plan is not None))
            return plan
        return matcher._replace(match=match)

    with monkeypatch.context() as patch:
        patch.setattr(PeelState, "ball", ball)
        for name in ("MAD_MATCHERS", "GIRTH7_MATCHERS"):
            patch.setattr(colorer, name,
                          tuple(map(recording, getattr(colorer, name))))
        assert solve().certified
    return log, tags


PEEL_CASES = {
    # a tag's worklist is built when the loop first gets to it, and only a
    # refused vertex is watched, one ring short of the tag's radius: M1
    # never refuses a vertex in its window, G1 reads to distance 3 and M2
    # to distance 1
    "tree-mad3": (GenSpec("tree", 2000), "mad3", set(), {"M1"}),
    "tree-girth7": (GenSpec("tree", 2000), "girth7", {2}, {"G1"}),
    "planar-mad3": (GenSpec("planar-girth7", 400, delta=4), "mad3", {1},
                    {"M1", "M2"}),
}


@pytest.mark.parametrize("case", PEEL_CASES)
def test_peel_reaches_only_the_tags_in_use(monkeypatch, case):
    spec, pipeline, radii, tags = PEEL_CASES[case]
    g = generate(spec).graph
    if pipeline == "mad3":
        def solve():
            return solve_mad3(g, uniform_lists(g, 13))
    else:
        def solve():
            return solve_girth7(g, uniform_lists(g, 12), delta_cap=4)
    work = _peel_work(monkeypatch, solve)
    log, asked = work
    assert set(asked) == tags
    # one ball per refused call, in order, at its vertex and one ring short
    # of its tag's radius, and none for a firing call
    radius = {m.tag.value: m.radius for m in MAD_MATCHERS + GIRTH7_MATCHERS}
    refusals = [("ball", v, radius[tag] - 1)
                for tag, v, fired in log if tag != "ball" and not fired]
    assert [e for e in log if e[0] == "ball"] == refusals
    assert {r for _, _, r in refusals} == radii
    assert _peel_work(monkeypatch, solve) == work


def test_g1_is_asked_only_where_its_window_lets_it_fire(monkeypatch):
    # G1 fires only at a vertex of degree <= 1, so a deletion re-queues
    # only the vertices near it that are pendant by then.  On a tree G1
    # fires once per deletion, so every other call is a stale pop: a
    # pendant whose edge still has 3*cap conflicts nearby.  Re-queuing
    # the whole radius-3 ball would make about 5 calls per deletion
    g = generate(PEEL_CASES["tree-girth7"][0]).graph
    _, tags = _peel_work(monkeypatch, lambda: solve_girth7(
        g, uniform_lists(g, 12), delta_cap=4))
    stale = tags["G1"] - g.n
    assert 0 <= stale <= g.n // 20


@pytest.mark.parametrize("family, cap", [("planar-girth7", 6),
                                         ("sparse-mad3", 4)])
def test_no_tag_is_asked_twice_at_a_vertex_in_a_round(monkeypatch, family,
                                                      cap):
    # a push does not look for a queued copy, so a heap holds some vertices
    # twice on these inputs, and some of them are refused; the copies of
    # the vertex asked at the top pop together, so between two plans each
    # (tag, vertex) is asked once
    g = generate(GenSpec(family, 400, delta=cap, seed=1)).graph
    if family == "sparse-mad3":
        def solve():
            return solve_mad3(g, uniform_lists(g, 13))
    else:
        def solve():
            return solve_girth7(g, uniform_lists(g, 3 * cap), delta_cap=cap)
    log, _ = _peel_work(monkeypatch, solve)
    asked = set()
    for tag, v, fired in log:
        if tag != "ball":
            assert (tag, v) not in asked
            asked.add((tag, v))
            if fired:
                asked.clear()


def test_large_inputs_peel_in_linear_time():
    # about 2 s each here; the engine that rebuilt a graph per level took
    # 15 s already on a 2000-vertex tree.  CPU time, so a busy host does
    # not count against the bound
    tree = generate(GenSpec("tree", 20_000, delta=4, seed=3)).graph
    cycle = build_graph([(i, (i + 1) % 20_000) for i in range(20_000)])
    for g, solve in ((tree, lambda: solve_mad3(tree, uniform_lists(tree, 13))),
                     (tree, lambda: solve_girth7(tree, uniform_lists(tree, 12),
                                                 delta_cap=4)),
                     (cycle, lambda: solve_girth7(
                         cycle, uniform_lists(cycle, 12), delta_cap=4))):
        start = time.process_time()
        report = solve()
        assert time.process_time() - start < 20
        assert report.certified and not verify_strong(g, report.coloring)
