from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge import (FAMILIES, ClaimTag, ExtensionError, ExtensionRecord,
                        GenSpec, HypothesisError, ReductionPlan, build_graph,
                        generate, greedy_color, mad, solve_girth7, solve_mad3,
                        uniform_lists, verify_strong)
from strongedge import colorer
from strongedge.colorer import TheoremViolationError, extend
from strongedge.graph import PeelState, girth as graph_girth
from strongedge.reducer import (GIRTH7_MATCHERS, MAD_MATCHERS, ExtensionStep,
                                _peel)

from tests.helpers import (bisect_mad, extend_partial, naive_strong_ok,
                           naive_verdict, nonplanar_girth7, random_graph,
                           reference_extend, set_count_g1, stars_of)
from tests.test_engine import (BOUNDARY_CASES, G8_WITNESS,
                               _subdivided_circulant)


def test_verify_catches_planted_conflict():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)])
    ok = {0: 0, 1: 1, 2: 2, 3: 0}
    assert verify_strong(g, ok) == []
    bad = {**ok, 2: 0}  # edges (1,2) and (3,4) share 0 at distance 2
    kinds = [v.kind for v in verify_strong(g, bad)]
    assert "conflict" in kinds


def test_verify_reports_missing_and_unknown():
    g = build_graph([(0, 1), (1, 2)])
    out = verify_strong(g, {0: 1, 7: 2})
    assert {v.kind for v in out} == {"unknown-edge", "uncolored"}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.sampled_from((0.2, 0.4, 0.7)),
       st.integers(0, 10_000))
def test_verify_matches_the_definition(n, p, seed):
    # partial colorings in shuffled order from a few colors, a few unknown
    # edge ids, and lists on some edges (and some unknown ids) only
    rng = random.Random(seed)
    g = build_graph(random_graph(rng, n, p), vertices=range(n))
    ids = [*range(g.m), -1, g.m, g.m + 3]
    rng.shuffle(ids)
    coloring = {e: rng.randrange(4) for e in ids
                if rng.random() < (0.8 if 0 <= e < g.m else 0.3)}
    lists = {e: frozenset(rng.sample(range(4), rng.randint(0, 3)))
             for e in ids if rng.random() < 0.6}
    edges = list(g.edges)
    for given_lists in (None, lists):
        got = [(v.kind, v.edges, v.color)
               for v in verify_strong(g, coloring, given_lists)]
        assert got == naive_verdict(edges, coloring, given_lists)


def test_solve_gate_rejects_a_color_outside_its_list(monkeypatch):
    def off_list(g, partial, plan, lists, trace, stars):
        extend(g, partial, plan, lists, trace, stars)
        for step in plan.extension_order:
            partial[step.edge] = 100 + step.edge  # off-list, no clash
        return partial

    g = build_graph([(i, i + 1) for i in range(5)])
    monkeypatch.setattr(colorer, "extend", off_list)
    with pytest.raises(TheoremViolationError, match="kind='list'"):
        solve_mad3(g, uniform_lists(g, 7))


def test_greedy_colors_path():
    g = build_graph([(i, i + 1) for i in range(6)])
    rep = greedy_color(g, uniform_lists(g, 3))
    assert rep.complete and not rep.certified
    assert not verify_strong(g, rep.coloring)


def test_greedy_reports_exhaustion():
    g = build_graph([(0, 1), (1, 2)])
    rep = greedy_color(g, {0: {5}, 1: {5}})
    assert rep.failed_edge == 1
    assert not rep.complete


def test_extend_raises_on_broken_promise():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    lying = ReductionPlan(ClaimTag.M1_PENDANT, 0, (),
                          (ExtensionStep(g.edge_id(1, 2), 0),))
    partial = {g.edge_id(0, 1): 3, g.edge_id(2, 3): 4}
    with pytest.raises(ExtensionError) as info:
        extend_partial(g, partial, lying, uniform_lists(g, 9), [])
    assert info.value.actual == 2 and info.value.bound == 0


def test_extend_requires_list_margin():
    # three colored conflicts against a 3-color list: the bound 3 holds,
    # but the list leaves no guaranteed spare color (though one is free)
    g = build_graph([(0, 1), (1, 2), (1, 3), (1, 4)])
    e = g.edge_id(0, 1)
    plan = ReductionPlan(ClaimTag.M1_PENDANT, 0, (), (ExtensionStep(e, 3),))
    partial = {f: 5 + f for f in range(g.m) if f != e}
    with pytest.raises(ExtensionError, match="spare") as info:
        extend_partial(g, partial, plan, {e: frozenset({1, 2, 3})}, [])
    assert info.value.actual == 3 and info.value.bound == 3


def _extended(extend_fn, g, partial, plan, lists):
    """What ``extend_fn`` does to a copy of ``partial``: the coloring and
    records it leaves, and the error it raised, in plain values."""
    partial, trace = dict(partial), []
    try:
        extend_fn(g, partial, plan, lists, trace)
    except ExtensionError as exc:
        return (partial, trace, type(exc), str(exc), exc.claim_tag, exc.edge,
                exc.bound, exc.actual)
    return partial, trace


def _with_step(plan, k, bound):
    steps = list(plan.extension_order)
    steps[k] = steps[k]._replace(bound=bound)
    return plan._replace(extension_order=tuple(steps))


EXTEND_CASES = [(family, n, cap, seed)
                for family, n, caps in (("cycle", 40, (4,)),
                                        ("tree", 120, (4, 5)),
                                        ("c5-blowup", 0, (2, 4)),
                                        ("sparse-mad3", 80, (4,)),
                                        ("planar-girth7", 120, (4, 5, 6)))
                for cap in caps for seed in range(3)]


def test_extend_matches_reference_on_every_family(monkeypatch):
    # every step of every plan of both pipelines, run by ``extend`` and by
    # its slow twin from the same partial coloring; then each step again
    # with its bound one below its count, and with its list cut to its
    # count, so that both ExtensionError paths are compared as well.  The
    # stars the solve keeps must be those of its coloring around the plan
    assert {case[0] for case in EXTEND_CASES} == set(FAMILIES)
    real = colorer.extend
    errors = {"bound": 0, "list": 0}
    erasing = set()

    def twin(g, partial, plan, lists, trace, stars):
        if plan.erase_edges:
            erasing.add(plan.claim_tag.value)
        near = {w for e, _ in plan.extension_order
                for x in g.edges[e] for w in g.adj[x]}
        want = stars_of(g, partial)
        assert all(stars[w] == want[w] for w in near)
        got = _extended(extend_partial, g, partial, plan, lists)
        assert got == _extended(reference_extend, g, partial, plan, lists)
        for k, (e, _) in enumerate(plan.extension_order):
            actual = got[1][k].actual
            cases = [("list", plan, {**lists,
                                     e: frozenset(sorted(lists[e])[:actual])})]
            if actual:
                cases.append(("bound", _with_step(plan, k, actual - 1), lists))
            for kind, bad_plan, bad_lists in cases:
                out = _extended(extend_partial, g, partial, bad_plan,
                                bad_lists)
                assert len(out) == 8 and len(out[1]) == k
                assert out == _extended(reference_extend, g, partial,
                                        bad_plan, bad_lists)
                errors[kind] += 1
        return real(g, partial, plan, lists, trace, stars)

    monkeypatch.setattr(colorer, "extend", twin)
    rng = random.Random(17)
    graphs = [(generate(GenSpec(family, n, delta=cap, seed=seed)).graph, cap)
              for family, n, cap, seed in EXTEND_CASES]
    # the seeded families make no plan that erases: M5 fires on the
    # subdivided circulant, G8 on the witness, and G6 once it is padded
    graphs += [(build_graph(_subdivided_circulant(10, True)), 4),
               (build_graph(G8_WITNESS), 5),
               (build_graph(BOUNDARY_CASES["G8"][3]), 5)]
    missed = 0
    for g, cap in graphs:
        lists = {e: frozenset(rng.sample(range(40), 3 * max(cap, 4) + 1))
                 for e in range(g.m)}
        pipelines = [(GIRTH7_MATCHERS, max(cap, 4), Fraction(14, 5))]
        if g.max_degree() <= 4:
            pipelines.append((MAD_MATCHERS, None, 3))
        for matchers, delta_cap, threshold in pipelines:
            try:
                report = colorer._solve_components(
                    g, lists, matchers, delta_cap, 0, "0", threshold)
            except HypothesisError as exc:
                # the c5 blowups (mad 4) miss under both tables, and the
                # subdivided circulant (mad 14/5) under the G tags
                assert exc.witness.density >= threshold
                assert exc.witness.check(g)
                missed += 1
            else:
                assert report.complete
    assert missed == 7
    assert min(errors.values()) > 1000
    assert erasing == {"M5", "G6", "G8"}


def test_extension_types_are_named_tuples():
    assert ExtensionStep._fields == ("edge", "bound")
    assert ReductionPlan._fields == ("claim_tag", "delete_vertex",
                                     "erase_edges", "extension_order")
    assert ExtensionRecord._fields == ("claim_tag", "edge", "bound",
                                       "actual", "color")
    step = ExtensionStep(3, 7)
    plan = ReductionPlan(ClaimTag.G1_PENDANT, 2, (), (step,))
    record = ExtensionRecord(ClaimTag.G1_PENDANT, (1, 2), 5, 5, 0)
    assert (step.edge, step.bound) == (3, 7)
    assert plan.extension_order[0] is step and plan.erase_edges == ()
    assert (record.edge, record.actual, record.color) == ((1, 2), 5, 0)
    for obj, name in ((step, "bound"), (plan, "claim_tag"),
                      (record, "color")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    # positional construction, as the slow G1 twin builds its plans
    g = build_graph([(0, 1), (1, 2)])
    assert set_count_g1(g, 0, 4) == ReductionPlan(
        ClaimTag.G1_PENDANT, 0, (), (ExtensionStep(g.edge_id(0, 1), 12),))
    # the engine and the unwind build these tuples with tuple.__new__,
    # which takes any class, and tuple equality ignores the class: so the
    # exact class of every plan, step and record is checked
    tags, records = set(), 0
    for family in FAMILIES:
        for seed in range(3):
            g = generate(GenSpec(family, 40, seed=seed)).graph
            for matchers, cap in ((MAD_MATCHERS, None),
                                  (GIRTH7_MATCHERS, max(4, g.max_degree()))):
                for plan in _peel(PeelState(g, range(g.n)), matchers, cap):
                    assert type(plan) is ReductionPlan
                    assert all(type(step) is ExtensionStep
                               for step in plan.extension_order)
                    tags.add(plan.claim_tag)
            for solve in (solve_mad3, solve_girth7):
                try:
                    trace = solve(g).trace
                except HypothesisError:
                    continue
                assert all(type(record) is ExtensionRecord
                           for record in trace)
                records += len(trace)
    # pendants, which M1 and G1 build directly, and tags built by _plan
    assert {ClaimTag.M1_PENDANT, ClaimTag.M2_TWO_WEAK, ClaimTag.G1_PENDANT,
            ClaimTag.G2_TWO_WEAK} <= tags and records > 500


def test_solves_never_build_a_conflict_set(monkeypatch):
    # extend counts stars and verify_strong screens colors, so neither
    # asks colorer's conflict-set function; greedy_color still does
    def refuse(g, e):
        raise AssertionError("conflict set built on the solve path")

    monkeypatch.setattr(colorer, "edges_within_distance_two", refuse)
    g = generate(GenSpec("planar-girth7", 300, delta=4, seed=4)).graph
    report = solve_mad3(g, uniform_lists(g, 13))
    assert report.certified and report.trace
    report = solve_girth7(g, uniform_lists(g, 12), delta_cap=4)
    assert report.certified and report.trace
    with pytest.raises(AssertionError, match="solve path"):
        greedy_color(g, uniform_lists(g, 12))


def test_single_edge_and_empty_graphs():
    lone = build_graph([(0, 1)])
    rep = solve_mad3(lone, {0: {42}})
    assert rep.coloring == {0: 42} and rep.certified
    rep = solve_girth7(lone, {0: {42}}, delta_cap=4)
    assert rep.coloring == {0: 42} and rep.certified
    empty = build_graph([], vertices=range(3))
    assert solve_mad3(empty, {}).certified
    assert solve_girth7(empty, {}, delta_cap=4).colors_used == 0


def test_hypothesis_rejections():
    star = build_graph([(0, i) for i in range(1, 6)])
    with pytest.raises(HypothesisError, match="degree 5 exceeds 4"):
        solve_mad3(star, uniform_lists(star, 16))
    k5 = build_graph([(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(HypothesisError, match="average degree is 4"):
        solve_mad3(k5, uniform_lists(k5, 13))
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(HypothesisError, match="average degree is 3") as info:
        solve_mad3(k4, uniform_lists(k4, 10))
    assert info.value.witness.density == 3
    c5 = build_graph([(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(HypothesisError, match="girth 5"):
        solve_girth7(c5, uniform_lists(c5, 12), delta_cap=4)
    with pytest.raises(HypothesisError, match="exceeds the cap"):
        # a star has infinite girth, so only the cap check can fire
        solve_girth7(star, uniform_lists(star, 12), delta_cap=4)
    with pytest.raises(ValueError, match="^delta_cap must be >= 4, got 3$"):
        solve_girth7(c5, uniform_lists(c5, 9), delta_cap=3)


def test_density_rejection_on_a_long_graph():
    # the path peels away and the K4 it ends in misses; the flow over the
    # whole component must still isolate the K4
    n = 1500
    k4 = [(n + i, n + j) for i in range(4) for j in range(i + 1, 4)]
    g = build_graph([(i, i + 1) for i in range(n)] + k4)
    with pytest.raises(HypothesisError, match="average degree is 3") as info:
        solve_mad3(g, uniform_lists(g, 13))
    witness = info.value.witness
    assert witness.density == 3
    assert witness.vertices == frozenset(range(n, n + 4))
    assert witness.check(g)


def test_short_and_missing_lists_rejected():
    g = build_graph([(i, (i + 1) % 7) for i in range(7)])
    with pytest.raises(HypothesisError, match="edges \\[\\(2, 3\\)\\]"):
        lists = uniform_lists(g, 7)
        lists[3] = frozenset({1, 2})
        solve_mad3(g, lists)
    with pytest.raises(HypothesisError, match="without a color list"):
        solve_mad3(g, {0: {1}})
    with pytest.raises(HypothesisError, match="nonempty"):
        solve_mad3(build_graph([(0, 1)]), {0: frozenset()})


def test_list_rejections_name_at_most_ten_edges():
    # a 2000-vertex tree: every edge is too short, or has no list; the
    # message names the first ten label pairs and counts the rest
    g = generate(GenSpec("tree", 2000, delta=4, seed=1)).graph
    first = str([g.label_pair(e) for e in range(10)])
    for lists, start in ((uniform_lists(g, 12), "too short on edges "),
                         ({}, "edges without a color list: ")):
        with pytest.raises(HypothesisError) as info:
            solve_mad3(g, lists)
        message = str(info.value)
        assert len(message) < 1000
        assert message.endswith(f"{start}{first} and {g.m - 10} more")
    # up to ten edges the whole list is named, as before
    for m in (10, 11):
        path = build_graph([(i, i + 1) for i in range(m)])
        with pytest.raises(HypothesisError) as info:
            solve_mad3(path, uniform_lists(path, 6))
        named = str([(i, i + 1) for i in range(10)])
        assert str(info.value).endswith(
            f"edges {named}" + (" and 1 more" if m == 11 else ""))


def test_mad3_certifies_trees_cycles_and_generated():
    t = generate(GenSpec("tree", 20, delta=4, seed=5)).graph
    rep = solve_mad3(t, uniform_lists(t, 3 * t.max_degree() + 1))
    assert rep.certified and not verify_strong(t, rep.coloring)
    assert naive_strong_ok(list(t.edges), rep.coloring)
    for n in (3, 4, 5, 6, 9):
        c = build_graph([(i, (i + 1) % n) for i in range(n)])
        rep = solve_mad3(c, uniform_lists(c, 7))
        assert rep.certified and not verify_strong(c, rep.coloring)


def test_trace_records_every_step_within_bounds():
    g = generate(GenSpec("sparse-mad3", 18, delta=4, seed=3)).graph
    rep = solve_mad3(g, uniform_lists(g, 3 * g.max_degree() + 1))
    assert rep.certified
    assert len(rep.trace) >= 1
    for record in rep.trace:
        assert record.actual <= record.bound


def test_disconnected_components_merge():
    edges = [(0, 1), (1, 2)] + [(10 + i, 10 + (i + 1) % 7) for i in range(7)]
    g = build_graph(edges, vertices=list(range(3)) + list(range(10, 17)))
    rep = solve_mad3(g, uniform_lists(g, 7))
    assert rep.certified and len(rep.coloring) == g.m
    assert not verify_strong(g, rep.coloring)


def test_girth7_certifies_planar_instances():
    for cap in (4, 5):
        inst = generate(GenSpec("planar-girth7", 30, delta=cap, seed=cap))
        g = inst.graph
        rep = solve_girth7(g, uniform_lists(g, 3 * cap), delta_cap=cap)
        assert rep.certified and not verify_strong(g, rep.coloring)


def _lcf(n, shifts):
    """The cubic graph of the LCF notation ``shifts``, repeated around a
    Hamiltonian cycle on ``n`` vertices."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {(i, (i + shifts[i % len(shifts)]) % n) for i in range(n)}
    return build_graph(sorted({(min(e), max(e)) for e in edges}))


MCGEE = _lcf(24, [12, 7, -7])
TUTTE_8_CAGE = _lcf(30, [-13, -9, 7, -7, 9, 13])


def test_girth7_rejects_nonplanar_cubic_with_witness():
    # a cubic graph of girth at least 7 fires no G tag, and its density 3
    # reaches 14/5, which no planar graph of girth 7 does: the miss is a
    # rejection whose witness checks against the input
    for g, girth in ((MCGEE, 7), (TUTTE_8_CAGE, 8)):
        assert g.m == 3 * g.n // 2 and graph_girth(g) == girth
        with pytest.raises(HypothesisError) as info:
            solve_girth7(g, uniform_lists(g, 12), delta_cap=4)
        witness = info.value.witness
        assert witness.check(g) and witness.density >= Fraction(14, 5)
        assert str(info.value) == (
            f"maximum average degree is 3 >= 14/5 on vertices "
            f"{list(range(g.n))}")


def test_girth7_miss_below_the_density_threshold_is_a_violation(
        monkeypatch):
    # with the table cut to G1, C_7 (density 2 < 14/5) misses: the input
    # cannot be blamed, so the guarantee failed
    monkeypatch.setattr(colorer, "GIRTH7_MATCHERS", GIRTH7_MATCHERS[:1])
    c7 = build_graph([(i, (i + 1) % 7) for i in range(7)])
    with pytest.raises(TheoremViolationError,
                       match="no reducible configuration found") as info:
        solve_girth7(c7)
    assert not isinstance(info.value, ExtensionError)


def test_a_miss_is_explained_by_its_own_component(monkeypatch):
    # with the table cut to G1, C_7 on labels 0..6 misses first; the McGee
    # graph beside it reaches 14/5, but it is not the component that missed
    monkeypatch.setattr(colorer, "GIRTH7_MATCHERS", GIRTH7_MATCHERS[:1])
    g = build_graph([(i, (i + 1) % 7) for i in range(7)]
                    + [(7 + u, 7 + v) for u, v in MCGEE.edges])
    with pytest.raises(TheoremViolationError,
                       match="graph with 7 vertices"):
        solve_girth7(g)


def test_a_dense_component_is_rejected_by_its_own_flow():
    # a 20000-vertex planar component peels to empty, then the McGee graph
    # beside it misses, on either pipeline: the flow runs on its 24
    # vertices alone (0.2 s in all), not on the 20000 planar ones (over 4 s)
    planar = generate(GenSpec("planar-girth7", 20000, seed=1)).graph
    g = build_graph([planar.label_pair(e) for e in range(planar.m)]
                    + [(20000 + u, 20000 + v) for u, v in MCGEE.edges])
    for solve in (solve_mad3, solve_girth7):
        start = time.process_time()
        with pytest.raises(HypothesisError) as info:
            solve(g)
        assert time.process_time() - start < 2
        witness = info.value.witness
        assert witness.vertices == frozenset(range(20000, 20024))
        assert witness.check(g) and witness.density == 3


def test_mad3_colors_a_dense_input_that_peels():
    # mad 3 on vertices 0, 1, 2, 4, 5, 6 and maximum degree 4: outside the
    # first theorem's hypothesis, yet M1-M3 peel it to empty, so it is
    # colored, and every step's bound and the result are checked
    g = build_graph([(0, 1), (0, 5), (1, 2), (1, 4), (1, 5), (2, 6), (3, 4),
                     (4, 5), (4, 6), (5, 6)])
    assert g.max_degree() == 4 and mad(g).density == 3
    report = solve_mad3(g)
    assert report.certified and not verify_strong(g, report.coloring)
    assert len(report.coloring) == g.m
    assert {r.claim_tag.value for r in report.trace} == {"M1", "M2", "M3"}


def test_mad3_rejects_exactly_with_the_reference_witness():
    # whatever the density of a connected graph of maximum degree <= 4,
    # solve_mad3 either certifies it or rejects it with the witness and
    # density of an independent bisection over the whole graph
    rng = random.Random(34)
    rejected = dense_colored = 0
    for _ in range(2000):
        n = rng.randint(4, 10)
        edges, deg = [], [0] * n
        for v in range(1, n):  # a random tree keeps g connected
            u = rng.choice([u for u in range(v) if deg[u] < 4])
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
        for u, v in combinations(range(n), 2):
            if (deg[u] < 4 and deg[v] < 4 and (u, v) not in edges
                    and rng.random() < 0.3):
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        g = build_graph(edges)
        try:
            report = solve_mad3(g)
        except HypothesisError as exc:
            rejected += 1
            expected = bisect_mad(g)
            assert exc.witness == expected and expected.density >= 3
            continue
        assert report.certified and len(report.coloring) == g.m
        assert not verify_strong(g, report.coloring)
        dense_colored += mad(g).density >= 3
    assert rejected and dense_colored  # both sides of the rule are reached


def test_girth7_certifies_nonplanar_inputs_below_the_density_threshold():
    # girth >= 7 and mad < 14/5 do not make a graph planar, yet the G
    # configurations are expected to stay unavoidable on such inputs, so
    # the violation branch is unreached: each of these K_{3,3}
    # subdivisions, spliced down to the threshold, must certify
    rng = random.Random(3)
    tags = set()
    for cap in (4, 5, 6):
        for _ in range(12):
            g = nonplanar_girth7(rng, rng.randint(6, 12), cap)
            assert g.max_degree() <= cap and graph_girth(g, limit=7) >= 7
            assert mad(g).density < Fraction(14, 5)
            report = solve_girth7(g, delta_cap=cap)
            assert report.certified and not verify_strong(g, report.coloring)
            tags.update(record.claim_tag.value for record in report.trace)
    assert {"G2", "G3"} <= tags  # more than pendants fire


def test_list_renaming_is_respected():
    # order-preserving renaming of the allowed colors must rename the
    # output colors the same way (the solver always takes the smallest)
    g = generate(GenSpec("sparse-mad3", 14, delta=4, seed=9)).graph
    base = uniform_lists(g, 3 * g.max_degree() + 1)
    rename = {c: 10 * c + 3 for c in range(3 * g.max_degree() + 1)}
    mapped = {e: frozenset(rename[c] for c in lst)
              for e, lst in base.items()}
    first = solve_mad3(g, base)
    second = solve_mad3(g, mapped)
    assert second.coloring == {e: rename[c]
                               for e, c in first.coloring.items()}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_sparse_instances_always_certify(seed):
    inst = generate(GenSpec("sparse-mad3", 16, delta=4, seed=seed))
    g = inst.graph
    rep = solve_mad3(g, uniform_lists(g, 3 * max(g.max_degree(), 1) + 1))
    assert rep.certified and rep.complete
    assert not verify_strong(g, rep.coloring)
