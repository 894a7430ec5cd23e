"""End-to-end acceptance checks, one numbered criterion per test.

Each test wraps its body in ``criterion(...)`` so the run always ends
with a visible PASS/FAIL line per criterion (see ``conftest.py``).  The
numbers match the build ledger; tolerances are stated inline — almost
everything here is exact arithmetic, so "tolerance" usually means
equality.
"""

from __future__ import annotations

import random
from fractions import Fraction

from strongedge import (GenSpec, TheoremViolationError, apply_rules_girth7,
                        apply_rules_mad, audit_girth7, build_graph,
                        euler_charge_identity, generate, girth,
                        list_strong_colorable, mad, mad_deficit_sum,
                        solve_girth7, solve_mad3,
                        strong_chromatic_index_exact, trace_faces,
                        uniform_lists, verify_strong)
from tests.conftest import criterion
from tests.helpers import (dp_chromatic, naive_conflicts, random_graph,
                           subset_mad)

COUNTS = {"sparse": 0, "planar": 0, "theorem_violations": 0}


def _solve_counted(kind, g, lists, **kw):
    try:
        report = solve_mad3(g, lists) if kind == "sparse" else \
            solve_girth7(g, lists, **kw)
    except TheoremViolationError:
        COUNTS["theorem_violations"] += 1
        raise
    COUNTS[kind] += 1
    return report


def _assert_certified(g, lists, report):
    assert report.certified and report.complete
    assert not verify_strong(g, report.coloring)
    assert all(report.coloring[e] in lists[e] for e in range(g.m))


def test_criterion_1_sparse_pipeline_end_to_end():
    with criterion(1, "sparse pipeline colors a seven-cycle from "
                      "7-color lists; exact oracle agrees it needs 4"):
        g = build_graph([(i, (i + 1) % 7) for i in range(7)])
        lists = uniform_lists(g, 3 * g.max_degree() + 1)
        report = solve_mad3(g, lists)
        _assert_certified(g, lists, report)
        exact = strong_chromatic_index_exact(g)
        assert exact.chi_s == 4
        assert not verify_strong(g, exact.witness)
        assert report.colors_used >= exact.chi_s


def test_criterion_2_planar_pipeline_end_to_end():
    with criterion(2, "planar girth-7 pipeline colors a generated "
                      "instance from 12-color lists with certification"):
        inst = generate(GenSpec("planar-girth7", 30, delta=4, seed=5))
        g = inst.graph
        lists = uniform_lists(g, 12)
        report = solve_girth7(g, lists, delta_cap=4)
        _assert_certified(g, lists, report)


def test_criterion_3_five_hundred_sparse_instances():
    with criterion(3, "500 seeded sparse instances (n <= 60), random "
                      "per-edge lists of size 3*max_degree+1 from a "
                      "40-color pool, all certified and valid"):
        rng = random.Random(0)
        pool = list(range(40))
        for seed in range(500):
            n = rng.randint(8, 60)
            g = generate(GenSpec("sparse-mad3", n, delta=4, seed=seed)).graph
            size = 3 * g.max_degree() + 1
            lists = {e: frozenset(rng.sample(pool, size))
                     for e in range(g.m)}
            report = _solve_counted("sparse", g, lists)
            _assert_certified(g, lists, report)


def test_criterion_4_two_hundred_planar_instances():
    with criterion(4, "200 seeded planar girth-7 instances under degree "
                      "caps 4/5/6, lists of size 3*cap, all certified"):
        rng = random.Random(1)
        pool = list(range(40))
        for seed in range(200):
            cap = (4, 5, 6)[seed % 3]
            n = rng.randint(7, 45)
            inst = generate(GenSpec("planar-girth7", n, delta=cap, seed=seed))
            g = inst.graph
            assert girth(g) >= 7 and g.max_degree() <= cap
            lists = {e: frozenset(rng.sample(pool, 3 * cap))
                     for e in range(g.m)}
            report = _solve_counted("planar", g, lists, delta_cap=cap)
            _assert_certified(g, lists, report)


def test_criterion_5_no_internal_guarantee_violations():
    with criterion(5, "zero internal guarantee violations across all "
                      "700 pipeline runs (every reduction step stayed "
                      "within its promised bound)"):
        assert COUNTS["sparse"] == 500, "criterion 3 must run first"
        assert COUNTS["planar"] == 200, "criterion 4 must run first"
        assert COUNTS["theorem_violations"] == 0


def test_criterion_6_exact_oracle_cross_check():
    with criterion(6, "small random graphs: the exact index matches an "
                      "independent subset-DP, lists of exactly chi_s "
                      "colors are colorable, chi_s - 1 are not, and the "
                      "pipeline never beats the optimum"):
        rng = random.Random(123)
        checked = 0
        while checked < 40:
            n = rng.randint(4, 7)
            edges = random_graph(rng, n, 0.45)
            if not 1 <= len(edges) <= 12:
                continue
            checked += 1
            g = build_graph(edges, vertices=range(n))
            chi = strong_chromatic_index_exact(g).chi_s
            masks = [0] * g.m
            el = [g.edges[e] for e in range(g.m)]
            for e in range(g.m):
                for f in naive_conflicts(el, e):
                    masks[e] |= 1 << f
            assert dp_chromatic(g.m, masks) == chi
            assert list_strong_colorable(g, uniform_lists(g, chi)) is not None
            if chi > 1 and g.m <= 8:
                # the list search has no symmetry breaking, so keep the
                # unsatisfiable direction to sizes it can exhaust fast
                assert list_strong_colorable(
                    g, uniform_lists(g, chi - 1)) is None
        for seed in (2, 7, 11):
            g = generate(GenSpec("sparse-mad3", 10, delta=4, seed=seed)).graph
            report = solve_mad3(g, uniform_lists(g, 3 * g.max_degree() + 1))
            assert report.colors_used >= strong_chromatic_index_exact(g).chi_s


def test_criterion_7_flow_density_matches_brute_force():
    with criterion(7, "1000 random graphs (n <= 9): max-flow maximum "
                      "average degree equals brute-force subset "
                      "enumeration exactly"):
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randint(1, 9)
            edges = random_graph(rng, n, rng.uniform(0.0, 0.7))
            g = build_graph(edges, vertices=range(n))
            witness = mad(g)
            assert witness.density == subset_mad(edges, n)
            assert witness.check(g)


def test_criterion_8_charge_identities():
    with criterion(8, "charge audits: totals equal 2|E|-3|V| (sparse "
                      "scheme) and -14 (planar scheme), every ledger "
                      "conserves, and the worked final charges match"):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 12)
            g = build_graph(random_graph(rng, n, 0.35), vertices=range(n))
            led = apply_rules_mad(g)
            assert led.conserved()
            assert led.total_initial() == mad_deficit_sum(g) == 2 * g.m - 3 * g.n
        for seed in range(25):
            inst = generate(GenSpec("planar-girth7", 7 + seed, delta=4,
                                    seed=seed))
            emb = trace_faces(inst.graph, inst.rotation)
            assert euler_charge_identity(emb) == -14
            assert apply_rules_girth7(emb).conserved()
            assert audit_girth7(emb).identity_total == -14

        # worked examples, sparse scheme: a 4-vertex with one weak
        # neighbor pays it off exactly, and a 2-vertex between two
        # half-paying 4-vertices lands on zero
        g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
        fin = apply_rules_mad(g).final()
        assert fin[("v", 0)] == 0 and fin[("v", 1)] == 0
        g = build_graph([(0, 4), (0, 5), (0, 1), (0, 2), (3, 4), (3, 5),
                         (3, 1), (3, 2), (1, 2)])
        assert all(apply_rules_mad(g).final()[("v", v)] == 0
                   for v in range(6))

        # worked examples, planar scheme: settled 3-vertices keep 1/2,
        # a pendant's face lands exactly on zero, and a 2-vertex paid
        # 3/2 and 1 by its two 4-vertex neighbors keeps exactly 1/2
        k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
        emb = trace_faces(k4, [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])
        fin = apply_rules_girth7(emb).final()
        assert all(fin[("v", v)] == Fraction(1, 2) for v in range(4))
        g = build_graph([(i, (i + 1) % 7) for i in range(7)] + [(0, 7)])
        rot = list(map(tuple, g.adj))
        rot[0] = (1, 7, 6)
        emb = trace_faces(g, rot)
        fin = apply_rules_girth7(emb).final()
        nine = max(range(2), key=emb.face_degree)
        assert fin[("f", nine)] == 0 and fin[("v", 7)] == 0
        g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6),
                         (3, 7), (3, 8), (4, 9), (4, 10), (5, 11), (5, 12),
                         (5, 13), (11, 14), (12, 15), (13, 16), (13, 17)])
        emb = trace_faces(g, tuple(g.adj))
        fin = apply_rules_girth7(emb).final()
        assert fin[("v", 1)] == Fraction(1, 2)


def test_criterion_9_headline_list_sizes():
    with criterion(9, "headline budgets hold: 13 = 3*4+1 colors certify "
                      "a max-degree-4 sparse instance, 12 = 3*4 certify "
                      "a degree-cap-4 planar instance"):
        seed = 0
        while True:
            g = generate(GenSpec("sparse-mad3", 40, delta=4, seed=seed)).graph
            if g.max_degree() == 4:
                break
            seed += 1
        lists = uniform_lists(g, 13)
        report = solve_mad3(g, lists)
        _assert_certified(g, lists, report)
        assert max(report.coloring.values()) <= 12

        seed = 0
        while True:
            inst = generate(GenSpec("planar-girth7", 30, delta=4, seed=seed))
            if inst.graph.max_degree() == 4:
                break
            seed += 1
        g = inst.graph
        lists = uniform_lists(g, 12)
        report = solve_girth7(g, lists, delta_cap=4)
        _assert_certified(g, lists, report)
        assert max(report.coloring.values()) <= 11
