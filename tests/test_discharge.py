from __future__ import annotations

import time
from fractions import Fraction

import pytest

from strongedge import (ClaimTag, EmbeddingError, apply_rules_girth7,
                        apply_rules_mad, audit_girth7, audit_mad, build_graph,
                        euler_charge_identity, trace_faces)


def ring(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def test_cycle_has_two_faces():
    g = ring(7)
    emb = trace_faces(g, tuple(g.adj))
    assert sorted(emb.face_degree(i) for i in range(len(emb.faces))) == [7, 7]
    assert euler_charge_identity(emb) == -14


def test_cube_has_six_square_faces():
    g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6),
                     (6, 7), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7)])
    rotation = [(1, 4, 3), (2, 5, 0), (3, 6, 1), (0, 7, 2),
                (5, 7, 0), (6, 4, 1), (2, 7, 5), (6, 3, 4)]
    emb = trace_faces(g, rotation)
    assert [emb.face_degree(i) for i in range(6)] == [4] * 6
    assert euler_charge_identity(emb) == -14


def test_k4_all_triangles_and_half_charges():
    g = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    rotation = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]
    emb = trace_faces(g, rotation)
    assert sorted(len(w) for w in emb.faces) == [3, 3, 3, 3]
    led = apply_rules_girth7(emb)
    final = led.final()
    # a 3-vertex with no degree-2 neighbors keeps exactly half a unit
    assert all(final[("v", v)] == Fraction(1, 2) for v in range(4))
    assert all(final[("f", i)] == -4 for i in range(4))
    assert led.conserved()


def test_lone_vertex_and_lone_edge_identities():
    one = build_graph([], vertices=range(1))
    emb = trace_faces(one, [()])
    assert emb.faces == ((),)
    assert euler_charge_identity(emb) == -14
    two = build_graph([(0, 1)])
    emb = trace_faces(two, tuple(two.adj))
    assert [len(w) for w in emb.faces] == [2]  # pendant edge counts twice
    assert euler_charge_identity(emb) == -14


def test_identity_requires_connected():
    g = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    emb = trace_faces(g, tuple(g.adj))  # per-component Euler is fine
    assert len(emb.faces) == 4
    with pytest.raises(ValueError, match="connected"):
        euler_charge_identity(emb)


def test_nonplanar_rotations_rejected():
    k5 = build_graph([(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(EmbeddingError, match="not planar"):
        trace_faces(k5, tuple(k5.adj))
    k33 = build_graph([(i, j + 3) for i in range(3) for j in range(3)])
    with pytest.raises(EmbeddingError, match="genus"):
        trace_faces(k33, tuple(k33.adj))


def test_rotation_validation():
    g = ring(7)
    bad = list(map(tuple, g.adj))
    bad[0] = (1, 5)
    with pytest.raises(EmbeddingError, match="permutation"):
        trace_faces(g, bad)
    with pytest.raises(EmbeddingError, match="7"):
        trace_faces(g, bad[:3])


def test_rotation_normalized_min_first():
    g = ring(7)
    rot = list(map(tuple, g.adj))
    rot[0] = (6, 1)
    emb = trace_faces(g, rot)
    assert emb.rotation[0] == (1, 6)


def test_face_tracing_is_linear_in_components_and_pendants():
    # 10^4 components for the Euler check, and ~1.3*10^4 pendant vertices
    # that each look up their face; both took seconds when quadratic
    start = time.process_time()
    matching = build_graph([(2 * i, 2 * i + 1) for i in range(10 ** 4)])
    assert len(trace_faces(matching, tuple(matching.adj)).faces) == 10 ** 4
    assert time.process_time() - start < 2
    s = 6666  # a caterpillar: a spine path with two leaves per vertex
    tree = build_graph([(i, i + 1) for i in range(s - 1)]
                       + [(i, s + 2 * i + j) for i in range(s)
                          for j in range(2)])
    start = time.process_time()
    report = audit_girth7(trace_faces(tree, tuple(tree.adj)))
    assert report.ledger.conserved()
    assert time.process_time() - start < 4


def test_pendant_face_equality_case():
    # a 7-cycle with one pendant: the pendant's face has degree 9 and,
    # after paying the 1-vertex, lands exactly on zero
    g = build_graph([(i, (i + 1) % 7) for i in range(7)] + [(0, 7)])
    rot = list(map(tuple, g.adj))
    rot[0] = (1, 7, 6)
    emb = trace_faces(g, rot)
    assert sorted(len(w) for w in emb.faces) == [7, 9]
    nine = max(range(2), key=emb.face_degree)
    assert emb.face_of(0, 7) == emb.face_of(7, 0) == nine
    led = apply_rules_girth7(emb)
    final = led.final()
    assert final[("f", nine)] == 0
    assert final[("v", 7)] == 0  # the 1-vertex ends settled
    rules = {t.rule for t in led.transfers}
    assert rules == {"R1", "R2"}
    assert led.conserved()


def test_mad_rules_hub_with_one_weak_neighbor():
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
    led = apply_rules_mad(g)
    final = led.final()
    assert final[("v", 0)] == 0  # pays 1 to its single degree-2 neighbor
    assert final[("v", 1)] == 0  # -1 + 1
    assert [t.rule for t in led.transfers] == ["R1"]
    assert led.total_initial() == 2 * g.m - 3 * g.n == -8


def test_mad_rules_vertex_between_two_half_payers():
    g = build_graph([(0, 4), (0, 5), (0, 1), (0, 2), (3, 4), (3, 5),
                     (3, 1), (3, 2), (1, 2)])
    led = apply_rules_mad(g)
    final = led.final()
    assert all(final[("v", v)] == 0 for v in range(6))
    assert sorted(t.rule for t in led.transfers) == ["R2"] * 4
    assert led.conserved()


def test_girth7_conditional_rules_and_uncovered_finding():
    # one degree-5 hub, each branch exercising one payment rule
    g = build_graph([
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 6), (6, 7),                          # far endpoint of degree 2
        (2, 8), (8, 9), (8, 10),                 # far: 3-vertex, one weak
        (3, 11), (11, 12), (11, 13), (12, 14),   # far: 3-vertex, two weak
        (4, 15), (15, 16), (15, 17), (15, 18), (15, 19),  # far: another big hub
        (5, 20)])                                # far endpoint of degree 1
    rot = tuple(g.adj)
    emb = trace_faces(g, rot)
    led = apply_rules_girth7(emb)
    final = led.final()
    by_rule = {}
    for t in led.transfers:
        by_rule.setdefault(t.rule, []).append(t)
    assert final[("v", 1)] == 0   # 2 via R6
    assert final[("v", 2)] == 0   # 3/2 + 1/2 via R8
    assert final[("v", 3)] == 0   # 2 via R9
    assert final[("v", 4)] == 0   # 1 + 1 via R10, both hubs pay
    assert len(by_rule["R10"]) == 2
    assert len(by_rule["R9"]) == 1
    assert {t.source for t in by_rule["R8"]} == {("v", 0), ("v", 8)}
    assert any("2-vertex 5" in f for f in led.findings)
    assert led.conserved()


def test_audit_mad_cross_references_detector():
    g = build_graph([(0, i) for i in range(1, 5)]
                    + [(i, 5) for i in range(1, 5)])
    report = audit_mad(g)
    assert report.identity_total == 2 * 8 - 3 * 6 == -2
    assert report.plan is not None
    assert report.plan.claim_tag is ClaimTag.M4_ALL_TWOS
    negatives = dict(report.negatives)
    assert set(negatives) == {("v", i) for i in range(1, 5)}
    assert all(hit for _, hit in report.plan_touches)
    assert report.notes == ()


def test_audit_reports_breaches_without_refusing():
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    rotation = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]
    emb = trace_faces(k4, rotation)
    report = audit_girth7(emb, delta_cap=4)
    assert any("girth 3" in note for note in report.notes)
    assert report.identity_total == -14
    assert report.plan is None  # nothing fires on a 3-regular graph
    k5 = build_graph([(i, j) for i in range(5) for j in range(i + 1, 5)])
    rep = audit_mad(k5)  # 4-regular, so only the density breach
    assert any("at least 3" in n for n in rep.notes)
    star = build_graph([(0, i) for i in range(1, 7)])
    rep = audit_mad(star)
    assert any("degree 6 exceeds 4" in n for n in rep.notes)


def test_audit_of_the_empty_graph_claims_no_density():
    # mad is undefined without vertices, so "at least 3" would be false
    report = audit_mad(build_graph([]))
    assert report.identity_total == 0
    assert report.notes == ()


def test_audit_argument_validation():
    g = build_graph([(0, 1)])
    emb = trace_faces(g, tuple(g.adj))
    with pytest.raises(ValueError, match="^delta_cap must be >= 4, got 3$"):
        audit_girth7(emb, delta_cap=3)
