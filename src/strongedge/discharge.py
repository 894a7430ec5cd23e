"""Charge ledgers over planar embeddings: the audit side of the theory.

The solving pipelines rest on "some reducible configuration always
exists".  That fact is proved by a charge-counting argument, and this
module makes the argument executable: assign initial charges to vertices
(and faces, in the planar case), move charge around by fixed local rules,
and inspect who ends up negative.  On any graph satisfying a pipeline's
hypotheses, someone must end up negative — and the detectors must fire.

Faces come from a rotation system: the cyclic order of neighbors around
each vertex.  Tracing faces and checking Euler's formula is as close to a
planarity check as this package gets (a rotation with the wrong genus is
rejected); whether a rotation is *the* intended embedding is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .density import mad_deficit_sum
from .graph import Graph, _min_first, count_twos, girth as graph_girth
from .reducer import (ReductionPlan, _girth7_cap, find_reducible_girth7,
                      find_reducible_mad)

Element = tuple[str, int]
"""Charge carrier: ("v", vertex id) or ("f", face index)."""


class EmbeddingError(ValueError):
    """The rotation system does not describe a planar embedding."""


@dataclass(frozen=True)
class Embedding:
    """A graph with a rotation system and its traced faces.

    ``rotation[v]`` is the cyclic neighbor order around ``v`` (normalized
    to start at the smallest neighbor).  ``faces`` are closed walks of
    directed edges; a pendant edge appears twice in its face, so it adds
    two to that face's degree.  ``face_at`` maps each directed edge to the
    index of its face.  Build via :func:`trace_faces`.
    """

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[tuple[int, int], ...], ...]
    face_at: dict[tuple[int, int], int] = field(compare=False, repr=False)

    def face_degree(self, i: int) -> int:
        return len(self.faces[i])

    def face_of(self, u: int, v: int) -> int:
        """Index of the face the directed edge ``(u, v)`` lies on."""
        i = self.face_at.get((u, v))
        if i is None:
            raise EmbeddingError(f"directed edge ({u}, {v}) is on no face")
        return i


def trace_faces(g: Graph, rotation: Sequence[Sequence[int]]) -> Embedding:
    """Trace the faces of a rotation system and verify it is planar.

    ``rotation[v]`` must list exactly the neighbors of ``v``.  The face
    after directed edge ``(u, v)`` continues with ``(v, w)`` where ``w``
    follows ``u`` in the rotation at ``v``.  Every component must satisfy
    Euler's formula, otherwise the rotation has positive genus and is
    rejected.
    """
    if len(rotation) != g.n:
        raise EmbeddingError(
            f"rotation for {len(rotation)} vertices, graph has {g.n}")
    rot: list[tuple[int, ...]] = []
    succ: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        order = tuple(rotation[v])
        if sorted(order) != sorted(g.adj[v]):
            raise EmbeddingError(
                f"rotation at vertex {v} is not a permutation of its "
                f"neighbors {list(g.adj[v])}")
        rot.append(_min_first(order))
        for i, u in enumerate(order):
            succ[(v, u)] = order[(i + 1) % len(order)]

    # per-component Euler check (components without edges carry no faces)
    comps = g.components()
    comp_of = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    ce, cf = [0] * len(comps), [0] * len(comps)
    faces: list[tuple[tuple[int, int], ...]] = []
    face_at: dict[tuple[int, int], int] = {}
    for a, b in g.edges:
        ce[comp_of[a]] += 1
        for start in ((a, b), (b, a)):
            if start in face_at:
                continue
            walk = []
            cur = start
            while cur not in face_at:
                face_at[cur] = len(faces)
                walk.append(cur)
                u, v = cur
                cur = (v, succ[(v, u)])
            faces.append(tuple(walk))
            cf[comp_of[a]] += 1
    for i, comp in enumerate(comps):
        if ce[i] and len(comp) - ce[i] + cf[i] != 2:
            raise EmbeddingError(
                "embedding is not planar (genus > 0): component "
                f"{list(comp)} has V={len(comp)}, E={ce[i]}, F={cf[i]}")

    if g.n == 1 and g.m == 0:
        faces.append(())  # the plane around a lone vertex
    return Embedding(g, tuple(rot), tuple(faces), face_at)


def euler_charge_identity(emb: Embedding) -> Fraction:
    """Total initial charge of the girth-7 scheme; always exactly -14.

    Vertices start at ``5/2*deg - 7`` and faces at ``deg - 7``; summing
    over a connected planar embedding gives ``7(E - V - F) = -14`` by
    Euler's formula.  Disconnected input is rejected.
    """
    g = emb.graph
    if len(g.components()) != 1:
        raise ValueError(
            "the charge identity needs a connected embedding")
    # sum(5/2*deg - 7) = 5E - 7V and sum(len - 7) = 2E - 7F
    total = Fraction(7 * (g.m - g.n - len(emb.faces)))
    if total != -14:  # pragma: no cover - implied by the Euler check
        raise AssertionError(f"charge identity broke: {total} != -14")
    return total


@dataclass(frozen=True)
class Transfer:
    """One charge movement: ``amount`` from ``source`` to ``sink``."""

    source: Element
    sink: Element
    amount: Fraction
    rule: str


@dataclass(frozen=True, eq=False)
class ChargeLedger:
    """Initial charges, the applied transfers, and audit findings.

    All rules are applied simultaneously against the frozen initial
    classification — transfers never cascade.  Conservation
    (``total_final == total_initial``) holds by construction and is
    re-checked by :func:`audit_mad` and :func:`audit_girth7`.
    """

    initial: dict[Element, Fraction]
    transfers: tuple[Transfer, ...]
    findings: tuple[str, ...] = ()

    def final(self) -> dict[Element, Fraction]:
        out = dict(self.initial)
        for t in self.transfers:
            out[t.source] -= t.amount
            out[t.sink] += t.amount
        return out

    def total_initial(self) -> Fraction:
        return sum(self.initial.values(), start=Fraction(0))

    def total_final(self) -> Fraction:
        return sum(self.final().values(), start=Fraction(0))

    def conserved(self) -> bool:
        return self.total_initial() == self.total_final()


def apply_rules_mad(g: Graph) -> ChargeLedger:
    """Charge rules of the sparse pipeline: vertices start at ``deg - 3``.

    A 4-vertex with exactly one degree-2 neighbor sends it 1; a 4-vertex
    with exactly two degree-2 neighbors sends each 1/2.
    """
    initial: dict[Element, Fraction] = {
        ("v", v): Fraction(g.degree(v) - 3) for v in range(g.n)}
    pays = {1: (Fraction(1), "R1"), 2: (Fraction(1, 2), "R2")}
    transfers: list[Transfer] = []
    for v in range(g.n):
        if g.degree(v) == 4 and (pay := pays.get(count_twos(g, v))):
            transfers.extend(Transfer(("v", v), ("v", u), *pay)
                             for u in g.adj[v] if g.degree(u) == 2)
    return ChargeLedger(initial, tuple(transfers))


def apply_rules_girth7(emb: Embedding) -> ChargeLedger:
    """Charge rules of the girth-7 pipeline over a planar embedding.

    Vertices start at ``5/2*deg - 7``, faces at ``deg - 7``.  Rules R1-R5
    are sender-driven (faces and low-degree-2-heavy 4-vertices pay their
    weak neighbors); R6-R10 route payments to a 2-vertex based on the
    degrees and degree-2 neighbor counts of its two neighbors.  A 2-vertex
    no rule pays is reported as an ``uncovered case`` finding — on inputs
    satisfying the pipeline's hypotheses those profiles are exactly the
    reducible ones.
    """
    g = emb.graph
    initial: dict[Element, Fraction] = {
        ("v", v): Fraction(5, 2) * g.degree(v) - 7 for v in range(g.n)}
    for i, walk in enumerate(emb.faces):
        initial[("f", i)] = Fraction(len(walk) - 7)
    twos = [count_twos(g, v) for v in range(g.n)]
    transfers: list[Transfer] = []

    def send(src: Element, dst: Element, amount: Fraction, rule: str):
        transfers.append(Transfer(src, dst, amount, rule))

    for v in range(g.n):
        if g.degree(v) == 1:
            u = g.adj[v][0]
            send(("f", emb.face_of(v, u)), ("v", v), Fraction(2), "R1")
            send(("v", u), ("v", v), Fraction(5, 2), "R2")

    # a 4-vertex with no or four degree-2 neighbors pays nothing
    pays = {1: (Fraction(3), "R3"), 2: (Fraction(3, 2), "R4"),
            3: (Fraction(1), "R5")}
    for v in range(g.n):
        if g.degree(v) == 4 and (pay := pays.get(twos[v])):
            for u in g.adj[v]:
                if g.degree(u) == 2:
                    send(("v", v), ("v", u), *pay)

    received = {t.sink for t in transfers}
    findings: list[str] = []
    for v in range(g.n):
        if g.degree(v) != 2:
            continue
        got_conditional = False
        a, b = g.adj[v]
        for u, w in ((a, b), (b, a)):
            ku, kw = g.degree(u), g.degree(w)
            if ku >= 5:
                if kw == 2:
                    send(("v", u), ("v", v), Fraction(2), "R6")
                    got_conditional = True
                elif kw == 3 and twos[w] == 1:
                    send(("v", u), ("v", v), Fraction(3, 2), "R8")
                    send(("v", w), ("v", v), Fraction(1, 2), "R8")
                    got_conditional = True
                elif kw == 3 and twos[w] == 2:
                    send(("v", u), ("v", v), Fraction(2), "R9")
                    got_conditional = True
                elif kw >= 4:
                    send(("v", u), ("v", v), Fraction(1), "R10")
                    got_conditional = True
            elif ku == 4 and twos[u] == 2 and kw == 3 and twos[w] == 1:
                send(("v", w), ("v", v), Fraction(1, 2), "R7")
                got_conditional = True
        if not got_conditional and ("v", v) not in received:
            findings.append(
                f"uncovered case: 2-vertex {v} with neighbor profile "
                f"(k={g.degree(a)},t={twos[a]}) / "
                f"(k={g.degree(b)},t={twos[b]}) matches no rule")

    return ChargeLedger(initial, tuple(transfers), tuple(findings))


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Ledger, negatives, and the detector cross-reference.

    ``negatives`` lists every element whose final charge is below zero;
    ``plan`` is what the matching detector found on the same graph, and
    ``plan_touches`` says for each negative element whether the plan's
    deleted vertex lies in its closed neighborhood (for faces: on the
    face).  ``identity_total`` is the total initial charge: the sum
    ``2|E| - 3|V|`` for the sparse scheme, exactly -14 for the planar one.
    """

    ledger: ChargeLedger
    identity_total: Fraction
    negatives: tuple[tuple[Element, Fraction], ...]
    plan: ReductionPlan | None
    plan_touches: tuple[tuple[Element, bool], ...]
    notes: tuple[str, ...]


def audit_mad(g: Graph) -> AuditReport:
    """Run the sparse charge scheme and cross-reference its detector.

    Runnable outside the pipeline's hypotheses: a maximum degree above 4
    or a nonnegative total charge is a note, not a rejection.
    """
    notes: list[str] = []
    delta = g.max_degree()
    identity = Fraction(mad_deficit_sum(g))
    if delta > 4:
        notes.append(f"maximum degree {delta} exceeds 4")
    if identity >= 0 and g.n:  # mad is undefined on the empty graph
        notes.append(
            f"total initial charge {identity} is not negative, so the "
            f"maximum average degree is at least 3")
    return _report(g, (), apply_rules_mad(g), identity,
                   find_reducible_mad(g), notes)


def audit_girth7(emb: Embedding, delta_cap: int | None = None) -> AuditReport:
    """Run the girth-7 charge scheme and cross-reference its detector at
    ``delta_cap`` (default ``max(4, maximum degree)``).

    Girth below 7, or a degree above the cap (then with no plan), is a
    note; a cap below 4 or a disconnected embedding raises ValueError.
    """
    g = emb.graph
    cap, over = _girth7_cap(g, delta_cap)
    ledger = apply_rules_girth7(emb)
    identity = euler_charge_identity(emb)
    notes: list[str] = []
    got_girth = graph_girth(g, limit=7)
    if got_girth < 7:
        notes.append(f"girth {got_girth} is below 7")
    if over:
        notes.append(over)
    plan = None if over else find_reducible_girth7(g, cap)
    return _report(g, emb.faces, ledger, identity, plan, notes)


def _report(g: Graph, faces: Sequence[Sequence[tuple[int, int]]],
            ledger: ChargeLedger, identity: Fraction,
            plan: ReductionPlan | None, notes: list[str]) -> AuditReport:
    """The audits' shared tail: check conservation, append the ledger's
    findings to ``notes``, and list the negatives and what ``plan``
    touches of them (face elements index ``faces``)."""
    final = ledger.final()
    if (sum(final.values(), start=Fraction(0))
            != ledger.total_initial()):  # pragma: no cover - by construction
        raise AssertionError("charge transfers broke conservation")
    notes.extend(ledger.findings)

    negatives = tuple((el, q) for el, q in sorted(final.items())
                      if q < 0)
    touches = []
    for el, _ in negatives:
        hit = False
        if plan is not None:
            kind, i = el
            if kind == "v":
                hit = (plan.delete_vertex == i
                       or plan.delete_vertex in g.adj[i])
            else:
                hit = any(plan.delete_vertex in pair for pair in faces[i])
        touches.append((el, hit))
    return AuditReport(ledger, identity, negatives, plan, tuple(touches),
                       tuple(notes))
