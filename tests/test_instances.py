from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge import (FAMILIES, GenSpec, GraphError, InstanceFile,
                        ParseError, build_graph, generate, parse_coloring,
                        parse_instance, serialize_coloring,
                        serialize_instance)
from tests.helpers import (reference_build_graph, reference_parse_coloring,
                           reference_parse_instance)
from tests.test_cli import instance_and_coloring

BASIC = """\
# a five-cycle with one chord
v 5
p family doodle
e 0 1
e 1 2
e 2 3
e 3 4
e 0 4
e 1 3
l 0 1 : 7 8 9
r 1 : 0 2 3
"""


def test_parse_basic():
    inst = parse_instance(BASIC)
    g = inst.graph
    assert (g.n, g.m) == (5, 6)
    assert inst.properties == {"family": "doodle"}
    assert inst.lists == {g.edge_id(0, 1): frozenset({7, 8, 9})}
    assert inst.rotation[1] == (0, 2, 3)
    assert inst.rotation[0] == g.adj[0]  # unstated rows fall back to sorted


def test_blank_lines_and_comments_ignored():
    inst = parse_instance("\n\n# nothing\n  e 0 1  # trailing\n\n")
    assert inst.graph.m == 1
    assert inst.rotation is None and inst.lists is None


def test_declared_count_adds_isolated_vertices():
    inst = parse_instance("v 4\ne 0 1\n")
    assert inst.graph.n == 4
    assert inst.graph.degree(3) == 0


def test_labels_survive():
    inst = parse_instance("e 10 30\ne 30 20\n")
    g = inst.graph
    assert g.labels == (10, 20, 30)
    assert g.label_pair(g.edge_id(g.vertex_of_label(10),
                                  g.vertex_of_label(30))) == (10, 30)


def test_roundtrip_is_exact_and_canonical():
    inst = parse_instance(BASIC)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again.graph.edges == inst.graph.edges
    assert again.graph.labels == inst.graph.labels
    assert again.lists == inst.lists
    assert again.properties == inst.properties
    assert again.rotation == inst.rotation
    assert serialize_instance(again) == text  # fixpoint


def test_rotation_written_min_first():
    inst = parse_instance("e 0 1\ne 1 2\ne 1 3\nr 1 : 3 0 2\n")
    text = serialize_instance(inst)
    assert "r 1 : 0 2 3" in text
    assert parse_instance(text).rotation[1] == (3, 0, 2)[1:] + (3,)


def test_serialize_refuses_sparse_isolated():
    g = build_graph([(10, 20)], vertices=[10, 20, 99])
    with pytest.raises(ValueError, match="99"):
        serialize_instance(InstanceFile(g))


@pytest.mark.parametrize("text, line, fragment", [
    ("e 0 0\n", 1, "self-loop"),
    ("e 0 1\ne 1 0\n", 2, "already given on line 1"),
    ("q 1 2\n", 1, "unknown record"),
    ("v 3\nv 4\n", 2, "repeated v"),
    ("v 1 2\n", 1, "one count"),
    ("v -2\n", 1, "negative"),
    ("e 0\n", 1, "two endpoints"),
    ("e 0 x\n", 1, "expected integers"),
    ("e 0 1\nr 0 1\n", 2, "r syntax"),
    ("e 0 1\nr 0 : 1\nr 0 : 1\n", 3, "repeated rotation"),
    ("e 0 1\nr 5 : 0\n", 2, "rotation for unknown vertex 5"),
    ("e 0 1\ne 1 2\nr 1 : 0 0\n", 3, "neighbors exactly once"),
    ("e 0 1\ne 1 2\nr 1 : 0\n", 3, "neighbors exactly once"),
    ("e 0 1\ne 1 2\nr 1 : 0 9\n", 3, "unknown vertex 9"),
    ("e 0 1\nl 0 1\n", 2, "l syntax"),
    ("e 0 1\nl 0 2 : 4\n", 2, "unknown vertex 2"),
    ("e 0 1\ne 1 2\nl 0 2 : 4\n", 3, "no edge 0 2"),
    ("e 0 1\nl 0 1 : 4\nl 1 0 : 5\n", 3, "repeated list"),
    ("p only\n", 1, "key and a value"),
    ("p a 1\np a 2\n", 2, "repeated property a"),
    ("e 0 1\np delta x\n", 2, "must be an integer"),
    ("e 0 1\ne 0 2\ne 0 3\np delta 2\n", 4, "degree 3"),
    ("v 2\ne 0 5\n", 2, "outside declared range"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError, match=fragment) as info:
        parse_instance(text)
    assert info.value.line == line


def test_delta_property_accepts_slack():
    inst = parse_instance("e 0 1\ne 0 2\np delta 4\n")
    assert inst.properties["delta"] == "4"


def test_coloring_roundtrip():
    g = parse_instance(BASIC).graph
    coloring = {e: 3 * e + 1 for e in range(g.m)}
    text = serialize_coloring(g, coloring)
    assert parse_coloring(text, g) == coloring
    assert text.splitlines()[0] == "c 0 1 1"


@pytest.mark.parametrize("text, fragment", [
    ("paint 0 1 2\n", "c U V COLOR"),
    ("c 0 1\n", "c U V COLOR"),
    ("c 0 3 7\n", "no edge 0 3"),
    ("c 0 1 7\nc 1 0 8\n", "colored twice"),
    ("c 0 1 x\n", "expected integers"),
])
def test_coloring_errors(text, fragment):
    g = parse_instance("e 0 1\ne 1 2\n").graph
    with pytest.raises(ParseError, match=fragment):
        parse_coloring(text, g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_roundtrips(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    pairs = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.3}
    if not pairs:
        pairs = {(0, 1)}
    g = build_graph(sorted(pairs), vertices=range(n))
    lists = {e: frozenset(rng.sample(range(30), rng.randint(1, 5)))
             for e in range(g.m) if rng.random() < 0.5} or None
    inst = InstanceFile(g, None, lists, {"seed": str(seed)})
    again = parse_instance(serialize_instance(inst))
    assert again.graph.edges == g.edges and again.graph.n == g.n
    assert again.lists == lists
    assert again.properties == {"seed": str(seed)}


def _parsed(parse, *args):
    """What a reader makes of a file: its result, or its error's text and
    line."""
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc), exc.line


def _same_instance(got, want):
    if isinstance(want, tuple):  # a ParseError's text and line
        assert got == want
        return
    assert isinstance(got, InstanceFile)
    assert got.graph.labels == want.graph.labels
    assert got.graph.edges == want.graph.edges
    assert got.rotation == want.rotation
    assert got.lists == want.lists
    assert got.properties == want.properties


def _check_readers(instance_text, coloring_text):
    want = _parsed(reference_parse_instance, instance_text)
    got = _parsed(parse_instance, instance_text)
    _same_instance(got, want)
    if isinstance(want, InstanceFile):
        assert (_parsed(parse_coloring, coloring_text, got.graph)
                == _parsed(reference_parse_coloring, coloring_text,
                           want.graph))


@settings(max_examples=300, deadline=None)
@given(instance_and_coloring())
def test_readers_match_their_slow_twins_on_random_files(files):
    _check_readers(*files)


def _mutations(text, rng, count):
    """``count`` damaged copies of ``text``: a line dropped or repeated, a
    token replaced, or a comment added."""
    lines = text.splitlines()
    for _ in range(count):
        out = list(lines)
        k = rng.randrange(len(out))
        kind = rng.randrange(4)
        if kind == 0:
            del out[k]
        elif kind == 1:
            out.insert(rng.randrange(len(out) + 1), out[k])
        elif kind == 2:
            parts = out[k].split()
            parts[rng.randrange(len(parts))] = rng.choice(
                ["x", ":", "-1", "7", "1.5", str(rng.randrange(60))])
            out[k] = " ".join(parts)
        else:
            out[k] += rng.choice([" # note", "#", " #e 0 0"])
        yield "\n".join(out) + "\n"


@pytest.mark.parametrize("family", FAMILIES)
def test_readers_match_their_slow_twins_on_generated_files(family):
    # seeded files of every family, with lists on some edges and a
    # coloring, read whole and after random damage
    for seed in range(3):
        inst = generate(GenSpec(family, 30, delta=4, seed=seed))
        g = inst.graph
        rng = random.Random(seed)
        lists = {e: frozenset(rng.sample(range(-5, 30), rng.randint(0, 6)))
                 for e in range(g.m) if rng.random() < 0.6}
        text = serialize_instance(
            InstanceFile(g, inst.rotation, lists or None, inst.properties))
        coloring = serialize_coloring(
            g, {e: rng.randrange(12) for e in range(g.m)})
        _check_readers(text, coloring)
        for bad_text, bad_coloring in zip(_mutations(text, rng, 40),
                                          _mutations(coloring, rng, 40)):
            _check_readers(bad_text, coloring)
            _check_readers(text, bad_coloring)


LABELS = st.integers(-6, 12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(LABELS, LABELS), max_size=25),
       st.one_of(st.none(), st.lists(LABELS, max_size=8)),
       st.booleans())
def test_build_graph_matches_its_slow_twin(pairs, vertices, dense):
    # negative labels, gaps, isolated vertices, reversed and repeated
    # pairs; ``dense`` shifts every label so that they form 0..n-1
    if dense:
        used = sorted({x for p in pairs for x in p} | set(vertices or ()))
        shift = dict(zip(used, range(len(used))))
        pairs = [(shift[a], shift[b]) for a, b in pairs]
        vertices = None if vertices is None else [shift[x] for x in vertices]
    try:
        want = reference_build_graph(pairs, vertices)
    except GraphError as exc:
        with pytest.raises(GraphError) as info:
            build_graph(pairs, vertices)
        assert str(info.value) == str(exc)
        return
    got = build_graph(pairs, vertices)
    assert got.labels == want.labels
    assert got.edges == want.edges
    assert got.edge_at == want.edge_at
