"""Plain-text instance and coloring files.

The format is line-based; ``#`` starts a comment, blank lines are
ignored.  Record types:

    v N              declare vertices 0..N-1 (optional; otherwise the
                     vertex set is the union of edge endpoints)
    e U V            an edge
    r U : A B C      cyclic neighbor order around U (an embedding)
    l U V : C1 C2    allowed colors for edge {U, V}
    p KEY VALUE      a declared property (free-form, validated where
                     understood: ``p delta K`` promises max degree <= K)

Coloring files reuse the comment rules and hold ``c U V COLOR`` lines,
which is exactly what the CLI prints, so outputs feed back into
``verify``.

Vertex names in files are labels; they survive round-trips even when
internal ids differ.  Serialization is canonical (sorted records,
rotations starting at the smallest neighbor), and ``parse`` of a
``serialize`` result reproduces the instance exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, _min_first, build_graph

ColorLists = dict[int, frozenset[int]]
"""Per-edge allowed colors: edge id -> set of color ids."""


class ParseError(ValueError):
    """A malformed instance or coloring file; carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class InstanceFile:
    """A parsed instance: graph plus optional embedding, lists, properties.

    ``rotation`` is in internal vertex ids (aligned with ``graph``),
    ``lists`` is keyed by edge id.  Both are ``None`` when the file has
    no such records.
    """

    graph: Graph
    rotation: tuple[tuple[int, ...], ...] | None = None
    lists: ColorLists | None = None
    properties: dict[str, str] = field(default_factory=dict)


def _not_ints(lineno: int, *groups: list[str]) -> ParseError:
    """The error naming the first token group that ``int`` refuses."""
    for parts in groups:
        try:
            list(map(int, parts))
        except ValueError:
            break
    return ParseError(lineno, f"expected integers, got {parts!r}")


def _ints(parts: list[str], lineno: int) -> list[int]:
    try:
        return list(map(int, parts))
    except ValueError:
        raise _not_ints(lineno, parts) from None


def parse_instance(text: str) -> InstanceFile:
    declared_n: int | None = None
    edge_lines: dict[tuple[int, int], int] = {}
    rotations: dict[int, tuple[int, ...]] = {}
    rotation_lines: dict[int, int] = {}
    list_records: list[tuple[int, int, int, frozenset[int]]] = []
    properties: dict[str, str] = {}
    delta_line = 0

    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "l":
            if len(parts) < 4 or parts[3] != ":":
                raise ParseError(lineno, "l syntax is: l U V : C1 C2 ...")
            try:
                u, v = int(parts[1]), int(parts[2])
                colors = frozenset(map(int, parts[4:]))
            except ValueError:
                raise _not_ints(lineno, parts[1:3], parts[4:]) from None
            list_records.append((lineno, u, v, colors))
        elif kind == "e":
            if len(parts) != 3:
                raise ParseError(lineno, "e takes two endpoints")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise _not_ints(lineno, parts[1:]) from None
            key = (u, v) if u < v else (v, u)
            if key in edge_lines:
                raise ParseError(
                    lineno, f"edge {u} {v} already given on line "
                    f"{edge_lines[key]}")
            if u == v:
                raise ParseError(lineno, f"self-loop at {u}")
            edge_lines[key] = lineno
        elif kind == "r":
            if len(parts) < 3 or parts[2] != ":":
                raise ParseError(lineno, "r syntax is: r U : A B ...")
            (u,) = _ints(parts[1:2], lineno)
            if u in rotations:
                raise ParseError(lineno, f"repeated rotation for {u}")
            rotations[u] = tuple(_ints(parts[3:], lineno))
            rotation_lines[u] = lineno
        elif kind == "v":
            if declared_n is not None:
                raise ParseError(lineno, "repeated v record")
            if len(parts) != 2:
                raise ParseError(lineno, "v takes one count")
            (declared_n,) = _ints(parts[1:], lineno)
            if declared_n < 0:
                raise ParseError(lineno, "negative vertex count")
        elif kind == "p":
            if len(parts) != 3:
                raise ParseError(lineno, "p takes a key and a value")
            key, value = parts[1], parts[2]
            if key in properties:
                raise ParseError(lineno, f"repeated property {key}")
            properties[key] = value
            if key == "delta":
                delta_line = lineno
        else:
            raise ParseError(lineno, f"unknown record type {kind!r}")

    # self-loops were refused above, so build_graph cannot fail here
    g = build_graph(edge_lines,
                    vertices=None if declared_n is None else range(declared_n))
    if declared_n is not None and g.n != declared_n:
        for (a, b), lineno in edge_lines.items():
            if not (0 <= a and b < declared_n):
                # the message names the endpoints in their written order
                u, v = map(int, lines[lineno - 1].split("#", 1)[0].split()[1:])
                raise ParseError(
                    lineno,
                    f"edge {u} {v} outside declared range 0..{declared_n - 1}")

    index = g._label_index
    rotation = None
    if rotations:
        for label, lineno in rotation_lines.items():
            if label not in index:
                raise ParseError(lineno,
                                 f"rotation for unknown vertex {label}")
        rows: list[tuple[int, ...]] = []
        for w, label in enumerate(g.labels):
            row = rotations.get(label)
            if row is None:
                rows.append(g.adj[w])  # any cyclic order; unique for deg <= 2
                continue
            # rotations are written in label space; map and sanity-check
            lineno = rotation_lines[label]
            mapped = tuple(map(index.get, row))
            if None in mapped:
                raise ParseError(
                    lineno, f"unknown vertex {row[mapped.index(None)]}")
            if sorted(mapped) != list(g.adj[w]):
                raise ParseError(
                    lineno, f"rotation at {label} does not list its "
                    f"neighbors exactly once")
            rows.append(mapped)
        rotation = tuple(rows)

    lists: ColorLists | None = None
    if list_records:
        lists = {}
        edge_at = g.edge_at
        for lineno, u, v, colors in list_records:
            a, b = index.get(u), index.get(v)
            if a is None or b is None:
                raise ParseError(
                    lineno, f"unknown vertex {u if a is None else v}")
            e = edge_at[a].get(b)
            if e is None:
                raise ParseError(lineno, f"no edge {u} {v}")
            if e in lists:
                raise ParseError(lineno, f"repeated list for edge {u} {v}")
            lists[e] = colors

    if "delta" in properties:
        try:
            cap = int(properties["delta"])
        except ValueError:
            raise ParseError(delta_line,
                             "property delta must be an integer") from None
        if g.max_degree() > cap:
            raise ParseError(
                delta_line, f"declared delta {cap} but the graph has a "
                f"vertex of degree {g.max_degree()}")

    return InstanceFile(g, rotation, lists, properties)


def serialize_instance(inst: InstanceFile) -> str:
    g = inst.graph
    labels, edges = g.labels, g.edges
    out = [f"v {g.n}"] if labels == tuple(range(g.n)) else []
    if not out:
        # labels are not dense; fall back to listing nothing and letting
        # edges imply the vertex set (isolated labeled vertices would be
        # lost, so refuse those instead of silently dropping them)
        degs = [v for v in range(g.n) if not g.adj[v]]
        if degs:
            raise ValueError(
                "cannot serialize isolated vertices with sparse labels: "
                f"{[labels[v] for v in degs]}")
    for key in sorted(inst.properties):
        out.append(f"p {key} {inst.properties[key]}")
    out += [f"e {labels[u]} {labels[v]}" for u, v in edges]
    if inst.rotation is not None:
        for w in range(g.n):
            order = _min_first(tuple(labels[x] for x in inst.rotation[w]))
            out.append(f"r {labels[w]} : " + " ".join(map(str, order)))
    if inst.lists is not None:
        for e in sorted(inst.lists):
            u, v = edges[e]
            colors = " ".join(map(str, sorted(inst.lists[e])))
            out.append(f"l {labels[u]} {labels[v]} : {colors}")
    return "\n".join(out) + "\n"


def parse_coloring(text: str, g: Graph) -> dict[int, int]:
    """Read ``c U V COLOR`` lines against a known graph."""
    index, edge_at = g._label_index, g.edge_at
    coloring: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "c" or len(parts) != 4:
            raise ParseError(lineno, "coloring lines are: c U V COLOR")
        try:
            u, v, color = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise _not_ints(lineno, parts[1:]) from None
        a = index.get(u)
        e = None if a is None else edge_at[a].get(index.get(v))
        if e is None:
            raise ParseError(lineno, f"no edge {u} {v}")
        if e in coloring:
            raise ParseError(lineno, f"edge {u} {v} colored twice")
        coloring[e] = color
    return coloring


def serialize_coloring(g: Graph, coloring: dict[int, int]) -> str:
    labels, edges = g.labels, g.edges
    out = []
    for e in sorted(coloring):
        u, v = edges[e]
        out.append(f"c {labels[u]} {labels[v]} {coloring[e]}")
    return "\n".join(out) + "\n"
