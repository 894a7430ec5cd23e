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

from .graph import Graph, GraphError, _min_first, build_graph

ColorLists = dict[int, frozenset[int]]


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


def _ints(parts: list[str], lineno: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {parts!r}") from None


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_instance(text: str) -> InstanceFile:
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    rotations: dict[int, tuple[int, ...]] = {}
    rotation_lines: dict[int, int] = {}
    list_records: list[tuple[int, int, int, frozenset[int]]] = []
    properties: dict[str, str] = {}

    for lineno, parts in _tokens(text):
        kind, rest = parts[0], parts[1:]
        if kind == "v":
            if declared_n is not None:
                raise ParseError(lineno, "repeated v record")
            if len(rest) != 1:
                raise ParseError(lineno, "v takes one count")
            (declared_n,) = _ints(rest, lineno)
            if declared_n < 0:
                raise ParseError(lineno, "negative vertex count")
        elif kind == "e":
            if len(rest) != 2:
                raise ParseError(lineno, "e takes two endpoints")
            u, v = _ints(rest, lineno)
            key = (min(u, v), max(u, v))
            if key in edge_lines:
                raise ParseError(
                    lineno, f"edge {u} {v} already given on line "
                    f"{edge_lines[key]}")
            if u == v:
                raise ParseError(lineno, f"self-loop at {u}")
            edge_lines[key] = lineno
            edges.append((u, v))
        elif kind == "r":
            if len(rest) < 2 or rest[1] != ":":
                raise ParseError(lineno, "r syntax is: r U : A B ...")
            (u,) = _ints(rest[:1], lineno)
            if u in rotations:
                raise ParseError(lineno, f"repeated rotation for {u}")
            rotations[u] = tuple(_ints(rest[2:], lineno))
            rotation_lines[u] = lineno
        elif kind == "l":
            if len(rest) < 3 or rest[2] != ":":
                raise ParseError(lineno, "l syntax is: l U V : C1 C2 ...")
            u, v = _ints(rest[:2], lineno)
            colors = frozenset(_ints(rest[3:], lineno))
            list_records.append((lineno, u, v, colors))
        elif kind == "p":
            if len(rest) != 2:
                raise ParseError(lineno, "p takes a key and a value")
            if rest[0] in properties:
                raise ParseError(lineno, f"repeated property {rest[0]}")
            properties[rest[0]] = rest[1]
        else:
            raise ParseError(lineno, f"unknown record type {kind!r}")

    explicit = range(declared_n) if declared_n is not None else None
    try:
        g = build_graph(edges, vertices=explicit)
    except GraphError as exc:
        raise ParseError(0, str(exc)) from None
    if declared_n is not None:
        for u, v in edges:
            if not (0 <= u < declared_n and 0 <= v < declared_n):
                raise ParseError(
                    edge_lines[min(u, v), max(u, v)],
                    f"edge {u} {v} outside declared range 0..{declared_n - 1}")

    def vid(label: int, lineno: int) -> int:
        try:
            return g.vertex_of_label(label)
        except GraphError:
            raise ParseError(lineno, f"unknown vertex {label}") from None

    rotation = None
    if rotations:
        known = set(g.labels)
        for label in rotations:
            if label not in known:
                raise ParseError(rotation_lines[label],
                                 f"rotation for unknown vertex {label}")
        rows: list[tuple[int, ...]] = []
        for w in range(g.n):
            label = g.labels[w]
            if label in rotations:
                # rotations are written in label space; map and sanity-check
                lineno = rotation_lines[label]
                mapped = [vid(x, lineno) for x in rotations[label]]
                if sorted(mapped) != sorted(g.adj[w]):
                    raise ParseError(
                        lineno, f"rotation at {label} does not list its "
                        f"neighbors exactly once")
                rows.append(tuple(mapped))
            else:
                rows.append(g.adj[w])  # any cyclic order; unique for deg <= 2
        rotation = tuple(rows)

    lists: ColorLists | None = None
    if list_records:
        lists = {}
        for lineno, u, v, colors in list_records:
            try:
                e = g.edge_id(vid(u, lineno), vid(v, lineno))
            except GraphError:
                raise ParseError(lineno, f"no edge {u} {v}") from None
            if e in lists:
                raise ParseError(lineno, f"repeated list for edge {u} {v}")
            lists[e] = colors

    if "delta" in properties:
        try:
            cap = int(properties["delta"])
        except ValueError:
            raise ParseError(0, "property delta must be an integer") from None
        if g.max_degree() > cap:
            raise ParseError(
                0, f"declared delta {cap} but the graph has a vertex of "
                f"degree {g.max_degree()}")

    return InstanceFile(g, rotation, lists, properties)


def serialize_instance(inst: InstanceFile) -> str:
    g = inst.graph
    out = [f"v {g.n}"] if g.labels == tuple(range(g.n)) else []
    if not out:
        # labels are not dense; fall back to listing nothing and letting
        # edges imply the vertex set (isolated labeled vertices would be
        # lost, so refuse those instead of silently dropping them)
        degs = [v for v in range(g.n) if g.degree(v) == 0]
        if degs:
            raise ValueError(
                "cannot serialize isolated vertices with sparse labels: "
                f"{[g.labels[v] for v in degs]}")
    for key in sorted(inst.properties):
        out.append(f"p {key} {inst.properties[key]}")
    for e in range(g.m):
        a, b = g.label_pair(e)
        out.append(f"e {a} {b}")
    if inst.rotation is not None:
        for w in range(g.n):
            order = _min_first(tuple(g.labels[x] for x in inst.rotation[w]))
            out.append(f"r {g.labels[w]} : " + " ".join(map(str, order)))
    if inst.lists is not None:
        for e in sorted(inst.lists):
            a, b = g.label_pair(e)
            colors = " ".join(map(str, sorted(inst.lists[e])))
            out.append(f"l {a} {b} : {colors}")
    return "\n".join(out) + "\n"


def parse_coloring(text: str, g: Graph) -> dict[int, int]:
    """Read ``c U V COLOR`` lines against a known graph."""
    coloring: dict[int, int] = {}
    for lineno, parts in _tokens(text):
        if parts[0] != "c" or len(parts) != 4:
            raise ParseError(lineno, "coloring lines are: c U V COLOR")
        u, v, color = _ints(parts[1:], lineno)
        try:
            e = g.edge_id(g.vertex_of_label(u), g.vertex_of_label(v))
        except GraphError:
            raise ParseError(lineno, f"no edge {u} {v}") from None
        if e in coloring:
            raise ParseError(lineno, f"edge {u} {v} colored twice")
        coloring[e] = color
    return coloring


def serialize_coloring(g: Graph, coloring: dict[int, int]) -> str:
    out = []
    for e in sorted(coloring):
        a, b = g.label_pair(e)
        out.append(f"c {a} {b} {coloring[e]}")
    return "\n".join(out) + "\n"
