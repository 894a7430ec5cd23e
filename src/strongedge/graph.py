"""Immutable simple graphs with dense vertex ids and stable edge ids.

Vertices are the integers ``0 .. n-1`` internally.  When a graph is built
from arbitrary integer labels the original labels are kept in a side table
(``Graph.labels``) so reports can speak the caller's language.  Edges get
ids ``0 .. m-1`` assigned in sorted order of their endpoint pairs, which
makes the id assignment canonical: it does not depend on the order edges
were supplied in.  :class:`PeelState` is the one mutable view: a component
that the reduction engine deletes vertices from, in the graph's own ids.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

INFINITY = float("inf")
"""Sentinel girth for forests (graphs with no cycle)."""


class GraphError(ValueError):
    """Raised for malformed graph input (self-loops, bad vertex refs)."""


class Graph:
    """A finite undirected simple graph, immutable after construction.

    Use :func:`build_graph` to create instances.  Attributes:

    - ``n``: number of vertices (dense ids ``0..n-1``)
    - ``labels``: tuple mapping dense id -> original label
    - ``edge_at``: tuple of per-vertex dicts, neighbor -> edge id, so
      ``edge_at[u][v]`` is the id of edge ``uv``
    - ``adj``: tuple of sorted neighbor tuples (the keys of ``edge_at``)
    - ``edges``: tuple of ``(u, v)`` pairs with ``u < v``, indexed by edge id
    """

    __slots__ = ("n", "labels", "adj", "edges", "edge_at", "_label_index")

    def __init__(self, n: int, labels: tuple[int, ...],
                 edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.labels = labels
        self.edges = edges
        edge_at: list[dict[int, int]] = [{} for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            edge_at[u][v] = i
            edge_at[v][u] = i
        self.edge_at = tuple(edge_at)
        # edges come sorted, so each vertex's neighbors arrive ascending
        self.adj = tuple(map(tuple, edge_at))
        self._label_index = dict(zip(labels, range(n)))

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of the pair ``{u, v}``; raises GraphError if absent."""
        e = self.edge_at[u].get(v) if 0 <= u < self.n else None
        if e is None:
            raise GraphError(f"no edge between vertices {u} and {v}")
        return e

    def vertex_of_label(self, label: int) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def label_pair(self, e: int) -> tuple[int, int]:
        """Endpoints of edge ``e`` expressed as original labels, sorted:
        ids follow label order and every edge is stored with ``u < v``."""
        u, v = self.edges[e]
        return self.labels[u], self.labels[v]

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted tuples of vertex ids."""
        seen = [False] * self.n
        out: list[tuple[int, ...]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            for x in comp:  # grows while read: breadth-first order
                for y in self.adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
            out.append(tuple(sorted(comp)))
        return out

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertex ids (labels preserved)."""
        vs = sorted(set(vertices))
        for v in vs:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} out of range")
        inset = set(vs)
        pairs = [(self.labels[a], self.labels[b]) for (a, b) in self.edges
                 if a in inset and b in inset]
        return build_graph(pairs, vertices=[self.labels[v] for v in vs])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def _min_first(order: tuple[int, ...]) -> tuple[int, ...]:
    """A cyclic order rotated to start at its smallest entry."""
    if not order:
        return ()
    k = order.index(min(order))
    return order[k:] + order[:k]


def build_graph(edge_pairs: Iterable[tuple[int, int]],
                vertices: Sequence[int] | None = None) -> Graph:
    """Build a :class:`Graph` from labeled edge pairs.

    The vertex set is the union of all endpoints plus the optional explicit
    ``vertices`` list (which is how isolated vertices get in).  Labels may
    be any integers; internally they are mapped to dense ids in sorted
    label order.  Duplicate edges are merged; a self-loop is rejected with
    an error naming the offending pair.
    """
    # a dict, not a set: it keeps the given order, which is often sorted
    # already, and both the walk and the sort below are then much cheaper
    pairs: dict[tuple[int, int], None] = {}
    for (a, b) in edge_pairs:
        if a < b:
            pairs[a, b] = None
        elif a > b:
            pairs[b, a] = None
        else:
            raise GraphError(f"self-loop at vertex {a} (pair ({a}, {b}))")
    label_set = set(vertices) if vertices is not None else set()
    label_set.update(chain.from_iterable(pairs))
    labels = tuple(sorted(label_set))
    n = len(labels)
    if n and (labels[0] != 0 or labels[-1] != n - 1):
        # ids follow label order, so a normalized pair stays normalized
        index = dict(zip(labels, range(n)))
        pairs = {(index[a], index[b]): None for (a, b) in pairs}
    return Graph(n, labels, tuple(sorted(pairs)))


class PeelState:
    """A set of a :class:`Graph`'s vertices, peeled in place.

    Any vertex set, in ascending id order: one component for a solve,
    every vertex for a detector call.  The reduction engine deletes
    vertices from it one at a time; it never puts one back.  Vertex and
    edge ids stay those of the graph it was made from, so plans built on
    it need no remapping.  ``adj[v]``
    lists the alive neighbors of ``v`` in ascending id order, as
    ``Graph.adj`` does; a deleted vertex has no entry.  The state answers
    the read-only queries that detectors and plans make of a graph
    (``adj``, ``degree``, ``max_degree``, ``edges``, ``edge_at``);
    ``edges`` and ``edge_at`` are the graph's, so read them only for
    edges found through ``adj``.
    ``max_degree`` is the maximum over the alive vertices, kept from
    per-degree counts in O(1) amortized time.
    """

    __slots__ = ("adj", "edges", "edge_at", "_count", "_max")

    def __init__(self, g: Graph, vertices: Iterable[int]):
        self.adj = {v: list(g.adj[v]) for v in vertices}
        self.edges = g.edges
        self.edge_at = g.edge_at
        self._max = max((len(a) for a in self.adj.values()), default=0)
        self._count = [0] * (self._max + 1)
        for a in self.adj.values():
            self._count[len(a)] += 1

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return self._max

    def ball(self, v: int, radius: int) -> list[list[int]]:
        """``out[r]`` lists the alive vertices at distance ``r`` from ``v``."""
        seen = {v}
        out: list[list[int]] = [[v]]
        for _ in range(radius):
            ring = []
            for x in out[-1]:
                for y in self.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        ring.append(y)
            out.append(ring)
        return out

    def delete(self, v: int) -> None:
        """Delete ``v`` and its edges."""
        count, adj = self._count, self.adj
        nbrs = adj.pop(v)
        count[len(nbrs)] -= 1
        for w in nbrs:
            a = adj[w]
            count[len(a)] -= 1
            a.remove(v)
            count[len(a)] += 1
        while self._max and not count[self._max]:
            self._max -= 1


def count_twos(g: Graph, v: int) -> int:
    """Number of degree-2 neighbors of ``v``, in O(degree) time; a
    4-vertex with ``count_twos == 1`` is "a 4-vertex with one 2-neighbor"."""
    return sum(1 for w in g.adj[v] if g.degree(w) == 2)


def girth(g: Graph, limit: int | float = INFINITY) -> int | float:
    """Length of a shortest cycle, or ``INFINITY`` for forests.

    Every cycle lies in the 2-core, so vertices of degree below 2 are
    stripped first, repeatedly.  Then a breadth-first search runs from
    each core vertex in id order, through core vertices only, and the
    shortest cycle estimate over all searches and non-tree edges is
    exact.  After its search a start vertex is dropped from the core, and
    the vertices left with fewer than 2 core neighbors are stripped in
    turn (the pruning of Itai and Rodeh).  No shortest cycle is lost: no
    vertex of it is dropped before its smallest vertex ``s`` is searched,
    and each keeps its two cycle neighbors, so none is stripped and the
    search from ``s`` sees the whole cycle; every estimate is still a
    closed walk of ``g``.  Stripping and dropping cost O(n + m) in all.
    With a finite ``limit`` each search stops where it could only find
    cycles of length ``limit`` or more (depth 3 for ``limit=7``), so the
    cost is O(n + core * maxdeg**((limit-1)//2)): the result is the exact
    girth when that is below ``limit``, and ``INFINITY`` otherwise.
    Without a limit a forest costs O(n), and so does a cycle, whose first
    search sees all of it before the drop strips the rest.  The searches
    share three flat arrays, allocated once: ``dist`` and ``parent`` are
    valid at ``y`` only while ``seen[y]`` equals the current start
    vertex, so no array is cleared between searches.
    """
    adj = g.adj
    deg = [len(a) for a in adj]

    def strip(stack: list[int]) -> None:
        # grows while read: a vertex joins once, when its count falls to
        # 1 or as a searched start, and its neighbors lose it
        for v in stack:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)

    strip([v for v in range(g.n) if deg[v] < 2])
    # now deg[v] >= 2 exactly on the core, where it counts core neighbors
    best: int | float = limit
    dist, parent, seen = [0] * g.n, [-1] * g.n, [-1] * g.n
    for s in range(g.n):
        if deg[s] < 2:
            continue
        seen[s], dist[s], parent[s] = s, 0, -1
        queue = [s]
        for x in queue:  # grows while read: breadth-first order
            dx = dist[x]
            if 2 * dx >= best - 1:
                continue
            for y in adj[x]:
                if deg[y] < 2:
                    continue
                if seen[y] != s:
                    seen[y], dist[y], parent[y] = s, dx + 1, x
                    queue.append(y)
                elif parent[x] != y:
                    cycle = dx + dist[y] + 1
                    if cycle < best:
                        best = cycle
        deg[s] = 0
        strip([s])
    return best if best < limit else INFINITY
