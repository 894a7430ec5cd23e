"""Maximum average degree, exactly.

``mad(g)`` is the maximum of ``2*|E(H)| / |V(H)|`` over nonempty vertex
subsets ``H``.  Everything here is exact rational arithmetic — thresholds
and densities are :class:`fractions.Fraction` values, and the subgraph
decision problem is solved by an integer-capacity maximum flow after
clearing denominators, never by floating point.  :func:`mad` finds the
exact maximum by Dinkelbach's iteration over that flow (Goldberg, "Finding
a maximum density subgraph", 1984), typically in one to four flow runs.

The yes/no question ``mad(g) < 3`` that the sparse pipeline and its
generator ask has a cheaper, incremental answer: :class:`MadBelowThree`
plays the (3,1)-pebble game of Lee and Streinu on the doubled multigraph.
An edge goes in, both copies at once, when its ends gather 3 free
pebbles.  A search that fails while they hold fewer than 2 proves the set
it visited tight (Lee and Streinu's failed-search lemma); one that fails
at 2 proves nothing.  The game keeps the tight sets as union-find classes,
allocated at the first such refusal, and refuses a pair inside one
without searching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphError

@dataclass(frozen=True)
class DensityWitness:
    """A vertex set together with its exact density ``2e(H)/|H|``."""

    vertices: frozenset[int]
    density: Fraction

    def check(self, g: Graph) -> bool:
        """Recompute the density from ``g`` and compare."""
        h = self.vertices
        e = sum(1 for (a, b) in g.edges if a in h and b in h)
        return bool(h) and Fraction(2 * e, len(h)) == self.density


class _Dinic:
    """Small deterministic Dinic max-flow on integer capacities."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s: int) -> list[int]:
        """BFS levels from ``s`` over arcs with residual capacity, -1 where
        unreachable.  After the last flow run the reached vertices are the
        inclusion-minimal min-cut source side, which makes the witness
        extracted from them canonical for a given network."""
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for i in self.head[u]:
                v = self.to[i]
                if self.cap[i] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _augment(self, s: int, t: int, level: list[int],
                 it: list[int]) -> int:
        """Push flow along one ``s``-``t`` path of the level graph.

        Depth-first with an explicit stack of arcs, trying each vertex's
        arcs in insertion order from ``it`` on; a dead end advances its
        parent's arc pointer.  Returns the amount pushed, 0 if no path.
        """
        head, to, cap = self.head, self.to, self.cap
        path: list[int] = []
        u = s
        while u != t:
            arcs = head[u]
            while it[u] < len(arcs):
                i = arcs[it[u]]
                if cap[i] > 0 and level[to[i]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                u = to[path.pop() ^ 1]  # back to the arc's tail
                it[u] += 1
                continue
            path.append(i)
            u = to[i]
        d = min(cap[i] for i in path)
        for i in path:
            cap[i] -= d
            cap[i ^ 1] += d
        return d

    def max_flow(self, s: int, t: int) -> tuple[int, list[int]]:
        """The maximum flow value and the final BFS levels (see _bfs)."""
        flow = 0
        while True:
            level = self._bfs(s)
            if level[t] < 0:
                return flow, level
            it = [0] * self.n
            while True:
                f = self._augment(s, t, level, it)
                if f == 0:
                    break
                flow += f


def density_exceeds(g: Graph, threshold: Fraction | int
                    ) -> DensityWitness | None:
    """Does some subgraph have average degree strictly above ``threshold``?

    Returns a :class:`DensityWitness` with ``density > threshold`` when one
    exists, else ``None`` (meaning ``mad(g) <= threshold``).  Decided by a
    max-flow network with integer capacities: one node per edge fed from
    the source, infinite arcs from each edge node to its endpoints, and a
    sink arc per vertex scaled by the threshold.
    """
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if g.m == 0:
        return None  # every density is 0
    p, q = threshold.numerator, threshold.denominator
    m, n = g.m, g.n
    # edge-node supply 2q, vertex sink demand p: a vertex set H profits
    # 2q*e(H) - p*|H|, positive iff 2e(H)/|H| > p/q.
    total = 2 * q * m
    inf = total + p * n + 1
    net = _Dinic(2 + m + n)
    s, t = 0, 1
    enode = lambda e: 2 + e
    vnode = lambda v: 2 + m + v
    for e, (u, v) in enumerate(g.edges):
        net.add(s, enode(e), 2 * q)
        net.add(enode(e), vnode(u), inf)
        net.add(enode(e), vnode(v), inf)
    for v in range(n):
        net.add(vnode(v), t, p)
    flow, level = net.max_flow(s, t)
    if flow >= total:
        return None
    hverts = frozenset(v for v in range(n) if level[vnode(v)] >= 0)
    e_in = sum(1 for (a, b) in g.edges if a in hverts and b in hverts)
    witness = DensityWitness(hverts, Fraction(2 * e_in, len(hverts)))
    if witness.density <= threshold:  # pragma: no cover - flow invariant
        raise AssertionError("max-flow witness does not exceed threshold")
    return witness


def mad(g: Graph) -> DensityWitness:
    """Maximum average degree of ``g`` with a witness subgraph.

    Exact, by Dinkelbach's iteration (Newton's method on the parametric
    flow of :func:`density_exceeds`): from the density of the whole
    graph, each flow runs ``eps = 1/(2n**2)`` below the value and moves
    it to the witness's density, until that is the value.  Densities with
    denominators at most ``n`` differ by at least ``2/n**2``, so no
    witness is below the value; and a denser set ``H`` gains ``|H|(d -
    value + eps)/2 >= 1/n``, more than the ``n*eps/2`` of any set at the
    value, so the loop ends at the maximum, on the canonical witness of
    the flow at ``mad(g) - eps``.
    """
    if g.n == 0:
        raise GraphError("mad is undefined on the empty graph")
    if g.m == 0:
        return DensityWitness(frozenset({0}), Fraction(0))
    eps = Fraction(1, 2 * g.n * g.n)
    value = Fraction(2 * g.m, g.n)
    while (witness := density_exceeds(g, value - eps)).density != value:
        value = witness.density
    return witness


class MadBelowThree:
    """Incremental test of ``mad < 3``: the (3,1)-pebble game on ``2G``.

    ``mad(G) < 3`` holds exactly when every vertex set ``H`` spans
    ``2e(H) <= 3|H| - 1`` edges of the doubled multigraph ``2G``, that is,
    when ``2G`` is (3,1)-sparse (Lee and Streinu, "Pebble game algorithms
    and sparse graphs", 2008).  Every vertex owns 3 pebbles and each
    accepted edge is two directed copies, each covered by a pebble of its
    tail, so a vertex's free pebbles are ``3`` minus its out-degree.
    Both copies of ``uv`` fit exactly when ``u`` and ``v`` can gather
    3 free pebbles between them (``l + 2`` with ``l = 1``), so one round
    fetches pebbles, by reversing out-paths to a vertex that has one,
    until they hold 3, and only then inserts both copies, each from an
    end with a free pebble.

    A search round that fails leaves ``R``, the set its two searches
    visited, closed under out-arcs.  If ``u`` and ``v`` hold fewer than 2
    free pebbles, ``2G[R]`` spans ``3|R| - 1`` copies, so ``R`` is tight
    (their failed-search lemma).  Tight sets stay tight, meeting ones have
    a tight union (``l < k``) and none takes another pair, so ``tight``
    keeps them as union-find classes, allocated at the first such refusal,
    and a pair inside one is refused without a search.  A round that fails
    at 2 free pebbles proves nothing: ``R`` spans ``3|R| - 2`` copies.
    """

    def __init__(self, n: int):
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.tight: list[int] | None = None  # union-find parents

    def try_add(self, u: int, v: int) -> bool:
        """Add edge ``uv`` if ``mad`` stays below 3; else change nothing."""
        tight = self.tight
        if tight is not None and _find(tight, u) == _find(tight, v):
            return False
        out = self.out
        while len(out[u]) + len(out[v]) > 3:  # under 3 free pebbles
            seen = {u, v}
            if not (self._fetch(u, seen) or self._fetch(v, seen)):
                if len(out[u]) + len(out[v]) > 4:  # under 2: seen is tight
                    if tight is None:
                        tight = self.tight = list(range(len(out)))
                    root = _find(tight, u)
                    for x in seen:
                        tight[_find(tight, x)] = root
                return False
        for _ in range(2):
            if len(out[u]) < 3:
                out[u].append(v)
            else:
                out[v].append(u)
        return True

    def _fetch(self, root: int, seen: set[int]) -> bool:
        """Move a free pebble to ``root`` along an out-path avoiding ``seen``.

        Iterative depth-first search that adds each vertex it reaches to
        ``seen``, so a search for the other endpoint after a failed one
        skips that search's reach, which has no free pebble.  The path
        found is reversed, which frees a pebble at ``root`` and spends the
        one at its far end.
        """
        out = self.out
        path, pos = [root], [0]
        while path:
            a, i = path[-1], pos[-1]
            if i == len(out[a]):
                path.pop()
                pos.pop()
                continue
            pos[-1] = i + 1
            b = out[a][i]
            if b in seen:
                continue
            seen.add(b)
            path.append(b)
            if len(out[b]) < 3:
                for x, y, j in zip(path, path[1:], pos):
                    del out[x][j - 1]
                    out[y].append(x)
                return True
            pos.append(0)
        return False


def _find(parent: list[int], x: int) -> int:
    """Root of ``x``'s union-find class, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def mad_below_3(g: Graph) -> bool:
    """Is the maximum average degree of ``g`` below 3?  No flow needed."""
    checker = MadBelowThree(g.n)
    return all(checker.try_add(u, v) for u, v in g.edges)


def mad_deficit_sum(g: Graph) -> int:
    """``sum(deg(v) - 3) = 2|E| - 3|V|``; negative whenever ``mad(g) < 3``."""
    return 2 * g.m - 3 * g.n
