"""Seeded instance generators for tests, benchmarks, and the CLI.

Five families:

* ``cycle`` — C_n with its (unique) planar rotation.
* ``tree`` — a random tree grown by attachment, degrees capped.
* ``c5-blowup`` — five groups of ``delta/2`` vertices in a ring,
  consecutive groups joined completely.  The classic extremal example:
  every pair of edges conflicts, so it needs ``(5/4) * delta^2`` colors.
* ``sparse-mad3`` — max degree <= ``delta`` (at most 4) and maximum
  average degree certified below 3: grown from a random tree by adding
  random edges, each kept only if the maximum average degree stays
  below 3 (an exact pebble-game check, see ``density.MadBelowThree``,
  whose learned tight classes settle most refusals without a search).
* ``planar-girth7`` — a planar embedded graph with girth >= 7 and max
  degree <= ``delta``, grown from a 7-cycle by pendant insertions and by
  ears of six edges attached inside a face (both operations keep the
  rotation planar and every new cycle has length at least 7).  The faces
  are kept up to date as vertices are inserted, with a dart -> face map
  and two Fenwick trees over the vertices, each face counted at its first
  dart's smaller end (its corners, and whether it can take an ear), to
  find the k-th corner or face that ``rng`` picks.  A step sets its
  faces' counts in place, and only a vertex it saturates has the faces
  round it re-scanned, so 10^5 vertices take under two seconds, in
  memory linear in the graph however large ``delta`` is.

Everything is deterministic in ``seed``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .density import MadBelowThree
from .graph import Graph, _min_first, build_graph
from .instances import InstanceFile

FAMILIES = ("cycle", "tree", "c5-blowup", "sparse-mad3", "planar-girth7")


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    delta: int = 4
    seed: int = 0


def _cycle(n: int) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    g = build_graph([(i, (i + 1) % n) for i in range(n)])
    return g, tuple(g.adj)


def _tree(n: int, delta: int, rng: random.Random) -> Graph:
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    if n > 1 and delta < 1 or n > 2 and delta < 2:
        raise ValueError(f"cannot fit {n} tree vertices under degree {delta}")
    deg = [0] * n
    edges = []
    unsaturated = [0]  # ascending, as the draws need: ids below v, deg < delta
    for v in range(1, n):
        u = rng.choice(unsaturated)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if deg[u] == delta:
            del unsaturated[bisect_left(unsaturated, u)]
        if deg[v] < delta:
            unsaturated.append(v)
    return build_graph(edges, vertices=range(n))


def _c5_blowup(delta: int) -> Graph:
    if delta < 2 or delta % 2:
        raise ValueError(f"the blowup needs an even delta >= 2, got {delta}")
    size = delta // 2
    group = [[i * size + j for j in range(size)] for i in range(5)]
    edges = [(a, b)
             for i in range(5)
             for a in group[i]
             for b in group[(i + 1) % 5]]
    return build_graph(edges)


def _sparse_mad3(n: int, delta: int, rng: random.Random) -> Graph:
    if not 1 <= delta <= 4:
        raise ValueError(f"delta must be in 1..4, got {delta}")
    g = _tree(n, delta, rng)
    if n < 3:
        return g
    # the same predicate as "no subgraph is denser than 3 - 1/n^2", since
    # 2e(S)/|S| <= 3 - 1/|S| whenever it is below 3
    checker = MadBelowThree(n)
    for u, v in g.edges:
        checker.try_add(u, v)  # a tree always fits
    edges = list(g.edges)
    deg = [g.degree(v) for v in range(n)]
    present = set(g.edges)
    failures = 0
    while failures < 3 * n:
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if (key in present or deg[u] >= delta or deg[v] >= delta
                or not checker.try_add(u, v)):
            failures += 1
            continue
        edges.append(key)
        present.add(key)
        deg[u] += 1
        deg[v] += 1
    return build_graph(edges, vertices=range(n))


class _Fenwick:
    """Counts at integer keys, each set and the k-th unit found in
    O(log buckets) plus a walk of one bucket (Fenwick, "A new data
    structure for cumulative frequency tables", 1994).  Key ``key`` lies
    in bucket ``key // span`` of ``0 .. buckets-1``: the tree is a flat
    list over the buckets' totals, and each bucket keeps the keys ever set
    in a small dict, walked in key order at a lookup.  So memory is
    O(buckets + keys set), however large ``span`` is.  As a
    sequence it lists each key once per unit of its count, in key order;
    item ``k`` is ``(key, rank of k among that key's units)``.  So
    ``rng.choice`` draws from it exactly as from the expanded list.
    """

    def __init__(self, buckets: int, span: int):
        self.span = span
        self.tree = [0] * (buckets + 1)
        self.keys: dict[int, dict[int, int]] = {}  # bucket -> key -> count
        self.total = 0

    def set(self, key: int, count: int) -> None:
        b = key // self.span
        keys = self.keys.get(b)
        if keys is None:
            keys = self.keys[b] = {}
        amount = count - keys.get(key, 0)
        if not amount:
            return
        keys[key] = count
        self.total += amount
        tree, i = self.tree, b + 1
        size = len(tree)
        while i < size:
            tree[i] += amount
            i += i & -i

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self.total:
            raise IndexError(k)
        tree, pos = self.tree, 0
        size = len(tree) - 1
        step = 1 << (size.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= size and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        keys = self.keys[pos]  # the bucket holding unit k
        for key in sorted(keys):
            if k < keys[key]:
                break
            k -= keys[key]
        return key, k


def _planar_girth7(n: int, delta: int, rng: random.Random
                   ) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    if delta < 2:
        raise ValueError(f"delta must be at least 2, got {delta}")
    if n < 7:
        raise ValueError(f"girth 7 needs at least 7 vertices, got {n}")
    # The faces are those trace_faces would find on the graph so far, in
    # the same order and each starting at the same dart, so the draws
    # below are the ones made on freshly traced faces.  Dart (p, q) is the
    # integer (min*delta + j)*2 + (p > q), where max(p, q) is the j-th
    # larger neighbor min(p, q) got.  Every edge ends at the newest vertex,
    # so this sorts darts by (min, max, orientation), as traced faces are.
    adj: list[list[int]] = [[(i + 1) % 7, (i - 1) % 7] for i in range(7)]
    larger = [0] * n  # larger neighbors joined so far, per vertex
    into: list[list[int]] = [[] for _ in range(n)]  # darts ending there
    head: dict[int, int] = {}
    face: dict[int, int] = {}  # dart -> the first dart of its face
    walks: dict[int, list[int]] = {}  # first dart -> the face's darts
    # per face, keyed by its first dart and bucketed by that dart's smaller
    # end: its corners (darts whose head has degree below delta) and whether
    # their heads hold two distinct vertices
    corners, usable = _Fenwick(n, 2 * delta), _Fenwick(n, 2 * delta)

    def join(a: int, b: int) -> int:
        """Add the darts of edge ``a < b``; returns the one ``a -> b``."""
        d = (a * delta + larger[a]) * 2
        larger[a] += 1
        head[d], head[d + 1] = b, a
        into[b].append(d)
        into[a].append(d + 1)
        return d

    def place(walk: list[int]) -> int:
        s = walk[0]
        walks[s] = walk
        for d in walk:
            face[d] = s
        return s

    def refresh(s: int) -> None:
        heads = [x for x in map(head.__getitem__, walks[s])
                 if len(adj[x]) < delta]
        corners.set(s, len(heads))
        usable.set(s, int(bool(heads) and heads.count(heads[0]) < len(heads)))

    ring = [join(i, i + 1) for i in range(6)] + [join(0, 6) + 1]
    for s in (place(ring), place(_min_first([d ^ 1 for d in ring[::-1]]))):
        refresh(s)

    count = 7
    while count < n:
        want_ear = n - count >= 5 and rng.random() < 0.5
        grown: tuple[int, ...] = ()  # the old vertices that got an edge
        if want_ear and len(usable):
            s, _ = rng.choice(usable)
            walk = walks[s]
            ks = [k for k, d in enumerate(walk) if len(adj[head[d]]) < delta]
            k1, k2 = rng.sample(ks, 2)
            d1, d2 = walk[k1], walk[k2]
            x, y = head[d1], head[d2]
            if x != y:
                w1, w2 = head[d1 ^ 1], head[d2 ^ 1]
                path = list(range(count, count + 5))
                count += 5
                adj.extend([] for _ in range(5))
                chain = [x, *path, y]
                for a, b in zip(chain, chain[1:]):
                    if a == x:
                        adj[x].insert(adj[x].index(w1) + 1, b)
                        adj[b].append(a)
                    elif b == y:
                        adj[y].insert(adj[y].index(w2) + 1, a)
                        adj[a].append(b)
                    else:
                        adj[a].append(b)
                        adj[b].append(a)
                # The ear splits the face in two: x -> path -> y closes
                # the half from y round to x, y -> path -> x the half from
                # x round to y.  A new dart is never the smallest in its
                # face, so the half holding walk[0] keeps it as its first
                # dart, and only the other half needs a new one.
                there = [join(a, b) for a, b in zip(chain, chain[1:-1])]
                last = join(y, path[-1])
                back = [last, *(d + 1 for d in reversed(there))]
                there.append(last + 1)
                lo, hi = min(k1, k2), max(k1, k2)
                cut = walk[lo + 1:hi + 1]
                inner, outer = (there, back) if k1 < k2 else (back, there)
                walk[lo + 1:hi + 1] = inner
                for d in inner:
                    face[d] = s
                t = place(_min_first(outer + cut))
                # each half keeps its old corners, those in the cut or the
                # rest, and gets six: the path's five and x or y; the faces
                # round a vertex the ear saturates are re-scanned below
                in_cut = bisect_right(ks, hi) - bisect_right(ks, lo)
                for f, c in ((s, len(ks) - in_cut + 6), (t, in_cut + 6)):
                    corners.set(f, c)
                    usable.set(f, 1)
                grown = (x, y)
        if not grown:
            if not len(corners):
                break  # every vertex saturated; give up at current size
            s, r = rng.choice(corners)
            walk = walks[s]
            ks = [k for k, d in enumerate(walk) if len(adj[head[d]]) < delta]
            k = ks[r]
            x, w = head[walk[k]], head[walk[k] ^ 1]
            u = count
            count += 1
            adj.append([x])
            adj[x].insert(adj[x].index(w) + 1, u)
            d = join(x, u)
            walk[k + 1:k + 1] = d, d + 1
            face[d] = face[d + 1] = s
            corners.set(s, len(ks) + 2)  # the old corners, and at u and x
            usable.set(s, 1)
            grown = (x,)
        for v in grown:
            if len(adj[v]) == delta:  # its darts stop being corners
                for s in {face[d] for d in into[v]}:
                    refresh(s)
    del head, face, walks, into, corners, usable  # freed before the Graph
    edges = [(u, v) for u in range(count) for v in adj[u] if u < v]
    return (build_graph(edges, vertices=range(count)),
            tuple(tuple(a) for a in adj))


def generate(spec: GenSpec) -> InstanceFile:
    rng = random.Random(spec.seed)
    rotation: tuple[tuple[int, ...], ...] | None = None
    props = {"family": spec.family, "seed": str(spec.seed)}
    if spec.family == "cycle":
        g, rotation = _cycle(spec.n)
        props["planar"] = "1"
    elif spec.family == "tree":
        g = _tree(spec.n, spec.delta, rng)
        props["delta"] = str(spec.delta)
    elif spec.family == "c5-blowup":
        g = _c5_blowup(spec.delta)
        props["delta"] = str(spec.delta)
    elif spec.family == "sparse-mad3":
        g = _sparse_mad3(spec.n, spec.delta, rng)
        props["delta"] = str(spec.delta)
    elif spec.family == "planar-girth7":
        g, rotation = _planar_girth7(spec.n, spec.delta, rng)
        props["delta"] = str(spec.delta)
        props["planar"] = "1"
    else:
        raise ValueError(
            f"unknown family {spec.family!r}; choose from {FAMILIES}")
    return InstanceFile(g, rotation, None, props)
