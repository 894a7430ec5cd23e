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
  below 3 (an exact pebble-game check, see ``density.MadBelowThree``).
* ``planar-girth7`` — a planar embedded graph with girth >= 7 and max
  degree <= ``delta``, grown from a 7-cycle by pendant insertions and by
  ears of six edges attached inside a traced face (both operations keep
  the rotation planar and every new cycle has length at least 7).

Everything is deterministic in ``seed``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .density import MadBelowThree
from .discharge import trace_faces
from .graph import Graph, build_graph
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


def _planar_girth7(n: int, delta: int, rng: random.Random
                   ) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    if delta < 2:
        raise ValueError(f"delta must be at least 2, got {delta}")
    if n < 7:
        raise ValueError(f"girth 7 needs at least 7 vertices, got {n}")
    count = 7
    adj: list[list[int]] = [[(i + 1) % 7, (i - 1) % 7] for i in range(7)]

    def rebuild() -> tuple[Graph, tuple[tuple[int, ...], ...]]:
        edges = [(u, v) for u in range(count) for v in adj[u] if u < v]
        g = build_graph(edges, vertices=range(count))
        rotation = tuple(tuple(adj[v]) for v in range(count))
        return g, rotation

    g, rotation = rebuild()
    emb = trace_faces(g, rotation)

    while count < n:
        remaining = n - count
        corners = [(fi, k)
                   for fi, walk in enumerate(emb.faces)
                   for k, (_, x) in enumerate(walk)
                   if len(adj[x]) < delta]
        want_ear = remaining >= 5 and rng.random() < 0.5
        did = False
        if want_ear and corners:
            by_face: dict[int, list[int]] = {}
            for fi, k in corners:
                by_face.setdefault(fi, []).append(k)
            usable = [fi for fi, ks in by_face.items()
                      if len({emb.faces[fi][k][1] for k in ks}) >= 2]
            if usable:
                fi = rng.choice(usable)
                walk = emb.faces[fi]
                k1, k2 = rng.sample(by_face[fi], 2)
                (w1, x), (w2, y) = walk[k1], walk[k2]
                if x != y:
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
                    did = True
        if not did:
            if not corners:
                break  # every vertex saturated; give up at current size
            fi, k = rng.choice(corners)
            w, x = emb.faces[fi][k]
            u = count
            count += 1
            adj.append([x])
            adj[x].insert(adj[x].index(w) + 1, u)
        g, rotation = rebuild()
        emb = trace_faces(g, rotation)
    return g, rotation


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
