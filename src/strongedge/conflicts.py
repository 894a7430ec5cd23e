"""Distance-two conflicts between edges.

Two distinct edges conflict when they cannot share a color in a strong
edge coloring: for an edge ``uv``, every edge incident to a vertex of
``N(u) | N(v)`` conflicts with it.  Because ``u`` and ``v`` are adjacent,
that vertex set contains ``u`` and ``v`` themselves, so edges sharing an
endpoint with ``uv`` are conflicts too — adjacency is the distance-one
special case of "within distance two" and needs no separate handling.
"""

from __future__ import annotations

from .graph import Graph


def edges_within_distance_two(g: Graph, e: int) -> frozenset[int]:
    """Edge ids conflicting with edge ``e`` (excluding ``e`` itself), in a
    graph or, over its alive edges only, in a peel state."""
    u, v = g.edges[e]
    adj, edge_at = g.adj, g.edge_at
    out: set[int] = set()
    for w in {*adj[u], *adj[v]}:
        out.update(map(edge_at[w].__getitem__, adj[w]))
    out.discard(e)
    return frozenset(out)


def conflict_rows(g: Graph) -> tuple[tuple[int, ...], ...]:
    """For each edge id, the ascending ids of the edges conflicting with it.

    Each vertex ``x`` gets one reach set, the ids of the edges at the
    neighbors of ``x``, so each star is merged once per vertex; the row of
    ``e = uv`` is then a new set ``reach[u] | reach[v]`` less ``e``.

    These are the neighbor tuples of the conflict graph on the edge ids: a
    strong edge coloring of ``g`` is exactly a proper coloring of it.
    """
    adj, edge_at = g.adj, g.edge_at
    reach = []
    for a in adj:
        r: set[int] = set()
        for w in a:
            r.update(edge_at[w].values())
        reach.append(r)
    rows = []
    for e, (u, v) in enumerate(g.edges):
        out = reach[u] | reach[v]
        out.discard(e)
        rows.append(tuple(sorted(out)))
    return tuple(rows)
