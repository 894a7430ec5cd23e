"""Output checks that share no code with the package being measured.

Edges are label pairs ``(a, b)`` with ``a < b``.  Two edges conflict when
they share an endpoint or an edge joins an endpoint of one to an endpoint
of the other; the checks test that definition pair by pair, which is slow
but has nothing in common with the package's conflict index.
"""

from __future__ import annotations

from collections import defaultdict


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _conflict(adj, e, f) -> bool:
    near = adj[e[0]] | adj[e[1]]  # contains e's own endpoints: e is an edge
    return f[0] in near or f[1] in near


def coloring_problems(edges, coloring: dict, lists: dict | None = None,
                      limit: int = 5) -> list[str]:
    """Why ``coloring`` (label pair -> color) is not a strong edge coloring
    of ``edges`` from ``lists`` (label pair -> allowed colors); [] if it is."""
    problems: list[str] = []
    edge_set = set(edges)
    for e in edges:
        if e not in coloring:
            problems.append(f"edge {e} uncolored")
    for e in coloring:
        if e not in edge_set:
            problems.append(f"colored pair {e} is not an edge")
    if lists is not None:
        for e, c in coloring.items():
            if e in edge_set and c not in lists[e]:
                problems.append(f"edge {e} has color {c} outside its list")
    adj = _adjacency(edges)
    classes: dict[int, list] = defaultdict(list)
    for e, c in coloring.items():
        if e in edge_set:
            classes[c].append(e)
    for c, members in classes.items():
        for i, e in enumerate(members):
            for f in members[i + 1:]:
                if _conflict(adj, e, f):
                    problems.append(f"edges {e} and {f} share color {c}")
    return problems[:limit]


def strong_chromatic_index(edges) -> int:
    """Fewest colors of a strong edge coloring, by subset dynamic
    programming over the pairwise conflict relation (small graphs only)."""
    edges = list(edges)
    m = len(edges)
    if m == 0:
        return 0
    adj = _adjacency(edges)
    mask = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and _conflict(adj, edges[i], edges[j]):
                mask[i] |= 1 << j
    full = (1 << m) - 1
    independent = [True] * (full + 1)
    for s in range(1, full + 1):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        independent[s] = independent[rest] and not mask[low] & rest
    best = [0] + [m] * full
    for s in range(1, full + 1):
        low = s & -s
        sub = s
        while sub:
            if sub & low and independent[sub]:
                best[s] = min(best[s], best[s ^ sub] + 1)
            sub = (sub - 1) & s
    return best[full]


def parse_instance_text(text: str):
    """Edges and lists (keyed by label pair) from ``e``/``l`` records."""
    edges: list[tuple[int, int]] = []
    lists: dict[tuple[int, int], frozenset[int]] = {}
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "e":
            a, b = sorted(map(int, parts[1:3]))
            edges.append((a, b))
        elif parts[0] == "l":
            a, b = sorted(map(int, parts[1:3]))
            lists[(a, b)] = frozenset(map(int, parts[4:]))
    return edges, lists


def parse_coloring_text(text: str) -> dict[tuple[int, int], int]:
    """Label pair -> color from ``c U V COLOR`` lines; ValueError on any
    other record or on an edge colored twice."""
    coloring: dict[tuple[int, int], int] = {}
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] != "c" or len(parts) != 4:
            raise ValueError(f"not a coloring line: {line!r}")
        a, b = sorted(map(int, parts[1:3]))
        if (a, b) in coloring:
            raise ValueError(f"edge {(a, b)} colored twice")
        coloring[(a, b)] = int(parts[3])
    return coloring
