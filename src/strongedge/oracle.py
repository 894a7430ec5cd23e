"""Exact strong-edge-coloring oracles for small graphs.

Ground truth for tests and cross-validation: an exact strong chromatic
index and a complete list-coloring search, both run by one backtracking
search on the conflict graph.  Both are budgeted — blowing the node
budget raises, it never returns a wrong answer.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .conflicts import conflict_graph
from .graph import Graph


class BudgetExceededError(RuntimeError):
    """The search hit its node ceiling before reaching an answer."""


@dataclass
class SearchBudget:
    """Limits for the exact searches.

    ``edge_cap`` bounds the size of graphs accepted by
    :func:`strong_chromatic_index_exact`; ``max_nodes`` bounds the number
    of search-tree nodes explored before giving up with an error.
    """

    max_nodes: int = 2_000_000
    edge_cap: int = 28
    nodes_used: int = field(default=0, init=False)

    def tick(self) -> None:
        self.nodes_used += 1
        if self.nodes_used > self.max_nodes:
            raise BudgetExceededError(
                f"search exceeded {self.max_nodes} nodes")


@dataclass(frozen=True)
class OracleResult:
    """Exact strong chromatic index with a witness coloring.

    ``witness`` maps edge id -> color id and uses exactly ``chi_s``
    colors; ``lower_bound_clique`` is the size of a greedily grown clique
    in the conflict graph (always <= ``chi_s``).
    """

    chi_s: int
    witness: dict[int, int]
    lower_bound_clique: int


def _greedy_clique(h: Graph) -> list[int]:
    """Deterministic greedy clique: high degree first, ties by id."""
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    clique: list[int] = []
    for v in order:
        if set(h.adj[v]).issuperset(clique):
            clique.append(v)
    return clique


def _search(h: Graph, lists: list[tuple[int, ...]], budget: SearchBudget,
            fresh: bool) -> dict[int, int] | None:
    """Proper-color ``h`` from per-vertex ascending color tuples, or None.

    Branching picks the vertex with the fewest admissible colors, ties
    broken by lowest id, and tries its colors in ascending order.  With
    ``fresh`` a vertex may take a color at most one above the largest used
    so far, which kills the color permutation symmetry of the uniform
    lists ``0..k-1``.  Depth-first with an explicit stack holding one
    frame per branching vertex: the vertex, an iterator over its untried
    colors and the color ceiling it was chosen under.
    """
    n, adj = h.n, h.adj
    colors: dict[int, int] = {}
    stack: list[tuple[int, Iterator[int], float]] = []
    top = 0 if fresh else math.inf
    while True:
        budget.tick()
        if len(colors) == n:
            return dict(colors)
        best_v = -1
        best_opts: list[int] = []
        for v in range(n):
            if v in colors:
                continue
            forbidden = {colors[w] for w in adj[v] if w in colors}
            opts = [c for c in lists[v] if c <= top and c not in forbidden]
            if best_v < 0 or len(opts) < len(best_opts):
                best_v, best_opts = v, opts
                if not opts:
                    break
        if best_opts:
            stack.append((best_v, iter(best_opts), top))
        while stack:
            v, untried, below = stack[-1]
            c = next(untried, None)
            if c is not None:
                colors[v] = c
                top = max(below, c + 1)
                break
            stack.pop()
            del colors[v]
        else:
            return None


def strong_chromatic_index_exact(g: Graph,
                                 budget: SearchBudget | None = None
                                 ) -> OracleResult:
    """Exact strong chromatic index of ``g`` by complete search.

    Iterates candidate color counts upward from a greedy clique lower
    bound on the conflict graph, so the first success is optimal.  Refuses
    graphs above ``budget.edge_cap`` edges.
    """
    if budget is None:
        budget = SearchBudget()
    if g.m > budget.edge_cap:
        raise ValueError(
            f"graph has {g.m} edges, above the oracle cap of "
            f"{budget.edge_cap}; raise SearchBudget.edge_cap to insist")
    if g.m == 0:
        return OracleResult(0, {}, 0)
    h = conflict_graph(g)
    clique = _greedy_clique(h)
    for k in range(len(clique), h.n + 1):
        witness = _search(h, [tuple(range(k))] * h.n, budget, fresh=True)
        if witness is not None:
            return OracleResult(k, witness, len(clique))
    raise AssertionError("coloring with one color per edge cannot fail")


def list_strong_colorable(g: Graph, lists: dict[int, frozenset[int]],
                          budget: SearchBudget | None = None
                          ) -> dict[int, int] | None:
    """Complete search for a strong edge coloring from per-edge lists.

    Returns a coloring (edge id -> color) or ``None`` if none exists.
    Every edge of ``g`` must have a list.
    """
    if budget is None:
        budget = SearchBudget()
    missing = [e for e in range(g.m) if e not in lists]
    if missing:
        raise ValueError(f"edges without a color list: {missing}")
    return _search(conflict_graph(g),
                   [tuple(sorted(lists[e])) for e in range(g.m)], budget,
                   fresh=False)


@dataclass(frozen=True)
class PropositionCheck:
    """Outcome of the small-maximum-degree sanity check."""

    ok: bool
    chi_s: int
    bound: int


def check_proposition_small_delta(g: Graph,
                                  budget: SearchBudget | None = None
                                  ) -> PropositionCheck:
    """Verify the tiny-degree bounds: chi'_s <= 1 when the maximum degree
    is at most 1, and chi'_s <= 5 when it equals 2."""
    delta = g.max_degree()
    if delta > 2:
        raise ValueError(f"maximum degree {delta} is out of scope (need <= 2)")
    bound = 1 if delta <= 1 else 5
    result = strong_chromatic_index_exact(g, budget)
    return PropositionCheck(result.chi_s <= bound, result.chi_s, bound)
