"""Exact strong-edge-coloring oracles for small graphs.

Ground truth for tests and cross-validation: an exact strong chromatic
index and a complete list-coloring search, both run by one backtracking
search over the conflict rows (each edge's conflicting edges, see
:func:`conflicts.conflict_rows`).  The search works on bitmasks over the
ranks of the colors in the sorted union of the lists, so any integer
colors are accepted and returned as given.  Both are budgeted — blowing
the node budget raises, it never returns a wrong answer.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .conflicts import conflict_rows
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


def _greedy_clique(adj: tuple[tuple[int, ...], ...]) -> list[int]:
    """Deterministic greedy clique in the graph with neighbor tuples
    ``adj``: high degree first, ties by id."""
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if set(adj[v]).issuperset(clique):
            clique.append(v)
    return clique


def _search(adj: tuple[tuple[int, ...], ...], lists: list[tuple[int, ...]],
            budget: SearchBudget) -> dict[int, int] | None:
    """Proper-color the graph with neighbor tuples ``adj`` from per-vertex
    ascending tuples of distinct colors, or None.

    Branching picks the vertex with the fewest admissible colors, ties
    broken by lowest id, and tries its colors in ascending order.  When
    every vertex has the same list, a vertex tries at most one color that
    no ancestor uses: the unused colors are interchangeable, so once one
    fails below it they all fail.  That prunes only subtrees without a
    solution, and the vertex order never depends on it, so the search
    returns what it would without pruning after visiting a subset of the
    same nodes.  On the lists ``0..k-1`` the colors used always form a
    prefix, so a vertex tries the used colors and the lowest unused one,
    which kills the color permutation symmetry of the exact index.

    Colors are searched as their ranks in the sorted union of the lists
    (the same order, so the same tree node for node) and mapped back on
    return, so any integers work; a vertex's admissible colors are one
    ``int`` bitmask.  When every list is one tuple, that tuple is the
    palette and every mask starts all ones; otherwise each distinct list's
    mask is computed once from the ranks.  Depth-first with an
    explicit stack of one frame per branching vertex: the vertex, its
    untried colors, every vertex's mask before it was colored, the
    vertices left after it, its color and ``seen``, the colors its
    ancestors use (all ones when the lists differ).  Coloring copies the
    masks, so backtracking restores nothing.
    """
    distinct = set(lists)
    if len(distinct) == 1:
        palette, = distinct
        avail = [(1 << len(palette)) - 1] * len(lists)
        seen = 0
    else:
        palette = sorted(set().union(*distinct))
        rank = {c: r for r, c in enumerate(palette)}
        masks = {cs: sum(1 << rank[c] for c in cs) for cs in distinct}
        avail = list(map(masks.__getitem__, lists))
        seen = -1
    stack: list[list] = []
    rest = tuple(range(len(adj)))
    while True:
        budget.tick()
        if not rest:
            return {frame[0]: palette[frame[4]] for frame in stack}
        best_v, best_k = -1, len(palette) + 1
        for v in rest:
            k = avail[v].bit_count()
            if k < best_k:
                best_v, best_k = v, k
                if not k:
                    break
        if best_k:
            i = rest.index(best_v)
            stack.append([best_v, avail[best_v], avail,
                          rest[:i] + rest[i + 1:], -1, seen])
        while stack:
            frame = stack[-1]
            v, untried, before, left, _, seen = frame
            if untried:
                low = untried & -untried
                # past the first unused color, only used ones stay to try
                frame[1] = untried ^ low if low & seen else untried & seen
                frame[4] = low.bit_length() - 1
                seen |= low
                avail = before[:]
                clear = ~low
                for w in adj[v]:
                    avail[w] &= clear
                rest = left
                break
            stack.pop()
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
    rows = conflict_rows(g)
    clique = _greedy_clique(rows)
    for k in range(len(clique), g.m + 1):
        witness = _search(rows, [tuple(range(k))] * g.m, budget)
        if witness is not None:
            return OracleResult(k, witness, len(clique))
    raise AssertionError("coloring with one color per edge cannot fail")


def list_strong_colorable(g: Graph, lists: dict[int, Iterable[int]],
                          budget: SearchBudget | None = None
                          ) -> dict[int, int] | None:
    """Complete search for a strong edge coloring from per-edge lists.

    Returns a coloring (edge id -> color) or ``None`` if none exists.
    Every edge of ``g`` must have a list: any iterable of ints, in any
    order, repeats allowed (a repeated color counts once).  When every
    list holds the same colors, the search skips colorings that differ
    only by renaming colors no edge uses yet; it returns the same answer,
    in fewer nodes.

    Memory grows with the depth of the search: each level keeps its own
    copy of the per-edge color masks, about ``16*m*d`` bytes at depth
    ``d`` on ``m`` edges.  A search that colors a 4000-edge path peaks
    near 187 MB, so keep long inputs away from it.
    """
    if budget is None:
        budget = SearchBudget()
    missing = [e for e in range(g.m) if e not in lists]
    if missing:
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise ValueError(f"edges without a color list: {missing[:10]}{more}")
    colors = [tuple(sorted(set(lists[e]))) for e in range(g.m)]
    return _search(conflict_rows(g), colors, budget)


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
