"""Independent reference implementations used to validate the package.

Everything here is deliberately written with *different* algorithms than
the library: brute-force subset enumeration instead of max-flow, binary
search over thresholds instead of Dinkelbach's iteration, edge-deletion
BFS instead of cross-edge girth detection, independent-set DP instead of
backtracking color search, the textbook definition of a strong edge
coloring instead of precomputed conflict sets, a graph rebuilt at every
peel level instead of one mutable peel state, a full scan for each plan
instead of per-tag heaps, faces re-traced after every insertion instead
of kept incrementally, color sets rebuilt at every search node instead
of bitmasks over color ranks and with no pruning of twin colors, a
conflict graph relabelled through ``build_graph`` instead of built
directly, whole conflict sets instead of degree
sums (G1) or stars counted in place (each extension step), and a pebble
game that searches for every pair instead of refusing pairs inside the
tight sets its failed searches proved, and file readers and a graph
builder that copy and look up every record and edge instead of reading
each once.  Slow but obviously correct, and only run on small inputs.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from strongedge import (ClaimTag, DensityWitness, ExtensionError,
                        ExtensionRecord, Graph, GraphError, HypothesisError,
                        InstanceFile, ParseError, ReductionPlan, SolveReport,
                        TheoremViolationError, build_graph, density_exceeds,
                        edges_within_distance_two, girth, mad, trace_faces,
                        verify_strong)
from strongedge.colorer import extend
from strongedge.reducer import ExtensionStep

Edge = tuple[int, int]


def naive_conflicts(edges: list[Edge], e: int) -> set[int]:
    """Edges at distance <= 2 from ``edges[e]``, straight from the definition."""
    pairs = {frozenset(x) for x in edges}
    u, v = edges[e]
    out = set()
    for f, (x, y) in enumerate(edges):
        if f == e:
            continue
        if {x, y} & {u, v}:
            out.add(f)
            continue
        if any(frozenset((a, b)) in pairs
               for a in (u, v) for b in (x, y)):
            out.add(f)
    return out


def naive_strong_ok(edges: list[Edge], coloring: dict[int, int]) -> bool:
    """Is ``coloring`` (edge index -> color) a valid strong edge coloring?"""
    if set(coloring) != set(range(len(edges))):
        return False
    for e, f in combinations(range(len(edges)), 2):
        if coloring[e] == coloring[f] and f in naive_conflicts(edges, e):
            return False
    return True


def naive_verdict(edges: list[Edge], coloring: dict[int, int],
                  lists: dict[int, frozenset[int]] | None = None
                  ) -> list[tuple[str, tuple[int, ...], int | None]]:
    """``verify_strong``'s report as ``(kind, edges, color)`` triples,
    straight from the definition: colors on ids outside the edge list,
    uncolored edges, every same-colored pair ``e < f`` at distance <= 2 by
    :func:`naive_conflicts`, then colors outside an edge's list (in
    ``coloring``'s order; an edge without a list takes any color)."""
    m = len(edges)
    near = [naive_conflicts(edges, e) for e in range(m)]
    out = [("unknown-edge", (e,), coloring[e])
           for e in sorted(coloring) if e not in range(m)]
    out += [("uncolored", (e,), None) for e in range(m) if e not in coloring]
    out += [("conflict", (e, f), coloring[e])
            for e, f in combinations(range(m), 2)
            if e in coloring and coloring.get(f) == coloring[e]
            and f in near[e]]
    if lists is not None:
        out += [("list", (e,), c) for e, c in coloring.items()
                if e in lists and c not in lists[e]]
    return out


def set_count_g1(g, v: int, d: int) -> ReductionPlan | None:
    """The G1 matcher by counting the pendant edge's conflict set, the slow
    reference for ``reducer._g1``: an isolated vertex, or a pendant edge
    with fewer than ``3*d`` edges within distance two by
    :func:`naive_conflicts`.  ``g`` must be a :class:`Graph`."""
    if g.degree(v) == 0:
        return ReductionPlan(ClaimTag.G1_PENDANT, v, (), ())
    if g.degree(v) == 1:
        e = g.edge_id(g.adj[v][0], v)
        if len(naive_conflicts(list(g.edges), e)) < 3 * d:
            return ReductionPlan(ClaimTag.G1_PENDANT, v, (),
                                 (ExtensionStep(e, 3 * d),))
    return None


def scan_first_plan(g, matchers, d):
    """The first plan by a full scan, the slow twin of the engine's choice
    (the first plan ``reducer._peel`` yields): every tag in priority
    order and, within a tag, every vertex by ascending id, asking the
    tag's matcher at degree ``d``; None when none fires."""
    for matcher in matchers:
        for v in range(g.n):
            plan = matcher.match(g, v, d)
            if plan is not None:
                return plan
    return None


def subset_mad(edges: list[Edge], n: int) -> Fraction:
    """Maximum average degree by trying every nonempty vertex subset."""
    best = Fraction(0)
    verts = sorted({x for e in edges for x in e} | set(range(n)))
    for size in range(1, len(verts) + 1):
        for sub in combinations(verts, size):
            inside = set(sub)
            k = sum(1 for u, v in edges if u in inside and v in inside)
            best = max(best, Fraction(2 * k, size))
    return best


def bisect_mad(g) -> DensityWitness:
    """Maximum average degree by bisection, the slow reference for
    ``mad``: binary search over dyadic thresholds narrows the answer to an
    interval shorter than ``1/n**2``, which isolates a unique member of the
    density lattice ``{p/q : q <= n}``; a final flow run just below it
    extracts the witness."""
    if g.n == 0:
        raise GraphError("mad is undefined on the empty graph")
    if g.m == 0:
        return DensityWitness(frozenset({0}), Fraction(0))
    n = g.n
    gap = Fraction(1, n * n)
    lo, hi = Fraction(0), Fraction(g.max_degree())
    assert density_exceeds(g, hi) is None
    while hi - lo >= gap:
        mid = (lo + hi) / 2
        if density_exceeds(g, mid) is not None:
            lo = mid
        else:
            hi = mid
    # unique fraction with denominator <= n in (lo, hi]
    for q in range(1, n + 1):
        value = Fraction(hi.numerator * q // hi.denominator, q)  # <= hi
        if value > lo:
            break
    else:
        raise AssertionError("no achievable density isolated by the search")
    witness = density_exceeds(g, value - gap / 2)
    assert witness is not None and witness.density == value
    return witness


class ReferenceMadBelowThree:
    """The (3,1)-pebble game on ``2G`` that searches for every pair, the
    slow twin of ``density.MadBelowThree``: it learns nothing from a
    refusal, so each pair is decided by its own pebble searches."""

    def __init__(self, n: int):
        self.out: list[list[int]] = [[] for _ in range(n)]

    def try_add(self, u: int, v: int) -> bool:
        first = self._add_copy(u, v)
        if first is None:
            return False
        if self._add_copy(u, v) is None:
            self.out[first].pop()  # still the last out-arc of its tail
            return False
        return True

    def _add_copy(self, u: int, v: int) -> int | None:
        out = self.out
        while len(out[u]) + len(out[v]) > 4:  # under 2 free pebbles
            if not (self._fetch(u, v) or self._fetch(v, u)):
                return None
        tail, head = (u, v) if len(out[u]) < 3 else (v, u)
        out[tail].append(head)
        return tail

    def _fetch(self, root: int, keep: int) -> bool:
        """Free a pebble at ``root`` by reversing an out-path avoiding
        ``keep`` to a vertex with a free pebble."""
        out = self.out
        seen = {root, keep}
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


def bfs_girth(edges: list[Edge], n: int) -> float:
    """Shortest cycle by deleting each edge and finding the detour."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    best = float("inf")
    for skip, (s, t) in enumerate(edges):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y, i in adj[x]:
                if i != skip and y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if t in dist:
            best = min(best, dist[t] + 1)
    return best


def relabel(edges, rng, vertices=()):
    """The graph on ``edges`` under a random injective relabeling."""
    names = sorted({x for e in edges for x in e} | set(vertices))
    new = rng.sample(range(3 * len(names) + 3), len(names))
    lab = dict(zip(names, new))
    return build_graph([(lab[a], lab[b]) for a, b in edges],
                       vertices=[lab[x] for x in names])


def dp_chromatic(n: int, neighbors: list[int]) -> int:
    """Chromatic number via DP over vertex subsets (bitmask independent sets).

    ``neighbors[v]`` is a bitmask of v's neighbors.  Exponential; keep
    n small.
    """
    if n == 0:
        return 0
    full = (1 << n) - 1
    # all independent subsets of each mask are explored lazily
    best = {0: 0}
    frontier = {0}
    colors = 0
    while full not in best:
        colors += 1
        new_frontier = set()
        for state in frontier:
            rest = full & ~state
            low = rest & -rest
            v = low.bit_length() - 1
            # every maximal independent subset of `rest` containing v
            stack = [(low, rest & ~low & ~neighbors[v])]
            while stack:
                chosen, avail = stack.pop()
                if not avail:
                    nxt = state | chosen
                    if nxt not in best:
                        best[nxt] = colors
                        new_frontier.add(nxt)
                    continue
                w = (avail & -avail).bit_length() - 1
                stack.append((chosen | (1 << w),
                              avail & ~(1 << w) & ~neighbors[w]))
                stack.append((chosen, avail & ~(1 << w)))
        frontier = new_frontier
        if not frontier and full not in best:  # pragma: no cover
            raise AssertionError("chromatic DP wedged")
    return best[full]


def random_graph(rng: random.Random, n: int, p: float) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]



def random_sparse_graph(rng: random.Random, n: int, cap: int):
    """Random edges under max degree ``cap`` on ``n`` vertices, some
    subdivided once or twice; returns ``(edges, vertices)``.  Any girth
    and any density: rich in the degree-2 vertices the detectors read."""
    edges, deg = set(), [0] * n
    for _ in range(n * cap):
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if deg[u] < cap and deg[v] < cap and key not in edges:
            edges.add(key)
            deg[u] += 1
            deg[v] += 1
    out, nxt, share = [], n, rng.choice((0.3, 0.5, 0.8))
    for u, v in sorted(edges):
        if rng.random() < share:
            chain = [u, *range(nxt, nxt + rng.randint(1, 2)), v]
            nxt = chain[-2] + 1
            out += list(zip(chain, chain[1:]))
        else:
            out.append((u, v))
    return out, range(nxt)


def nonplanar_girth7(rng: random.Random, n: int, cap: int):
    """A graph of girth >= 7, maximum degree <= ``cap`` and mad < 14/5
    that is not planar.

    A random simple graph ``H`` on ``n >= 6`` vertices with degrees
    3..``cap`` is drawn by the configuration model around a K_{3,3} on
    vertices 0..5, and every edge is subdivided twice (girth >= 9).  Then,
    in random order, each subdivision vertex is spliced out while girth
    >= 7 and mad < 14/5 still hold, and 0..6 pendants go on vertices
    below the cap.  Each result is homeomorphic to ``H`` plus pendants,
    so the K_{3,3} keeps it non-planar.
    """
    k33 = {(a, b) for a in range(3) for b in range(3, 6)}
    while True:
        want = [rng.randint(3, cap) for _ in range(n)]
        stubs = [v for v in range(n) for _ in range(want[v] - 3 * (v < 6))]
        if len(stubs) % 2:
            continue
        rng.shuffle(stubs)
        extra = {(min(p), max(p)) for p in zip(stubs[::2], stubs[1::2])}
        if (len(extra) == len(stubs) // 2 and not extra & k33
                and all(u != v for u, v in extra)):
            break
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in sorted(k33 | extra):
        x, y = len(adj), len(adj) + 1
        adj[x], adj[y] = {u, y}, {x, v}
        adj[u].add(x)
        adj[v].add(y)

    def graph():
        return build_graph([(a, b) for a in adj for b in adj[a] if a < b],
                           vertices=sorted(adj))
    order = list(range(n, len(adj)))
    rng.shuffle(order)
    for v in order:
        a, b = adj.pop(v)
        adj[a] ^= {v, b}  # a loses v and gains b, which girth 7 kept apart
        adj[b] ^= {v, a}
        g = graph()
        if girth(g, limit=7) < 7 or mad(g).density >= Fraction(14, 5):
            adj[v] = {a, b}  # undone: v goes back between a and b
            adj[a] ^= {v, b}
            adj[b] ^= {v, a}
    for _ in range(rng.randint(0, 6)):
        u = rng.choice([v for v in adj if len(adj[v]) < cap])
        w = max(adj) + 1
        adj[u].add(w)
        adj[w] = {u}
    return graph()


def delete_vertex(g, v):
    """New graph with vertex ``v`` (and its edges) removed.

    Dense ids are reassigned; original labels are preserved, so the
    deleted graph's vertices can be matched back to ``g``'s.
    """
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    keep_labels = [lab for i, lab in enumerate(g.labels) if i != v]
    pairs = [(g.labels[a], g.labels[b]) for (a, b) in g.edges
             if a != v and b != v]
    return build_graph(pairs, vertices=keep_labels)


def reference_conflict_graph(g):
    """The conflict graph on ``g``'s edge ids, built the slow way as the
    reference for ``conflicts.conflict_rows``: conflicting pairs sent
    through ``build_graph`` with the edge ids as labels."""
    pairs = [(e, f) for e in range(g.m)
             for f in edges_within_distance_two(g, e) if e < f]
    return build_graph(pairs, vertices=range(g.m))


def reference_search(h, lists, budget, fresh):
    """The exact search before color bitmasks, kept as the slow reference
    for ``oracle._search``: the same branching over tuples of the colors
    themselves, with a set of forbidden colors and a list of options built
    for every uncolored vertex at every node.

    Branching picks the vertex with the fewest admissible colors, ties
    broken by lowest id, and tries its colors in ascending order.  With
    ``fresh`` a vertex may take a color at most one above the largest used
    so far, which kills the color permutation symmetry of the uniform
    lists ``0..k-1``: on those lists it is the twin of ``_search``, whose
    twin pruning on one shared list builds the same tree node for node.
    Without ``fresh`` it is the twin of ``_search`` on lists that differ.
    Depth-first with an explicit stack holding one
    frame per branching vertex: the vertex, an iterator over its untried
    colors and the color ceiling it was chosen under.
    """
    n, adj = h.n, h.adj
    colors = {}
    stack = []
    top = 0 if fresh else math.inf
    while True:
        budget.tick()
        if len(colors) == n:
            return dict(colors)
        best_v = -1
        best_opts = []
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


class _RefMiss(Exception):
    def __init__(self, graph):
        self.graph = graph


def _ref_child_lists(parent, child, lists):
    out = {}
    for e in range(child.m):
        a, b = child.label_pair(e)
        out[e] = lists[parent.edge_id(parent.vertex_of_label(a),
                                      parent.vertex_of_label(b))]
    return out


def plan_in_labels(g, plan):
    """A plan in labels: tag, deleted label, erased and extension pairs
    with their bounds, so plans from differently numbered graphs compare."""
    return (plan.claim_tag.value, g.labels[plan.delete_vertex],
            tuple(g.label_pair(e) for e in plan.erase_edges),
            tuple((g.label_pair(s.edge), s.bound)
                  for s in plan.extension_order))


def stars_of(g, partial):
    """Each vertex's colored edges, each mapped to its color, as the
    unwind keeps them beside its partial coloring."""
    return [{f: partial[f] for f in at.values() if f in partial}
            for at in g.edge_at]


def extend_partial(g, partial, plan, lists, trace):
    """``colorer.extend`` on a partial coloring alone: the stars it reads
    are built from ``partial`` first, so a test states only the coloring."""
    return extend(g, partial, plan, lists, trace, stars_of(g, partial))


def reference_extend(g, partial, plan, lists, trace):
    """``colorer.extend`` as it was before it counted in place, kept as the
    slow reference: each step takes its edge's whole conflict set from
    ``edges_within_distance_two`` (a frozenset) and counts the colored
    members.  The same checks, messages, records and colors."""
    for step in plan.extension_order:
        e = step.edge
        colored = [partial[f] for f in edges_within_distance_two(g, e)
                   if f in partial]
        actual = len(colored)
        if actual > step.bound:
            raise ExtensionError(
                f"extension of edge {g.label_pair(e)} under "
                f"{plan.claim_tag.value}: {actual} colored conflicts exceed "
                f"the promised bound {step.bound}", claim_tag=plan.claim_tag,
                edge=e, bound=step.bound, actual=actual)
        if len(lists[e]) <= actual:
            raise ExtensionError(
                f"edge {g.label_pair(e)} under {plan.claim_tag.value}: list "
                f"of size {len(lists[e])} cannot guarantee a spare color "
                f"against bound {actual}", claim_tag=plan.claim_tag,
                edge=e, bound=actual, actual=actual)
        color = min(lists[e].difference(colored))
        partial[e] = color
        trace.append(ExtensionRecord(plan.claim_tag, g.label_pair(e),
                                     actual, actual, color))
    return partial


def _ref_reduce_and_unwind(g, lists, detect, trace, plans):
    stack = []
    cur, cur_lists = g, lists
    while cur.n > 0:
        plan = detect(cur)
        if plan is None:
            raise _RefMiss(cur)
        plans.append(plan_in_labels(cur, plan))
        stack.append((cur, cur_lists, plan))
        child = delete_vertex(cur, plan.delete_vertex)
        cur_lists = _ref_child_lists(cur, child, cur_lists)
        cur = child
    by_labels = {}
    for level, level_lists, plan in reversed(stack):
        partial = {
            level.edge_id(level.vertex_of_label(a), level.vertex_of_label(b)): c
            for (a, b), c in by_labels.items()}
        for e in plan.erase_edges:
            partial.pop(e, None)
        partial = reference_extend(level, partial, plan, level_lists, trace)
        by_labels = {level.label_pair(e): c for e, c in partial.items()}
    return {g.edge_id(g.vertex_of_label(a), g.vertex_of_label(b)): c
            for (a, b), c in by_labels.items()}


def reference_solve(g, lists, matchers, delta_cap, threshold, plans):
    """The peeling engine before the mutable peel state, kept as the slow
    reference: per component it runs :func:`scan_first_plan` on a freshly
    built graph at every level, at ``delta_cap`` or else at the level's
    maximum degree, builds the next level with :func:`delete_vertex`,
    carries the lists over by labels and remaps colors by label pairs on
    the way back up.  A miss is explained by :func:`bisect_mad` on ``g``:
    a density rejection with that witness at or above ``threshold``, a
    broken guarantee below it.

    ``lists`` must already map every edge id to a frozenset.  Returns the
    report.  Appends to ``plans``, per component of two or more edges, its
    plans in peel order (see :func:`plan_in_labels`), up to the level the
    matchers missed if they did, so they are there when the miss raises.
    """
    def detect(h):
        d = delta_cap if delta_cap is not None else h.max_degree()
        return scan_first_plan(h, matchers, d)
    trace, coloring = [], {}
    for comp in g.components():
        sub = g.induced(comp)
        if sub.m == 0:
            continue
        sub_lists = _ref_child_lists(g, sub, lists)
        if sub.m == 1:
            sub_coloring = {0: min(sub_lists[0])}
        else:
            plans.append([])
            try:
                sub_coloring = _ref_reduce_and_unwind(sub, sub_lists, detect,
                                                      trace, plans[-1])
            except _RefMiss as miss:
                witness = bisect_mad(g)
                if witness.density >= threshold:
                    labels = sorted(g.labels[v] for v in witness.vertices)
                    raise HypothesisError(
                        f"maximum average degree is {witness.density} >= "
                        f"{threshold} on vertices {labels}",
                        witness=witness) from None
                raise TheoremViolationError(
                    f"no reducible configuration found on a "
                    f"hypothesis-satisfying graph with "
                    f"{miss.graph.n} vertices — the guarantee this "
                    f"pipeline rests on failed") from None
        for e, c in sub_coloring.items():
            a, b = sub.label_pair(e)
            coloring[g.edge_id(g.vertex_of_label(a),
                               g.vertex_of_label(b))] = c
    assert not verify_strong(g, coloring)
    assert all(c in lists[e] for e, c in coloring.items())
    return SolveReport(coloring, certified=True, trace=tuple(trace))


def reference_planar_girth7(n, delta, rng):
    """The ``planar-girth7`` generator before it kept its faces
    incrementally, kept as the slow reference: after every insertion it
    rebuilds the graph and re-traces every face with ``trace_faces``, then
    lists the corners afresh.  Arguments are checked by the caller.
    Returns ``(graph, rotation)``.
    """
    count = 7
    adj = [[(i + 1) % 7, (i - 1) % 7] for i in range(7)]

    def rebuild():
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
            by_face = {}
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


def reference_build_graph(edge_pairs, vertices=None):
    """``build_graph`` before it kept pairs in a dict and skipped the remap
    for dense labels, kept as the slow reference: a set of normalized
    pairs, every edge sent through the label index."""
    label_set = set(vertices) if vertices is not None else set()
    pair_set: set[tuple[int, int]] = set()
    for (a, b) in edge_pairs:
        if a == b:
            raise GraphError(f"self-loop at vertex {a} (pair ({a}, {b}))")
        label_set.add(a)
        label_set.add(b)
        pair_set.add((a, b) if a < b else (b, a))
    labels = tuple(sorted(label_set))
    index = {lab: i for i, lab in enumerate(labels)}
    edges = sorted((min(index[a], index[b]), max(index[a], index[b]))
                   for (a, b) in pair_set)
    return Graph(len(labels), labels, tuple(edges))


def _ref_ints(parts: list[str], lineno: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {parts!r}") from None


def _ref_tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def reference_parse_instance(text: str) -> InstanceFile:
    """``parse_instance`` before its one-pass reading, kept as the slow
    reference: a token generator, a copy of each record's fields, every
    edge kept twice, and labels looked up through the graph's methods.
    Its only change since is that both ``p delta`` errors name the ``p``
    record's line (they named line 0)."""
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    rotations: dict[int, tuple[int, ...]] = {}
    rotation_lines: dict[int, int] = {}
    list_records: list[tuple[int, int, int, frozenset[int]]] = []
    properties: dict[str, str] = {}
    property_lines: dict[str, int] = {}

    for lineno, parts in _ref_tokens(text):
        kind, rest = parts[0], parts[1:]
        if kind == "v":
            if declared_n is not None:
                raise ParseError(lineno, "repeated v record")
            if len(rest) != 1:
                raise ParseError(lineno, "v takes one count")
            (declared_n,) = _ref_ints(rest, lineno)
            if declared_n < 0:
                raise ParseError(lineno, "negative vertex count")
        elif kind == "e":
            if len(rest) != 2:
                raise ParseError(lineno, "e takes two endpoints")
            u, v = _ref_ints(rest, lineno)
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
            (u,) = _ref_ints(rest[:1], lineno)
            if u in rotations:
                raise ParseError(lineno, f"repeated rotation for {u}")
            rotations[u] = tuple(_ref_ints(rest[2:], lineno))
            rotation_lines[u] = lineno
        elif kind == "l":
            if len(rest) < 3 or rest[2] != ":":
                raise ParseError(lineno, "l syntax is: l U V : C1 C2 ...")
            u, v = _ref_ints(rest[:2], lineno)
            colors = frozenset(_ref_ints(rest[3:], lineno))
            list_records.append((lineno, u, v, colors))
        elif kind == "p":
            if len(rest) != 2:
                raise ParseError(lineno, "p takes a key and a value")
            if rest[0] in properties:
                raise ParseError(lineno, f"repeated property {rest[0]}")
            properties[rest[0]] = rest[1]
            property_lines[rest[0]] = lineno
        else:
            raise ParseError(lineno, f"unknown record type {kind!r}")

    explicit = range(declared_n) if declared_n is not None else None
    try:
        g = reference_build_graph(edges, vertices=explicit)
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

    lists = None
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
            raise ParseError(property_lines["delta"],
                             "property delta must be an integer") from None
        if g.max_degree() > cap:
            raise ParseError(
                property_lines["delta"], f"declared delta {cap} but the "
                f"graph has a vertex of degree {g.max_degree()}")

    return InstanceFile(g, rotation, lists, properties)


def reference_parse_coloring(text: str, g) -> dict[int, int]:
    """``parse_coloring`` before it read the label index directly, kept
    as the slow reference: labels and edges looked up through the graph's
    methods, each miss caught as a ``GraphError``."""
    coloring: dict[int, int] = {}
    for lineno, parts in _ref_tokens(text):
        if parts[0] != "c" or len(parts) != 4:
            raise ParseError(lineno, "coloring lines are: c U V COLOR")
        u, v, color = _ref_ints(parts[1:], lineno)
        try:
            e = g.edge_id(g.vertex_of_label(u), g.vertex_of_label(v))
        except GraphError:
            raise ParseError(lineno, f"no edge {u} {v}") from None
        if e in coloring:
            raise ParseError(lineno, f"edge {u} {v} colored twice")
        coloring[e] = color
    return coloring
