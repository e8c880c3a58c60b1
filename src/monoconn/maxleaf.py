"""Maximum-leaf spanning trees via minimum connected dominating sets.

For a connected graph on n >= 3 vertices the internal vertices of any
spanning tree form a connected dominating set, and conversely every connected
dominating set S yields a spanning tree whose internal vertices all lie in S
(span S first, then hang every remaining vertex off a neighbour in S).  Hence
l(G) = n - gamma_c(G), where gamma_c is the minimum connected dominating set
size.  The exact engine below searches for gamma_c by include/exclude
branch-and-bound over vertices with domination and cardinality pruning; the
exhaustive spanning-tree enumeration used to validate it lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, _reach, is_connected


@dataclass(frozen=True)
class SpanningTreeResult:
    """A spanning tree with its leaf statistics.

    ``exact`` records whether ``leaf_count`` is the true optimum l(G) or just
    a heuristic lower bound.
    """

    tree: tuple[tuple[int, int], ...]
    leaf_count: int
    internal_count: int
    exact: bool

    @property
    def n(self) -> int:
        return self.leaf_count + self.internal_count


def _tree_result(g: Graph, tree_edges: list[tuple[int, int]], exact: bool) -> SpanningTreeResult:
    deg = [0] * g.n
    for u, v in tree_edges:
        deg[u] += 1
        deg[v] += 1
    leaves = sum(1 for d in deg if d == 1)
    return SpanningTreeResult(
        tree=tuple(sorted(tree_edges)),
        leaf_count=leaves,
        internal_count=g.n - leaves,
        exact=exact,
    )


def _tree_from_cds(g: Graph, cds_mask: int, span_mask: int) -> list[tuple[int, int]]:
    """Spanning tree of G[span] whose internal vertices lie inside
    ``cds_mask``, a connected set dominating the span.

    BFS-spans the set from its smallest vertex (smallest-index tie-breaks),
    then attaches every other vertex of the span to its smallest neighbour
    in the set.
    """
    root = (cds_mask & -cds_mask).bit_length() - 1
    tree: list[tuple[int, int]] = []
    seen = 1 << root
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _bits(g.adj[u] & cds_mask & ~seen):
                seen |= 1 << v
                tree.append((u, v) if u < v else (v, u))
                nxt.append(v)
        frontier = nxt
    for v in _bits(span_mask & ~cds_mask):
        w = _bits(g.adj[v] & cds_mask)[0]
        tree.append((v, w) if v < w else (w, v))
    return tree


def minimum_connected_dominating_set(g: Graph) -> int:
    """Bitmask of a minimum connected dominating set (n >= 3, connected).

    Deterministic: vertices are branched in index order, include before
    exclude, and only strict improvements replace the incumbent.
    """
    n = g.n
    full = (1 << n) - 1
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    max_cover = max(bin(c).count("1") for c in closed)

    # quick single-vertex screen: a dominating vertex is optimal on its own
    for v in range(n):
        if closed[v] == full:
            return 1 << v

    best_mask = full  # placeholder, replaced by first feasible solution
    best_size = n  # internal count of any spanning tree is at most n-2 < n

    def feasible(mask: int) -> bool:
        # connected induced subgraph check
        return _reach(g.adj, (mask & -mask).bit_length() - 1, mask) == mask

    def descend(idx: int, chosen: int, size: int, dominated: int) -> None:
        nonlocal best_mask, best_size
        if dominated == full and chosen and feasible(chosen):
            if size < best_size:
                best_size = size
                best_mask = chosen
            return
        if idx == n:
            return
        missing = bin(full & ~dominated).count("1")
        need = (missing + max_cover - 1) // max_cover if missing else 0
        if size + max(need, 1) >= best_size:
            return
        # can the undecided suffix still dominate everything?
        rest = dominated
        for v in range(idx, n):
            rest |= closed[v]
        if rest != full:
            return
        descend(idx + 1, chosen | (1 << idx), size + 1, dominated | closed[idx])
        descend(idx + 1, chosen, size, dominated)

    descend(0, 0, 0, 0)
    return best_mask


def max_leaf_exact(g: Graph) -> SpanningTreeResult:
    """l(G) with a witness tree attaining it (connected input, n >= 2)."""
    if g.n < 2:
        raise ValueError("max-leaf needs n >= 2")
    if not is_connected(g):
        raise ValueError("disconnected")
    if g.n == 2:
        return _tree_result(g, [(0, 1)], exact=True)
    cds = minimum_connected_dominating_set(g)
    tree = _tree_from_cds(g, cds, (1 << g.n) - 1)
    return _tree_result(g, tree, exact=True)


def max_leaf_greedy(g: Graph) -> SpanningTreeResult:
    """Deterministic greedy expansion; leaf_count <= l(G).

    Seeds with the maximum-degree vertex, then repeatedly expands the tree
    vertex whose attachment adds the most net new leaves (smallest-index
    tie-breaks everywhere).
    """
    if g.n < 2:
        raise ValueError("max-leaf needs n >= 2")
    if not is_connected(g):
        raise ValueError("disconnected")
    seed = max(range(g.n), key=lambda v: (g.degree(v), -v))
    inmask = 1 << seed
    tree: list[tuple[int, int]] = []
    deg = [0] * g.n
    for v in _bits(g.adj[seed]):
        inmask |= 1 << v
        tree.append((seed, v) if seed < v else (v, seed))
        deg[seed] += 1
        deg[v] += 1
    full = (1 << g.n) - 1
    while inmask != full:
        gain_best, u_best = None, None
        for u in _bits(inmask):
            new = bin(g.adj[u] & ~inmask).count("1")
            if not new:
                continue
            gain = new - (1 if deg[u] == 1 else 0)
            if gain_best is None or gain > gain_best:
                gain_best, u_best = gain, u
        u = u_best
        for v in _bits(g.adj[u] & ~inmask):
            inmask |= 1 << v
            tree.append((u, v) if u < v else (v, u))
            deg[u] += 1
            deg[v] += 1
    return _tree_result(g, tree, exact=False)
