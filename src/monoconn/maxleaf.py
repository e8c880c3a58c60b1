"""Maximum-leaf spanning trees via minimum connected dominating sets.

For a connected graph on n >= 3 vertices the internal vertices of any
spanning tree form a connected dominating set, and conversely every connected
dominating set S yields a spanning tree whose internal vertices all lie in S
(span S first, then hang every remaining vertex off a neighbour in S).  Hence
l(G) = n - gamma_c(G), where gamma_c is the minimum connected dominating set
size.  ``max_leaf_exact`` finds gamma_c by trying vertex sets in order of size,
once the exact solvers' size guard has passed the graph; the exhaustive
spanning-tree enumeration used to validate it lives with the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, _bits, _internal, _reach, is_connected


@dataclass(frozen=True)
class SpanningTreeResult:
    """A spanning tree and ``internal``, the bitmask of its internal
    vertices (degree >= 2), a connected dominating set when n >= 3.  K_1's
    tree has no edge and its one vertex is internal, so l = 0 and q = 1."""

    tree: tuple[tuple[int, int], ...]
    internal: int

    @property
    def internal_count(self) -> int:
        return self.internal.bit_count()

    @property
    def leaf_count(self) -> int:
        return len(self.tree) + 1 - self.internal_count


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


@functools.lru_cache(maxsize=1)
def max_leaf_exact(g: Graph) -> SpanningTreeResult:
    """l(G) with a witness tree attaining it (connected input, n >= 1); only
    the last graph's result is kept, so l, tmc and mvc on one graph share it.

    The tree spans the first connected dominating set when vertex sets are
    tried by size, each size in lexicographic order.  That search is
    exponential in n, so after the connectivity check and the K_1 answer a
    graph past the exact solvers' size guard is refused with
    SolverRangeError before it starts; no caller guards by hand."""
    if g.n < 1:
        raise ValueError("max-leaf needs n >= 1")
    if not is_connected(g):
        raise ValueError("disconnected")
    if g.n == 1:
        return SpanningTreeResult(tree=(), internal=1)
    # imported here: solvers imports this module at load time
    from .solvers import _guard_exact

    _guard_exact(g, "max_leaf_exact")
    full = (1 << g.n) - 1
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            dominated = 0
            for v in combo:
                dominated |= closed[v]
            if dominated == full:
                mask = sum(1 << v for v in combo)
                if _reach(g.adj, combo[0], mask) == mask:
                    tree = _tree_from_cds(g, mask, full)
                    return SpanningTreeResult(tree=tuple(sorted(tree)), internal=_internal(tree))
