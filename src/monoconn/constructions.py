"""Explicit extremal and lower-bound total colorings with exact color counts.

Every construction paints one shared structure with color 0 and hands fresh
consecutive colors to everything else, so outputs are canonical and diffable.
"""

from __future__ import annotations

from .coloring import TotalColoring
from .graphs import (
    Graph,
    complete_graph,
    complete_multipartite_graph,
    is_connected,
    wheel_graph,
)
from .maxleaf import SpanningTreeResult, max_leaf_exact


def tree_based_tmc_coloring(g: Graph, tree: SpanningTreeResult) -> TotalColoring:
    """Color a spanning tree's edges and internal vertices with one color.

    Tree leaves and non-tree edges each receive a fresh color, which yields
    exactly m - n + 2 + l(T) colors and always total-monochromatically
    connects the graph (every pair is joined inside the tree).
    """
    tset = set(tree.tree)
    if len(tset) != g.n - 1 or not tset.issubset(set(g.edges)):
        raise ValueError("tree does not span the graph or is not a subgraph")
    deg = [0] * g.n
    for u, v in tset:
        deg[u] += 1
        deg[v] += 1
    if any(d == 0 for d in deg) and g.n > 1:
        raise ValueError("tree does not span the graph or is not a subgraph")
    vcol = [0] * g.n
    nxt = 1
    for v in range(g.n):
        if deg[v] == 1:  # leaves get fresh colors, smallest index first
            vcol[v] = nxt
            nxt += 1
    ecol = {}
    for e in g.edges:
        if e in tset:
            ecol[e] = 0
        else:
            ecol[e] = nxt
            nxt += 1
    return TotalColoring(vertex_color=tuple(vcol), edge_color=ecol)


def complete_tmc_coloring(n: int) -> tuple[Graph, TotalColoring]:
    """All m + n items distinct: the unique extremal pattern for K_n."""
    g = complete_graph(n)
    vcol = tuple(range(n))
    ecol = {e: n + i for i, e in enumerate(g.edges)}
    return g, TotalColoring(vertex_color=vcol, edge_color=ecol)


def wheel_tmc_coloring(n: int) -> tuple[Graph, TotalColoring]:
    """Extremal coloring of the order-n wheel (n >= 5): m + 1 colors.

    The spanning star at the hub is the maximum-leaf tree (l = n - 1), so the
    tree-based coloring attains m - n + 2 + (n - 1) = m + 1 colors.
    """
    if n < 5:
        raise ValueError("wheel construction needs order n >= 5")
    g = wheel_graph(n)
    star = tuple((0, v) for v in range(1, n))
    tree = SpanningTreeResult(
        tree=star, leaf_count=n - 1, internal_count=1, exact=True, internal=1
    )
    return g, tree_based_tmc_coloring(g, tree)


def multipartite_tmc_coloring(sizes: list[int]) -> tuple[Graph, TotalColoring]:
    """Extremal coloring of a complete multipartite graph: m + r - t colors.

    t counts classes of size >= 2.  With a singleton class available, a star
    from one singleton vertex to every vertex of the big classes is colored
    as the shared class; each within-class pair is then joined through its
    center.  Without singletons (t = r) the optimum is m, met by the
    tree-based coloring over a maximum-leaf spanning tree.
    """
    if len(sizes) < 2:
        raise ValueError("complete multipartite needs r >= 2 classes")
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    sizes = sorted(sizes, reverse=True)
    g = complete_multipartite_graph(sizes)
    t = sum(1 for s in sizes if s >= 2)
    r = len(sizes)
    if t == r:
        return g, tree_based_tmc_coloring(g, max_leaf_exact(g))
    big_total = sum(s for s in sizes if s >= 2)
    center = big_total  # first vertex of the first singleton class
    vcol = [0] * g.n
    nxt = 1
    for v in range(g.n):
        if v != center:
            vcol[v] = nxt
            nxt += 1
    ecol = {}
    for e in g.edges:
        u, v = e
        if (u == center and v < big_total) or (v == center and u < big_total):
            ecol[e] = 0
        else:
            ecol[e] = nxt
            nxt += 1
    return g, TotalColoring(vertex_color=tuple(vcol), edge_color=ecol)


def max_leaf_tmc_coloring(g: Graph) -> TotalColoring:
    """Tree-based coloring over a maximum-leaf spanning tree:
    m - n + 2 + l(G) colors, the generic lower-bound witness."""
    if not is_connected(g):
        raise ValueError("disconnected")
    return tree_based_tmc_coloring(g, max_leaf_exact(g))
