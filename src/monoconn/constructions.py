"""Explicit extremal and lower-bound total colorings with exact color counts.

Every construction colors one shared structure (a spanning tree with its
internal vertices, or a star with its centre) with color 0, or nothing at
all, and leaves the rest to the solvers' fill step ``coloring._fill``,
which hands fresh consecutive colors to every other vertex and then every
other edge, so outputs are canonical and diffable.
"""

from __future__ import annotations

from .coloring import TotalColoring, _fill
from .graphs import (
    Graph,
    _bits,
    _internal,
    complete_graph,
    complete_multipartite_graph,
    from_edge_list,
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
    if (
        len(tset) != g.n - 1
        or not tset <= set(g.edges)
        or not is_connected(from_edge_list(g.n, tset))
    ):
        raise ValueError("tree does not span the graph or is not a subgraph")
    return _fill(g, "tmc", [[*tset, *_bits(_internal(tset))]])


def complete_tmc_coloring(n: int) -> tuple[Graph, TotalColoring]:
    """All m + n items distinct: the unique extremal pattern for K_n."""
    g = complete_graph(n)
    return g, _fill(g, "tmc", [])


def wheel_tmc_coloring(n: int) -> tuple[Graph, TotalColoring]:
    """Extremal coloring of the order-n wheel (n >= 5): m + 1 colors.

    The spanning star at the hub is the maximum-leaf tree (l = n - 1), so the
    tree-based coloring attains m - n + 2 + (n - 1) = m + 1 colors.
    """
    if n < 5:
        raise ValueError("wheel construction needs order n >= 5")
    g = wheel_graph(n)
    return g, _fill(g, "tmc", [[0, *((0, v) for v in range(1, n))]])


def multipartite_tmc_coloring(sizes: list[int]) -> tuple[Graph, TotalColoring]:
    """Extremal coloring of a complete multipartite graph: m + r - t colors.

    t counts classes of size >= 2.  With a singleton class available, a star
    from one singleton vertex to every vertex of the big classes is colored
    as the shared class; each within-class pair is then joined through its
    center.  Without singletons (t = r) the optimum is m, met by the
    tree-based coloring over the double star on 0 and b = max(sizes), the
    first vertex of the second class: 1..b-1 hang on b and the rest on 0.
    """
    g = complete_multipartite_graph(sizes)
    # the big classes come first, so this is the first singleton vertex
    center = sum(s for s in sizes if s >= 2)
    if center == g.n:
        b = max(sizes)
        return g, _fill(g, "tmc", [[0, b, *((v, b) for v in range(1, b)),
                                    *((0, v) for v in range(b, g.n))]])
    return g, _fill(g, "tmc", [[center, *((v, center) for v in range(center))]])


def max_leaf_tmc_coloring(g: Graph) -> TotalColoring:
    """Tree-based coloring over a maximum-leaf spanning tree:
    m - n + 2 + l(G) colors, the generic lower-bound witness.  K_1, whose
    spanning tree has no edge and l = 0, gets its one vertex's one color.
    A graph past the exact-solver guard is refused by max_leaf_exact."""
    if g.n == 1:
        return _fill(g, "tmc", [])
    return tree_based_tmc_coloring(g, max_leaf_exact(g))
