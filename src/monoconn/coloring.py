"""Total / edge / vertex colorings and the three connectivity verifiers.

A path is total monochromatic when all its edges and all its internal
vertices carry one color; endpoint colors never matter, so a single-edge path
qualifies unconditionally.  The edge variant constrains edges only, the
vertex variant internal vertices only (hence any path of length <= 2 is
automatically vertex-monochromatic).

Verification never enumerates paths.  The three variants differ only in
which parts of a path must share the color c, and one bitset kernel serves
them all: a path of color c uses the edges of color c (every edge in the
vertex variant) and passes through the vertices of color c (any vertex in
the edge variant).  Each component of those vertices along those edges,
closed by its neighbours along those edges, joins every pair inside it; a
coloring is accepted when the components of all colors join every
non-adjacent pair.

Each verifier reads a color once per edge: when the mapping's keys are g's
edges, one lookup per edge of g.edges gives the color list, and only another
key set takes the checked, normalising path.  The colors of two or more
edges are then grouped in one pass over that list.

Two skip rules spare the colors that cannot join a non-adjacent pair, such
as the fresh singleton colors that fill most of a solver's witness:
- tmc and mc: only colors of two or more edges get components.  Proof: a
  path joining a non-adjacent pair has at least two edges, all of its
  color.
- mvc: first every pair with a common neighbour is joined, and then
  colors of one vertex get no components.  Proof: a path with one inner
  vertex is vertex-monochromatic, and a color of one vertex x joins only
  pairs through x, which x is a common neighbour of.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, _nbr, _reach


Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class VertexColoring:
    vertex_color: tuple[int, ...]

    @property
    def color_count(self) -> int:
        return len(set(self.vertex_color))


@dataclass(frozen=True)
class EdgeColoring:
    edge_color: Mapping[Edge, int]

    @property
    def color_count(self) -> int:
        return len(set(self.edge_color.values()))


@dataclass(frozen=True)
class TotalColoring:
    """Color ids for every vertex and every edge (non-negative, not
    necessarily contiguous)."""

    vertex_color: tuple[int, ...]
    edge_color: Mapping[Edge, int]

    @property
    def color_count(self) -> int:
        return len(set(self.vertex_color) | set(self.edge_color.values()))


def _fill(
    g: Graph, variant: str, classes: Sequence[Sequence]
) -> TotalColoring | EdgeColoring | VertexColoring:
    """The coloring of ``variant`` ("tmc", "mc" or "mvc") in which the
    items (vertices, edges) of class i get color i.  Then every vertex
    (ascending), then every edge (lex), that the coloring has and no class
    colored gets a fresh color, so no class at all gives the all-distinct
    coloring."""
    color = {x: c for c, members in enumerate(classes) for x in members}
    vs = () if variant == "mc" else range(g.n)
    es = () if variant == "mvc" else g.edges
    fresh = itertools.count(len(classes))
    vcol = tuple(color[v] if v in color else next(fresh) for v in vs)
    ecol = {e: color[e] if e in color else next(fresh) for e in es}
    if variant == "tmc":
        return TotalColoring(vertex_color=vcol, edge_color=ecol)
    if variant == "mc":
        return EdgeColoring(edge_color=ecol)
    return VertexColoring(vertex_color=vcol)


def total_coloring(g: Graph, vertex_colors: Iterable[int], edge_colors: Mapping[Edge, int] | Iterable[int]) -> TotalColoring:
    """Build a TotalColoring for g, validating the domain exactly."""
    vcol = tuple(vertex_colors)
    if len(vcol) != g.n:
        raise ValueError(f"expected {g.n} vertex colors, got {len(vcol)}")
    if isinstance(edge_colors, Mapping):
        ecol = _check_edge_domain(g, edge_colors)
    else:
        seq = list(edge_colors)
        if len(seq) != g.m:
            raise ValueError(f"expected {g.m} edge colors, got {len(seq)}")
        ecol = dict(zip(g.edges, seq))
    if any(c < 0 for c in vcol) or any(c < 0 for c in ecol.values()):
        raise ValueError("color ids must be non-negative")
    return TotalColoring(vertex_color=vcol, edge_color=ecol)


def _check_edge_domain(g: Graph, ecol: Mapping[Edge, int]) -> dict[Edge, int]:
    """A copy of ``ecol`` keyed by g's edges; ValueError when its keys name
    other edges, an edge twice, or anything but a vertex pair."""
    norm = {}
    for e, c in ecol.items():
        if not (isinstance(e, tuple) and len(e) == 2):
            raise ValueError(f"edge color key {e!r} is not a vertex pair")
        norm[_norm_edge(*e)] = c
    if len(norm) != len(ecol):
        raise ValueError("edge color domain names an edge more than once")
    if set(norm) != set(g.edges):
        raise ValueError("edge color domain does not match the graph's edge set")
    return norm


def _edge_colors(g: Graph, ecol: Mapping[Edge, int]) -> list[int]:
    """The colors of g.edges, in order; ValueError as _check_edge_domain
    when the keys of ``ecol`` are not g's edges."""
    if len(ecol) == g.m:
        colors = list(map(ecol.get, g.edges))
        if None not in colors:
            return colors
    ecol = _check_edge_domain(g, ecol)
    return [ecol[e] for e in g.edges]


def _first_gap(
    n: int,
    adj: Sequence[int],
    edges: Sequence[Edge],
    vcol: Sequence[int] | None,
    ecol: Sequence[int] | None,
) -> Edge | None:
    """The lexicographically least non-adjacent pair that no monochromatic
    path joins, or None.

    ``ecol`` colors ``edges`` in order and ``vcol`` colors the vertices.  A
    path of color c uses only edges of color c (every edge when ecol is
    None) and has its internal vertices among those of color c (any vertex
    when vcol is None).  Each component of those inner vertices, closed by
    its neighbours along those edges, joins all of its pairs.  Colors that
    cannot join a pair get no components (the skip rules of the module
    docstring).  Pair (u, v), u < v, is bit u*n + v of ``unc``.
    """
    full = (1 << n) - 1
    unc = 0
    for u in range(n - 1, -1, -1):
        row = full & ~adj[u] & -(2 << u)
        if ecol is None and row:  # drop the pairs with a common neighbour
            row &= ~_nbr(adj, adj[u])
        unc = unc << n | row
    if not unc:
        return None
    inner_of: dict[int, int] = {}
    if vcol is not None:
        for v, c in enumerate(vcol):
            inner_of[c] = inner_of.get(c, 0) | 1 << v
    if ecol is None:  # a one-vertex color joins only pairs dropped above
        layers = {c: adj for c, inner in inner_of.items() if inner & (inner - 1)}
    else:  # a one-edge color joins only adjacent pairs
        first: dict[int, int] = {}  # color -> index of its first edge
        layers = {}
        for i, c in enumerate(ecol):
            j = first.setdefault(c, i)
            if j != i:
                a = layers.get(c)
                if a is None:  # c's second edge: its first edge joins too
                    a = layers[c] = [0] * n
                    u, v = edges[j]
                    a[u] |= 1 << v
                    a[v] |= 1 << u
                u, v = edges[i]
                a[u] |= 1 << v
                a[v] |= 1 << u
        if vcol is None:  # a color's inner vertices are the ends of its edges
            for c, a in layers.items():
                inner_of[c] = _nbr(a, full)
    for c, cadj in layers.items():
        inner = inner_of.get(c, 0)
        while inner:
            s = (inner & -inner).bit_length() - 1
            # a vertex with no inner neighbour is a component on its own
            comp = _reach(cadj, s, inner) if cadj[s] & inner else 1 << s
            inner ^= comp
            closed = comp | _nbr(cadj, comp)
            if closed.bit_count() < 3:
                continue  # holds no non-adjacent pair
            rest = closed
            while rest:
                b = rest & -rest
                unc &= ~(closed << n * (b.bit_length() - 1))
                rest ^= b
            if not unc:
                return None
    return divmod((unc & -unc).bit_length() - 1, n)


def verify_tmc(g: Graph, tc: TotalColoring) -> tuple[bool, tuple[int, int] | None]:
    """Check total monochromatic connectivity; on failure return one
    uncovered pair (the lexicographically least)."""
    if len(tc.vertex_color) != g.n:
        raise ValueError("vertex color domain does not match the graph")
    gap = _first_gap(g.n, g.adj, g.edges, tc.vertex_color, _edge_colors(g, tc.edge_color))
    return gap is None, gap


def verify_mc(g: Graph, ec: EdgeColoring) -> tuple[bool, tuple[int, int] | None]:
    """Edge variant: a path qualifies when all its edges share one color."""
    gap = _first_gap(g.n, g.adj, g.edges, None, _edge_colors(g, ec.edge_color))
    return gap is None, gap


def verify_mvc(g: Graph, vc: VertexColoring) -> tuple[bool, tuple[int, int] | None]:
    """Vertex variant: internal vertices of the path must share one color."""
    if len(vc.vertex_color) != g.n:
        raise ValueError("vertex color domain does not match the graph")
    gap = _first_gap(g.n, g.adj, g.edges, vc.vertex_color, None)
    return gap is None, gap


# ---------------------------------------------------------------------------
# JSON wire format: {"vertex_colors": [...], "edge_colors": [[u, v, c], ...]}
# ---------------------------------------------------------------------------

def coloring_to_json(tc: TotalColoring | EdgeColoring | VertexColoring) -> str:
    obj: dict = {}
    if isinstance(tc, (TotalColoring, VertexColoring)):
        obj["vertex_colors"] = list(tc.vertex_color)
    if isinstance(tc, (TotalColoring, EdgeColoring)):
        obj["edge_colors"] = sorted([u, v, c] for (u, v), c in tc.edge_color.items())
    return json.dumps(obj)


def coloring_from_json(text: str) -> TotalColoring | EdgeColoring | VertexColoring:
    """Decode a coloring; the key set decides which kind it is."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("coloring JSON must be an object")
    has_v = "vertex_colors" in obj
    has_e = "edge_colors" in obj
    if not has_v and not has_e:
        raise ValueError("coloring JSON needs vertex_colors and/or edge_colors")
    vs, es = obj.get("vertex_colors", []), obj.get("edge_colors", [])
    if not (_naturals(vs) and isinstance(es, list) and all(_naturals(e) and len(e) == 3 for e in es)):
        raise ValueError("color ids must be non-negative integers, in a list for vertex_colors "
                         "and in [u, v, c] integer triples for edge_colors")
    ecol = { _norm_edge(u, v): c for u, v, c in es }
    if len(ecol) != len(es):
        raise ValueError("edge_colors names an edge more than once")
    if has_v and has_e:
        return TotalColoring(vertex_color=tuple(vs), edge_color=ecol)
    if has_e:
        return EdgeColoring(edge_color=ecol)
    return VertexColoring(vertex_color=tuple(vs))


def _naturals(xs: object) -> bool:
    """Whether ``xs`` is a JSON list of non-negative integers."""
    return isinstance(xs, list) and all(type(x) is int and x >= 0 for x in xs)
