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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, _reach


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
    norm = { _norm_edge(*e): c for e, c in ecol.items() }
    if len(norm) != len(ecol):
        raise ValueError("edge color domain names an edge more than once")
    if set(norm) != set(g.edges):
        raise ValueError("edge color domain does not match the graph's edge set")
    return norm


def _first_gap(
    n: int,
    adj: Sequence[int],
    edges: Sequence[Edge],
    pairs: Sequence[Edge],
    vcol: Sequence[int] | None,
    ecol: Sequence[int] | None,
) -> Edge | None:
    """First pair of ``pairs``, non-adjacent vertex pairs, that no
    monochromatic path joins, or None.

    ``ecol`` colors ``edges`` in order and ``vcol`` colors the vertices.  A
    path of color c uses only edges of color c (every edge when ecol is
    None) and has its internal vertices among those of color c (any vertex
    when vcol is None).  Each component of those inner vertices, closed by
    its neighbours along those edges, joins all of its pairs.
    """
    unc = (1 << len(pairs)) - 1
    if not unc:
        return None
    if ecol is None:
        layers = dict.fromkeys(vcol, adj)
    else:
        layers = {}
        for (u, v), c in zip(edges, ecol):
            a = layers.get(c)
            if a is None:
                a = layers[c] = [0] * n
            a[u] |= 1 << v
            a[v] |= 1 << u
    # vertices a path of color c may pass through; without vertex colors,
    # those touched by an edge of color c
    inner_of: dict[int, int] = {}
    if vcol is None:
        for (u, v), c in zip(edges, ecol):
            inner_of[c] = inner_of.get(c, 0) | (1 << u) | (1 << v)
    else:
        for v, c in enumerate(vcol):
            inner_of[c] = inner_of.get(c, 0) | (1 << v)
    for c, cadj in layers.items():
        inner = inner_of.get(c, 0)
        while inner:
            s = (inner & -inner).bit_length() - 1
            # a vertex with no inner neighbour is a component on its own
            comp = _reach(cadj, s, inner) if cadj[s] & inner else 1 << s
            inner ^= comp
            closed = comp
            while comp:
                b = comp & -comp
                closed |= cadj[b.bit_length() - 1]
                comp ^= b
            if closed.bit_count() < 3:
                continue  # holds no non-adjacent pair
            todo = unc
            while todo:
                b = todo & -todo
                u, v = pairs[b.bit_length() - 1]
                if closed >> u & closed >> v & 1:
                    unc ^= b
                todo ^= b
            if not unc:
                return None
    return pairs[(unc & -unc).bit_length() - 1]


def verify_tmc(g: Graph, tc: TotalColoring) -> tuple[bool, tuple[int, int] | None]:
    """Check total monochromatic connectivity; on failure return one
    uncovered pair (the lexicographically least)."""
    if len(tc.vertex_color) != g.n:
        raise ValueError("vertex color domain does not match the graph")
    ecol = _check_edge_domain(g, tc.edge_color)
    gap = _first_gap(g.n, g.adj, g.edges, g.nonadjacent_pairs(), tc.vertex_color,
                     [ecol[e] for e in g.edges])
    return gap is None, gap


def verify_mc(g: Graph, ec: EdgeColoring) -> tuple[bool, tuple[int, int] | None]:
    """Edge variant: a path qualifies when all its edges share one color."""
    ecol = _check_edge_domain(g, ec.edge_color)
    gap = _first_gap(g.n, g.adj, g.edges, g.nonadjacent_pairs(), None,
                     [ecol[e] for e in g.edges])
    return gap is None, gap


def verify_mvc(g: Graph, vc: VertexColoring) -> tuple[bool, tuple[int, int] | None]:
    """Vertex variant: internal vertices of the path must share one color."""
    if len(vc.vertex_color) != g.n:
        raise ValueError("vertex color domain does not match the graph")
    gap = _first_gap(g.n, g.adj, g.edges, g.nonadjacent_pairs(), vc.vertex_color, None)
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
