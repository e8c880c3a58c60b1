"""Total / edge / vertex colorings and the three connectivity verifiers.

A path is total monochromatic when all its edges and all its internal
vertices carry one color; endpoint colors never matter, so a single-edge path
qualifies unconditionally.  The edge variant constrains edges only, the
vertex variant internal vertices only (hence any path of length <= 2 is
automatically vertex-monochromatic).

Verification never enumerates paths.  For each color actually used it builds
the reachability structure of that color class once, then marks every vertex
pair the class connects; a coloring is accepted when adjacency plus the union
of per-color coverage hits all pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .graphs import Graph, _bits


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

    def restrict_edges(self) -> EdgeColoring:
        return EdgeColoring(edge_color=dict(self.edge_color))


def total_coloring(g: Graph, vertex_colors: Iterable[int], edge_colors: Mapping[Edge, int] | Iterable[int]) -> TotalColoring:
    """Build a TotalColoring for g, validating the domain exactly."""
    vcol = tuple(vertex_colors)
    if len(vcol) != g.n:
        raise ValueError(f"expected {g.n} vertex colors, got {len(vcol)}")
    if isinstance(edge_colors, Mapping):
        ecol = { _norm_edge(*e): c for e, c in edge_colors.items() }
    else:
        seq = list(edge_colors)
        if len(seq) != g.m:
            raise ValueError(f"expected {g.m} edge colors, got {len(seq)}")
        ecol = dict(zip(g.edges, seq))
    if set(ecol) != set(g.edges):
        raise ValueError("edge color domain does not match the graph's edge set")
    if any(c < 0 for c in vcol) or any(c < 0 for c in ecol.values()):
        raise ValueError("color ids must be non-negative")
    return TotalColoring(vertex_color=vcol, edge_color=ecol)


def _check_edge_domain(g: Graph, ecol: Mapping[Edge, int]) -> dict[Edge, int]:
    norm = { _norm_edge(*e): c for e, c in ecol.items() }
    if set(norm) != set(g.edges):
        raise ValueError("edge color domain does not match the graph's edge set")
    return norm


class _UnionFind:
    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _pairs_mask_within(vmask: int) -> list[tuple[int, int]]:
    vs = _bits(vmask)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def _tmc_coverage(g: Graph, tc: TotalColoring) -> set[tuple[int, int]]:
    """All vertex pairs joined by some total monochromatic path."""
    covered: set[tuple[int, int]] = set(g.edges)
    by_color: dict[int, list[Edge]] = {}
    for e, c in tc.edge_color.items():
        by_color.setdefault(c, []).append(e)
    for c, es in by_color.items():
        core = {v for v in range(g.n) if tc.vertex_color[v] == c}
        uf = _UnionFind(core)
        for u, v in es:
            if u in core and v in core:
                uf.union(u, v)
        reach: dict[int, int] = {}
        for v in core:
            r = uf.find(v)
            reach[r] = reach.get(r, 0) | (1 << v)
        for u, v in es:
            if u in core:
                reach[uf.find(u)] |= 1 << v
            if v in core:
                reach[uf.find(v)] |= 1 << u
        for vmask in reach.values():
            covered.update(_pairs_mask_within(vmask))
    return covered


def verify_tmc(g: Graph, tc: TotalColoring) -> tuple[bool, tuple[int, int] | None]:
    """Check total monochromatic connectivity; on failure return one
    uncovered pair (the lexicographically least)."""
    if len(tc.vertex_color) != g.n:
        raise ValueError("vertex color domain does not match the graph")
    _check_edge_domain(g, tc.edge_color)
    covered = _tmc_coverage(g, tc)
    for p in g.nonadjacent_pairs():
        if p not in covered:
            return False, p
    return True, None


def verify_mc(g: Graph, ec: EdgeColoring) -> tuple[bool, tuple[int, int] | None]:
    """Edge variant: a path qualifies when all its edges share one color."""
    ecol = _check_edge_domain(g, ec.edge_color)
    covered: set[tuple[int, int]] = set(g.edges)
    by_color: dict[int, list[Edge]] = {}
    for e, c in ecol.items():
        by_color.setdefault(c, []).append(e)
    for es in by_color.values():
        verts = set()
        for u, v in es:
            verts.add(u)
            verts.add(v)
        uf = _UnionFind(verts)
        for u, v in es:
            uf.union(u, v)
        comp: dict[int, int] = {}
        for v in verts:
            r = uf.find(v)
            comp[r] = comp.get(r, 0) | (1 << v)
        for vmask in comp.values():
            covered.update(_pairs_mask_within(vmask))
    for p in g.nonadjacent_pairs():
        if p not in covered:
            return False, p
    return True, None


def verify_mvc(g: Graph, vc: VertexColoring) -> tuple[bool, tuple[int, int] | None]:
    """Vertex variant: internal vertices of the path must share one color."""
    if len(vc.vertex_color) != g.n:
        raise ValueError("vertex color domain does not match the graph")
    covered: set[tuple[int, int]] = set(g.edges)
    classes: dict[int, int] = {}
    for v, c in enumerate(vc.vertex_color):
        classes[c] = classes.get(c, 0) | (1 << v)
    for cmask in classes.values():
        # components of the induced class subgraph, then close by neighbours
        todo = cmask
        while todo:
            start = (todo & -todo).bit_length() - 1
            comp = 1 << start
            frontier = comp
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= g.adj[v]
                nxt &= cmask & ~comp
                comp |= nxt
                frontier = nxt
            todo &= ~comp
            closed = comp
            for v in _bits(comp):
                closed |= g.adj[v]
            covered.update(_pairs_mask_within(closed))
    for p in g.nonadjacent_pairs():
        if p not in covered:
            return False, p
    return True, None


# ---------------------------------------------------------------------------
# Color-class analysis: trees, waste and simplicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColorClass:
    color: int
    edges: tuple[Edge, ...]
    colored_vertices: tuple[int, ...]
    is_tree: bool
    is_nontrivial: bool
    internal_vertices: tuple[int, ...]
    internal_vertices_all_colored: bool
    waste: int | None  # m' - 1 + q' for nontrivial tree classes, else None


@dataclass(frozen=True)
class ColorClassReport:
    classes: tuple[ColorClass, ...]
    color_count: int
    total_waste: int
    is_simple: bool
    leaves_distinctly_colored: bool
    is_valid_tmc: bool
    failure_pair: tuple[int, int] | None = field(default=None)


def analyze_color_classes(g: Graph, tc: TotalColoring) -> ColorClassReport:
    """Per-color structure report: tree shape, waste bookkeeping, simplicity.

    Waste is m'-1+q' for a nontrivial (>= 2 edges) tree class with m' edges
    and q' internal vertices; when every class is a valid color tree the
    identity color_count + total_waste = m + n holds.
    """
    ok, fail = verify_tmc(g, tc)
    colors = sorted(set(tc.vertex_color) | set(tc.edge_color.values()))
    classes = []
    nontrivial_vsets: list[int] = []
    leaves_ok = True
    for c in colors:
        es = tuple(sorted(e for e, cc in tc.edge_color.items() if cc == c))
        vcolored = tuple(v for v in range(g.n) if tc.vertex_color[v] == c)
        vmask = 0
        deg: dict[int, int] = {}
        for u, v in es:
            vmask |= (1 << u) | (1 << v)
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        for v in vcolored:
            vmask |= 1 << v
        nverts = bin(vmask).count("1")
        # a class is a tree when its subgraph is connected and acyclic
        if nverts == 0:
            is_tree = False  # empty class cannot arise (color came from somewhere)
        else:
            uf = _UnionFind(_bits(vmask))
            acyclic = True
            comps = nverts
            for u, v in es:
                if uf.find(u) == uf.find(v):
                    acyclic = False
                else:
                    uf.union(u, v)
                    comps -= 1
            is_tree = acyclic and comps == 1
        internal = tuple(sorted(v for v, d in deg.items() if d >= 2))
        nontrivial = len(es) >= 2
        internal_ok = all(tc.vertex_color[v] == c for v in internal)
        waste = (len(es) - 1 + len(internal)) if (nontrivial and is_tree) else None
        if nontrivial and is_tree:
            nontrivial_vsets.append(vmask)
            leaf_colors = [tc.vertex_color[v] for v, d in deg.items() if d == 1]
            if len(set(leaf_colors)) != len(leaf_colors) or c in leaf_colors:
                leaves_ok = False
        classes.append(
            ColorClass(
                color=c,
                edges=es,
                colored_vertices=vcolored,
                is_tree=is_tree,
                is_nontrivial=nontrivial,
                internal_vertices=internal,
                internal_vertices_all_colored=internal_ok,
                waste=waste,
            )
        )
    simple = all(
        bin(a & b).count("1") <= 1
        for i, a in enumerate(nontrivial_vsets)
        for b in nontrivial_vsets[i + 1:]
    )
    return ColorClassReport(
        classes=tuple(classes),
        color_count=len(colors),
        total_waste=sum(cl.waste or 0 for cl in classes),
        is_simple=simple,
        leaves_distinctly_colored=leaves_ok,
        is_valid_tmc=ok,
        failure_pair=fail,
    )


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
    has_v = "vertex_colors" in obj
    has_e = "edge_colors" in obj
    if not has_v and not has_e:
        raise ValueError("coloring JSON needs vertex_colors and/or edge_colors")
    ecol = { _norm_edge(u, v): c for u, v, c in obj.get("edge_colors", []) }
    if has_v and has_e:
        return TotalColoring(vertex_color=tuple(obj["vertex_colors"]), edge_color=ecol)
    if has_e:
        return EdgeColoring(edge_color=ecol)
    return VertexColoring(vertex_color=tuple(obj["vertex_colors"]))
