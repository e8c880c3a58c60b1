"""Independent test oracles.

Everything here recomputes results by a route different from the library
implementation it checks: spanning trees by edge-subset enumeration instead
of dominating-set search, path existence by explicit DFS instead of
component closure, connectivity thresholds by vertex-cut enumeration instead
of max-flow, vertex connectivity by dict max-flow over every non-adjacent
pair instead of bitset augmenting paths over the Esfahanian-Hakimi pairs,
covering tree systems by subtree enumeration instead of vertex-set
candidates, non-dominated tmc candidates by enumerating every (S, I) and
dropping those with a cheaper (S, I - x) or a leaf adjacent to all of S
instead of private leaf sets and a common-neighbourhood mask, non-dominated
mc and mvc candidates by enumerating vertex sets and dropping those with a
one-vertex-smaller candidate of the same cover instead of per-set table
lookups, the cheapest single cover by scanning the sorted candidates
instead of reading it off the universal vertices, the cover search's count
bound by a recurrence over single candidates instead of a knapsack over the
largest cover of each waste, complete multipartite class sizes by checking
that every component of the complement is a clique instead of a partition
test on the non-neighbourhoods, labelled connected graphs by building each
pair mask's graph with from_edge_list and testing it by DFS instead of
half-mask tables and the bitset closure, and G(n, p) by walking
combinations afresh with one rng.random lookup per pair instead of
filtering the cached pair table with a bound draw.

The definition-level partition searches tmc_naive, mc_naive and
mvc_partition_reference (with _rgs_with_block_count and the guards
MAX_NAIVE_ITEMS, MAX_NAIVE_EDGES and MAX_MVC_ENUM_N) maximize the color
count over set partitions of the colorable items by decreasing block count,
checking each with the verifiers' coverage kernel, instead of minimizing
waste over covering tree systems.

witness_trees reads the covering tree system back off a tmc or mc witness
coloring, one tree per color of at least two edges; validate_system checks
those trees against the definition of a covering tree system, and for a tmc
witness that the tree's color lies on exactly its internal vertices; and
analyze_color_classes reports the structure of each color class of a total
coloring (tree shape, waste, simplicity).  All three work on vertex and
edge sets and per-tree graphs instead of the library's bitset tables.

relabel_report_reference moves a report on relabel(g, order) onto g's
vertices by relabelling each edge's endpoints, instead of through one
canonical-to-caller edge map shared by the three reports.

diameter2_bound_reference selects the diameter-2 size bound's case by the
printed rational ranges of the max degree, with Fraction, instead of
integer comparisons of the ranges' lower ends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from monoconn.coloring import EdgeColoring, TotalColoring, VertexColoring, _first_gap, verify_tmc
from monoconn.graphs import Graph, _bits, diameter, from_edge_list, is_connected
from monoconn.solvers import SolverRangeError, SolverReport


def spanning_trees(g: Graph):
    """Yield every spanning tree as an edge tuple (edge-subset enumeration)."""
    n, m = g.n, g.m
    if n == 1:
        yield ()
        return
    for subset in combinations(range(m), n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i in subset:
            u, v = g.edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            yield tuple(g.edges[i] for i in subset)


def leaf_count(n: int, tree_edges) -> int:
    deg = [0] * n
    for u, v in tree_edges:
        deg[u] += 1
        deg[v] += 1
    return sum(1 for d in deg if d == 1)


def max_leaves_oracle(g: Graph) -> int:
    """l(G) by exhaustive spanning-tree enumeration."""
    return max(leaf_count(g.n, t) for t in spanning_trees(g))


def min_internal_oracle(g: Graph) -> int:
    """q(G) by the same enumeration."""
    return min(g.n - leaf_count(g.n, t) for t in spanning_trees(g))


# ---------------------------------------------------------------------------
# Path-existence checks straight from the definitions (DFS over simple paths)
# ---------------------------------------------------------------------------

def _simple_paths(g: Graph, u: int, v: int):
    stack = [(u, [u])]
    while stack:
        x, path = stack.pop()
        if x == v:
            yield path
            continue
        for y in _bits(g.adj[x]):
            if y not in path:
                stack.append((y, path + [y]))


def tm_path_exists(g: Graph, vcol, ecol, u: int, v: int) -> bool:
    """Total monochromatic u-v path by brute-force path search."""
    for path in _simple_paths(g, u, v):
        if len(path) == 2:
            return True
        edge_colors = {
            ecol[(a, b) if a < b else (b, a)]
            for a, b in zip(path, path[1:])
        }
        inner_colors = {vcol[x] for x in path[1:-1]}
        if len(edge_colors | inner_colors) == 1:
            return True
    return False


def mono_edge_path_exists(g: Graph, ecol, u: int, v: int) -> bool:
    for path in _simple_paths(g, u, v):
        colors = {
            ecol[(a, b) if a < b else (b, a)]
            for a, b in zip(path, path[1:])
        }
        if len(colors) == 1:
            return True
    return False


def mono_vertex_path_exists(g: Graph, vcol, u: int, v: int) -> bool:
    for path in _simple_paths(g, u, v):
        if len(path) <= 3:
            return True
        if len({vcol[x] for x in path[1:-1]}) == 1:
            return True
    return False


def all_partitions(items: int):
    """Every restricted growth string over ``items`` positions."""
    a = [0] * items

    def rec(i: int, mx: int):
        if i == items:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(0, -1)


def mvc_brute(g: Graph) -> int:
    """mvc by full partition enumeration plus DFS path checks."""
    pairs = g.nonadjacent_pairs()
    best = 0
    for vcol in all_partitions(g.n):
        blocks = len(set(vcol))
        if blocks <= best:
            continue
        if all(mono_vertex_path_exists(g, vcol, u, v) for u, v in pairs):
            best = blocks
    return best


def k_connected_bf(g: Graph, k: int) -> bool:
    """kappa(G) >= k by enumerating all vertex cuts of size < k."""
    if g.n <= k:
        return False
    if not is_connected(g):
        return k == 0
    for size in range(1, k):
        for cut in combinations(range(g.n), size):
            keep = [v for v in range(g.n) if v not in cut]
            relabel = {v: i for i, v in enumerate(keep)}
            edges = [
                (relabel[u], relabel[v])
                for u, v in g.edges
                if u in relabel and v in relabel
            ]
            sub = from_edge_list(len(keep), edges)
            if not is_connected(sub):
                return False
    return True


def _local_vertex_connectivity(g: Graph, s: int, t: int) -> int:
    """Maximum number of internally vertex-disjoint s-t paths (s,t non-adjacent).

    Unit-capacity max-flow on the split digraph: every vertex other than s,t
    becomes an in/out pair joined by a capacity-1 arc; each edge becomes a pair
    of directed arcs of effectively infinite capacity.
    """
    n = g.n
    # node ids: out(v) = v, in(v) = v + n ; arcs via capacity dict
    INF = n * n + 1
    cap: dict[tuple[int, int], int] = {}

    def add(a: int, b: int, c: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)

    for v in range(n):
        if v != s and v != t:
            add(v + n, v, 1)
    for u, v in g.edges:
        add(u, v + n if v not in (s, t) else v, INF)
        add(v, u + n if u not in (s, t) else u, INF)
    source, sink = s, t
    adj_f: dict[int, list[int]] = {}
    for (a, b) in cap:
        adj_f.setdefault(a, []).append(b)
    flow = 0
    while True:
        # BFS for an augmenting path
        parent = {source: source}
        queue = [source]
        while queue and sink not in parent:
            nxt = []
            for a in queue:
                for b in adj_f.get(a, ()):
                    if b not in parent and cap[(a, b)] > 0:
                        parent[b] = a
                        nxt.append(b)
            queue = nxt
        if sink not in parent:
            return flow
        b = sink
        while b != source:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1


def vertex_connectivity_reference(g: Graph) -> int:
    """Vertex connectivity by max-flow over every non-adjacent pair (n-1 for K_n)."""
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.is_complete():
        return g.n - 1
    return min(
        _local_vertex_connectivity(g, u, v) for u, v in g.nonadjacent_pairs()
    )


def multipartite_sizes_reference(g: Graph) -> list[int] | None:
    """Class sizes (descending) when g is complete multipartite, else None:
    the components of the complement, found by DFS over vertex sets, must
    each be a clique of the complement."""
    non = {v: {u for u in range(g.n) if u != v and not g.has_edge(u, v)} for v in range(g.n)}
    left, sizes = set(range(g.n)), []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            for u in non[stack.pop()] - comp:
                comp.add(u)
                stack.append(u)
        if any(non[v] != comp - {v} for v in comp):
            return None
        left -= comp
        sizes.append(len(comp))
    return sorted(sizes, reverse=True)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# Covering tree systems by subtree enumeration
# ---------------------------------------------------------------------------

def tree_system_reference(g: Graph, total: bool) -> int:
    """tmc (``total``) or mc of a connected graph by minimum-waste search over
    enumerated subtrees: edge-disjoint trees, and for tmc internal-disjoint
    and pairwise sharing at most one vertex.  The incumbent is a spanning
    tree with the fewest internal vertices (tmc) or any spanning tree (mc)."""
    top = g.m + g.n if total else g.m
    if g.is_complete():
        return top
    ub0 = g.n - 2 + (min_internal_oracle(g) if total else 0)
    pairs = g.nonadjacent_pairs()
    pair_bits = [(1 << u) | (1 << v) for u, v in pairs]
    cands = _useful_subtrees(g, pair_bits, cap=ub0 - 1, count_internal=total)
    best, _, _ = _solve_cover(
        cands, len(pairs), ub0,
        use_internal_disjoint=total, use_simple=total, count_offset=1 if total else 2,
    )
    return top - best


def _useful_subtrees(
    g: Graph, pair_bits: Sequence[int], cap: int, count_internal: bool
) -> list[tuple[int, int, int, int, int]]:
    """All subtrees with >= 2 edges, waste <= cap, containing a non-adjacent
    pair, as (waste, emask, imask, vmask, cover) tuples.

    Waste is edges-1+internals when ``count_internal`` else edges-1.  Trees
    are enumerated once each: roots are minimum tree vertices, and at every
    expansion step taking the i-th frontier edge permanently bans the earlier
    ones (each target tree forces the minimum-index frontier choice, so it is
    generated along exactly one branch).
    """
    n = g.n
    edges = g.edges
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    out: list[tuple[int, int, int, int, int]] = []
    cover_cache: dict[int, int] = {}

    def cover_of(vmask: int) -> int:
        c = cover_cache.get(vmask)
        if c is None:
            c = 0
            for j, pb in enumerate(pair_bits):
                if vmask & pb == pb:
                    c |= 1 << j
            cover_cache[vmask] = c
        return c

    deg = [0] * n

    def grow(r: int, vmask: int, emask: int, nedge: int, ninternal: int, banned: int) -> None:
        if nedge >= 2:
            waste = nedge - 1 + (ninternal if count_internal else 0)
            cov = cover_of(vmask)
            if cov and waste <= cap:
                imask = 0
                if count_internal:
                    for v in _bits(vmask):
                        if deg[v] >= 2:
                            imask |= 1 << v
                out.append((waste, emask, imask, vmask, cov))
        # frontier: non-banned edges leaving vmask toward vertices >= r
        frontier: list[tuple[int, int, int]] = []
        mm = vmask
        while mm:
            b = mm & -mm
            u = b.bit_length() - 1
            mm ^= b
            for i in incident[u]:
                if (banned >> i) & 1 or (emask >> i) & 1:
                    continue
                a, c = edges[i]
                x = c if a == u else a
                if x >= r and not (vmask >> x) & 1:
                    frontier.append((i, u, x))
        frontier.sort()
        newly_banned = banned
        for i, u, x in frontier:
            # waste after adding: edges+1-1 (+ internals), monotone in growth
            ni = ninternal + (1 if deg[u] == 1 else 0)
            w_next = nedge + (ni if count_internal else 0)
            if w_next <= cap:
                deg[u] += 1
                deg[x] += 1
                grow(r, vmask | (1 << x), emask | (1 << i), nedge + 1, ni, newly_banned)
                deg[u] -= 1
                deg[x] -= 1
            newly_banned |= 1 << i

    for r in range(n):
        grow(r, 1 << r, 0, 0, 0, 0)
    out.sort()
    return out


def _count_lb_table(npairs: int, offset: int) -> list[int]:
    """need[u] = least total waste whose trees can cover u pairs
    (one tree of waste w spans at most w+offset vertices)."""
    need = [0] * (npairs + 1)
    for u in range(1, npairs + 1):
        b = 1
        while (b + offset) * (b + offset - 1) // 2 < u:
            b += 1
        need[u] = b
    return need


def count_lb_reference(cands, npairs: int, limit: int) -> list[int]:
    """need[u] = least total waste of a multiset of candidates whose cover
    sizes add up to at least u, capped at ``limit``: a recurrence over
    single candidates (pick one, then cover the rest)."""
    need = [0] + [limit] * npairs
    for u in range(1, npairs + 1):
        for w, _, _, _, cov in cands:
            need[u] = min(need[u], w + need[max(0, u - cov.bit_count())])
    return need


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _solve_cover(
    cands: list[tuple[int, int, int, int, int]],
    npairs: int,
    ub_waste: int,
    use_internal_disjoint: bool,
    use_simple: bool,
    count_offset: int,
) -> tuple[int, list[int] | None, int]:
    """Branch-and-bound minimum-waste cover.

    Returns (best_waste, chosen candidate indices or None when nothing beat
    the incumbent upper bound, nodes explored).
    """
    allp = (1 << npairs) - 1
    by_pair: list[list[int]] = [[] for _ in range(npairs)]
    for ci, (_, _, _, _, cov) in enumerate(cands):
        cc = cov
        while cc:
            b = cc & -cc
            by_pair[b.bit_length() - 1].append(ci)
            cc ^= b
    min_w = [
        (cands[lst[0]][0] if lst else None) for lst in by_pair
    ]
    if any(w is None for w in min_w):
        # some pair cannot be covered within the cap: incumbent is optimal
        return ub_waste, None, 0
    need = _count_lb_table(npairs, count_offset)
    best = ub_waste
    best_pick: list[int] | None = None
    nodes = 0

    def bb(covered: int, used_e: int, used_i: int, waste: int, vsets: list[int], pick: list[int]) -> None:
        nonlocal best, best_pick, nodes
        nodes += 1
        unc = allp & ~covered
        if not unc:
            if waste < best:
                best = waste
                best_pick = pick.copy()
            return
        lb = need[_popcount(unc)]
        cc = unc
        while cc:
            b = cc & -cc
            w = min_w[b.bit_length() - 1]
            if w > lb:
                lb = w
            cc ^= b
        if waste + lb >= best:
            return
        j = (unc & -unc).bit_length() - 1
        for ci in by_pair[j]:
            w, em, im, vm, cov = cands[ci]
            if waste + w >= best:
                break
            if em & used_e:
                continue
            if use_internal_disjoint and (im & used_i):
                continue
            if use_simple and any(_popcount(vm & pv) >= 2 for pv in vsets):
                continue
            vsets.append(vm)
            pick.append(ci)
            bb(covered | cov, used_e | em, used_i | im, waste + w, vsets, pick)
            pick.pop()
            vsets.pop()

    bb(0, 0, 0, 0, [], [])
    return best, best_pick, nodes


def _connected_set(g: Graph, vs: set[int]) -> bool:
    """Whether G[vs] is connected (vs non-empty), by DFS over vertex sets."""
    start = next(iter(vs))
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for w in range(g.n):
            if w in vs and w not in seen and (g.adj[u] >> w) & 1:
                seen.add(w)
                stack.append(w)
    return seen == vs


def labeled_connected_reference(n: int) -> Iterator[Graph]:
    """The labelled connected graphs on n vertices, mask by mask in
    increasing order; bit i of a mask is the i-th pair of combinations."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = from_edge_list(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
        if _connected_set(g, set(range(n))):
            yield g


def random_gnp_reference(n: int, p: float, seed: int) -> Graph:
    """G(n, p) drawn as random_gnp drew it before its pair table: a fresh
    combinations walk, with rng.random looked up for each pair."""
    if n < 1:
        raise ValueError("random graph needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0,1]")
    rng = random.Random(seed)
    pairs = [e for e in combinations(range(n), 2) if rng.random() < p]
    # the pairs are distinct, in range and already sorted
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n=n, edges=tuple(pairs), adj=tuple(adj))


def _mask(vs) -> int:
    return sum(1 << v for v in vs)


def _inside(g: Graph, pairs: Sequence[tuple[int, int]], vs) -> tuple[int, int]:
    """(induced edge mask, mask of the pairs inside) of a vertex set."""
    return (
        _mask(i for i, (u, v) in enumerate(g.edges) if u in vs and v in vs),
        _mask(j for j, (u, v) in enumerate(pairs) if u in vs and v in vs),
    )


def tmc_candidates_reference(
    g: Graph, pairs: Sequence[tuple[int, int]], cap: int, reduced: bool = True
) -> list[tuple[int, int, int, int, int]]:
    """tmc candidates as sorted (waste, emask, imask, vmask, cover) tuples.

    Enumerates every (S, I) with I connected, S - I a set of at least two
    vertices adjacent to I, a non-adjacent pair inside S and waste
    |S| - 2 + |I| <= cap.  With ``reduced`` it then drops each (S, I) for
    which some (S, I - x), x in I, is also among them, and each (S, I) with a
    leaf adjacent to every other vertex of S."""
    n = g.n
    every = []
    for k in range(1, n + 1):
        for inner in combinations(range(n), k):
            if not _connected_set(g, set(inner)):
                continue
            around = [
                w for w in range(n)
                if w not in inner and any((g.adj[v] >> w) & 1 for v in inner)
            ]
            for size in range(2, min(len(around), cap + 2 - 2 * k) + 1):
                for leaves in combinations(around, size):
                    emask, cover = _inside(g, pairs, inner + leaves)
                    if cover:
                        vmask = _mask(inner) | _mask(leaves)
                        every.append((2 * k + size - 2, emask, _mask(inner), vmask, cover))
    if not reduced:
        return sorted(every)
    keys = {(vmask, imask) for _, _, imask, vmask, _ in every}

    def lonely_leaf(vmask: int, imask: int) -> bool:
        return any(
            all(g.has_edge(v, u) for u in _bits(vmask) if u != v)
            for v in _bits(vmask & ~imask)
        )

    return sorted(
        c for c in every
        if not any((c[3], c[2] & ~(1 << x)) in keys for x in _bits(c[2]))
        and not lonely_leaf(c[3], c[2])
    )


def mc_candidates_reference(
    g: Graph, pairs: Sequence[tuple[int, int]], cap: int, reduced: bool = True
) -> list[tuple[int, int, int, int, int]]:
    """mc candidates as sorted (waste, emask, 0, vmask, cover) tuples.

    Enumerates every connected vertex set S with a pair inside and waste
    |S| - 2 <= cap.  With ``reduced`` it then drops each S for which some
    S - v is also among them and covers the same pairs."""
    every = {}
    for k in range(2, min(g.n, cap + 2) + 1):
        for vs in combinations(range(g.n), k):
            if _connected_set(g, set(vs)):
                emask, cover = _inside(g, pairs, vs)
                if cover:
                    every[_mask(vs)] = (k - 2, emask, 0, _mask(vs), cover)
    return _drop_same_cover_subsets(every, reduced)


def mvc_candidates_reference(
    g: Graph, pairs: Sequence[tuple[int, int]], cap: int, reduced: bool = True
) -> list[tuple[int, int, int, int, int]]:
    """mvc candidates as sorted (waste, 0, imask, imask, cover) tuples.

    Enumerates every connected vertex set I with a pair inside its closed
    neighbourhood and waste |I| - 1 <= cap.  With ``reduced`` it then drops
    each I for which some I - x is also among them and covers the same
    pairs."""
    every = {}
    for k in range(1, min(g.n, cap + 1) + 1):
        for vs in combinations(range(g.n), k):
            if _connected_set(g, set(vs)):
                closed = {w for w in range(g.n) if w in vs or any(g.has_edge(v, w) for v in vs)}
                _, cover = _inside(g, pairs, closed)
                if cover:
                    every[_mask(vs)] = (k - 1, 0, _mask(vs), _mask(vs), cover)
    return _drop_same_cover_subsets(every, reduced)


def _drop_same_cover_subsets(every: dict, reduced: bool) -> list[tuple[int, int, int, int, int]]:
    """Sorted candidates of a {vertex set: candidate} map; with ``reduced``
    without those for which the set less one vertex is also a candidate
    with the same cover."""

    def dominated(c) -> bool:
        return any(
            (smaller := every.get(c[3] & ~(1 << v))) is not None and smaller[4] == c[4]
            for v in _bits(c[3])
        )

    return sorted(c for c in every.values() if not (reduced and dominated(c)))


def single_cover(cands: Sequence[tuple[int, ...]], pairs: int) -> int | None:
    """Index of the first, hence cheapest, of the sorted (waste, ...,
    cover) tuples ``cands`` whose cover alone is ``pairs``, or None."""
    return next((ci for ci, c in enumerate(cands) if c[-1] == pairs), None)


# ---------------------------------------------------------------------------
# Definition-level partition searches (restricted-growth-string enumeration)
# ---------------------------------------------------------------------------

MAX_NAIVE_ITEMS = 12
MAX_NAIVE_EDGES = 10
MAX_MVC_ENUM_N = 10


def _rgs_with_block_count(k: int, blocks: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length k using exactly ``blocks`` values."""
    if blocks < 1 or blocks > k:
        return
    a = [0] * k

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            if mx + 1 == blocks:
                yield tuple(a)
            return
        if mx + 1 + (k - i) < blocks:  # cannot open enough new blocks
            return
        hi = min(mx + 1, blocks - 1)
        for v in range(hi + 1):
            a[i] = v
            yield from rec(i + 1, mx if v <= mx else v)

    yield from rec(0, -1)


def tmc_naive(g: Graph) -> SolverReport:
    """Definition-level tmc: maximize block count over partitions of the
    m + n items, checking each candidate for total monochromatic
    connectivity.  Guarded to m + n <= 12."""
    if not is_connected(g):
        raise ValueError("disconnected")
    items = g.m + g.n
    if items > MAX_NAIVE_ITEMS:
        raise SolverRangeError(
            f"tmc_naive accepts m + n <= {MAX_NAIVE_ITEMS}, got {items}"
        )
    nodes = 0
    for blocks in range(items, 0, -1):
        for rgs in _rgs_with_block_count(items, blocks):
            nodes += 1
            vcol = rgs[: g.n]
            ecol = rgs[g.n:]
            if _first_gap(g.n, g.adj, g.edges, vcol, ecol) is None:
                witness = TotalColoring(
                    vertex_color=tuple(vcol),
                    edge_color=dict(zip(g.edges, ecol)),
                )
                return SolverReport(
                    value=blocks,
                    witness=witness,
                    nodes_explored=nodes,
                    method="naive_partition",
                    bounds_used={"value_upper": items},
                )
    raise AssertionError("single-block coloring must verify")  # pragma: no cover


def mc_naive(g: Graph) -> SolverReport:
    """Definition-level mc over edge-set partitions; guarded to m <= 10."""
    if not is_connected(g):
        raise ValueError("disconnected")
    if g.m > MAX_NAIVE_EDGES:
        raise SolverRangeError(f"mc_naive accepts m <= {MAX_NAIVE_EDGES}, got {g.m}")
    if g.m == 0:
        return SolverReport(
            value=0,
            witness=EdgeColoring(edge_color={}),
            nodes_explored=0,
            method="naive_partition",
        )
    nodes = 0
    for blocks in range(g.m, 0, -1):
        for rgs in _rgs_with_block_count(g.m, blocks):
            nodes += 1
            if _first_gap(g.n, g.adj, g.edges, None, rgs) is None:
                return SolverReport(
                    value=blocks,
                    witness=EdgeColoring(edge_color=dict(zip(g.edges, rgs))),
                    nodes_explored=nodes,
                    method="naive_partition",
                    bounds_used={"value_upper": g.m},
                )
    raise AssertionError("single-color edge coloring must verify")  # pragma: no cover


def mvc_partition_reference(g: Graph) -> SolverReport:
    """Definition-level mvc over vertex partitions.

    Diameter <= 2 gives mvc = n outright.  Otherwise vertex partitions are
    enumerated as restricted growth strings by decreasing block count,
    starting from the upper bound n - d + 2.
    """
    if not is_connected(g):
        raise ValueError("disconnected")
    d = diameter(g)
    if d <= 2:
        return SolverReport(
            value=g.n,
            witness=VertexColoring(vertex_color=tuple(range(g.n))),
            nodes_explored=0,
            method="shortcut",
            bounds_used={"value_upper": g.n},
        )
    if g.n > MAX_MVC_ENUM_N:
        raise SolverRangeError(
            f"mvc_partition_reference accepts n <= {MAX_MVC_ENUM_N}, got {g.n}"
        )
    nodes = 0
    for blocks in range(min(g.n - d + 2, g.n), 0, -1):
        for rgs in _rgs_with_block_count(g.n, blocks):
            nodes += 1
            if _first_gap(g.n, g.adj, g.edges, rgs, None) is None:
                return SolverReport(
                    value=blocks,
                    witness=VertexColoring(vertex_color=rgs),
                    nodes_explored=nodes,
                    method="naive_partition",
                    bounds_used={"value_upper": g.n - d + 2},
                )
    raise AssertionError("single-color vertex coloring must verify")  # pragma: no cover


# ---------------------------------------------------------------------------
# Witness structure: tree systems and color classes
# ---------------------------------------------------------------------------

Tree = tuple[list[tuple[int, int]], set[int] | None]  # (edges, internal)


def witness_trees(g: Graph, coloring: TotalColoring | EdgeColoring) -> list[Tree]:
    """The covering tree system a tmc or mc witness carries, as (edges,
    internal) pairs in edge order: one tree per color of at least two
    edges, its edges sorted.  For a TotalColoring the internal set is the
    vertices of that color; for an EdgeColoring it is None."""
    edges_of: dict[int, list[tuple[int, int]]] = {}
    for e, c in coloring.edge_color.items():
        edges_of.setdefault(c, []).append(e)
    trees = []
    for c, edges in edges_of.items():
        if len(edges) >= 2:
            internal = None
            if isinstance(coloring, TotalColoring):
                internal = {v for v in range(g.n) if coloring.vertex_color[v] == c}
            trees.append((sorted(edges), internal))
    return sorted(trees, key=lambda t: t[0])


def validate_system(g: Graph, trees: Sequence[Tree]) -> None:
    """Raise ValueError on any violated invariant of a covering tree system
    of (edges, internal) pairs: each tree has at least two edges of g and
    is a tree; no edge lies in two trees; every non-adjacent pair of g lies
    in some tree.  Where ``internal`` is a set (a total-coloring system) it
    is exactly the tree's vertices of degree >= 2, and no vertex is
    internal to two trees."""
    seen_edges: set[tuple[int, int]] = set()
    seen_internal: set[int] = set()
    covered: set[tuple[int, int]] = set()
    for edges, internal in trees:
        if len(edges) < 2:
            raise ValueError("system tree with fewer than 2 edges")
        for u, v in edges:
            e = (min(u, v), max(u, v))
            if e not in g.edges:
                raise ValueError(f"tree edge {(u, v)} not in graph")
            if e in seen_edges:
                raise ValueError(f"edge {e} reused across trees")
            seen_edges.add(e)
        tree = from_edge_list(g.n, edges)
        verts = {v for v in range(g.n) if tree.adj[v]}
        if len(edges) != len(verts) - 1:
            raise ValueError("system tree is not acyclic")
        if not _connected_set(tree, verts):
            raise ValueError("system tree is not connected")
        if internal is not None:
            if internal != {v for v in verts if tree.degree(v) >= 2}:
                raise ValueError("internal set does not match tree degrees")
            if internal & seen_internal:
                raise ValueError("vertex internal in two trees")
            seen_internal |= internal
        covered.update(combinations(sorted(verts), 2))
    for p in g.nonadjacent_pairs():
        if p not in covered:
            raise ValueError(f"non-adjacent pair {p} not covered")


@dataclass(frozen=True)
class ColorClass:
    color: int
    is_tree: bool
    is_nontrivial: bool  # at least two edges
    waste: int | None  # m' - 1 + q' for nontrivial tree classes, else None


@dataclass(frozen=True)
class ColorClassReport:
    classes: tuple[ColorClass, ...]
    color_count: int
    total_waste: int
    is_simple: bool  # nontrivial tree classes pairwise share at most one vertex
    leaves_distinctly_colored: bool
    is_valid_tmc: bool


def analyze_color_classes(g: Graph, tc: TotalColoring) -> ColorClassReport:
    """Per-color structure of a total coloring.  A class (its edges and
    colored vertices) is a tree when it is connected with one edge fewer
    than vertices; a nontrivial tree class with m' edges and q' vertices of
    class degree >= 2 has waste m' - 1 + q', and when every class is a
    valid color tree color_count + total_waste = m + n."""
    colors = sorted(set(tc.vertex_color) | set(tc.edge_color.values()))
    classes = []
    tree_vsets: list[set[int]] = []
    leaves_ok = True
    for c in colors:
        es = [e for e, cc in tc.edge_color.items() if cc == c]
        part = from_edge_list(g.n, es)
        vs = {v for v in range(g.n) if part.adj[v] or tc.vertex_color[v] == c}
        is_tree = _connected_set(part, vs) and len(es) == len(vs) - 1
        nontrivial = len(es) >= 2
        waste = None
        if nontrivial and is_tree:
            waste = len(es) - 1 + sum(1 for v in vs if part.degree(v) >= 2)
            tree_vsets.append(vs)
            leaf_colors = [tc.vertex_color[v] for v in vs if part.degree(v) == 1]
            if len(set(leaf_colors)) != len(leaf_colors) or c in leaf_colors:
                leaves_ok = False
        classes.append(ColorClass(color=c, is_tree=is_tree, is_nontrivial=nontrivial, waste=waste))
    return ColorClassReport(
        classes=tuple(classes),
        color_count=len(colors),
        total_waste=sum(cl.waste or 0 for cl in classes),
        is_simple=all(len(a & b) <= 1 for a, b in combinations(tree_vsets, 2)),
        leaves_distinctly_colored=leaves_ok,
        is_valid_tmc=verify_tmc(g, tc)[0],
    )


# ---------------------------------------------------------------------------
# Reports moved between labellings
# ---------------------------------------------------------------------------

def relabel_report_reference(rep: SolverReport, g: Graph, order: Sequence[int]) -> SolverReport:
    """A copy of a report on relabel(g, order) with its witness moved onto
    g's vertices: canonical vertex i is g's order[i], and g's vertex v is
    canonical vertex pos[v]."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    w = rep.witness
    moved = {}
    if hasattr(w, "vertex_color"):
        moved["vertex_color"] = tuple(w.vertex_color[p] for p in pos)
    if hasattr(w, "edge_color"):
        ecol = w.edge_color
        moved["edge_color"] = {
            (u, v): ecol[(pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])]
            for u, v in g.edges
        }
    return SolverReport(
        value=rep.value, witness=type(w)(**moved), nodes_explored=rep.nodes_explored,
        method=rep.method, bounds_used=dict(rep.bounds_used),
    )


# ---------------------------------------------------------------------------
# Diameter-2 size bound
# ---------------------------------------------------------------------------

def diameter2_bound_reference(n: int, delta: int) -> int | None:
    """The diameter-2 size bound's case for order n and max degree delta,
    selected by the printed ranges as exact rationals; None outside
    (n+1)/2 <= delta <= n-2 and in any gap the ranges leave."""
    if not (Fraction(n + 1, 2) <= delta <= n - 2):
        return None
    if delta in (n - 2, n - 3):
        return n + delta - 2
    if delta == n - 4:
        return 2 * n - 5
    if Fraction(2 * n - 2, 3) <= delta <= n - 5:
        return 2 * n - 4
    if Fraction(3 * n - 3, 5) <= delta < Fraction(2 * n - 2, 3):
        return 3 * n - delta - 6
    if Fraction(5 * n - 3, 9) <= delta < Fraction(3 * n - 3, 5):
        return 5 * n - 4 * delta - 10
    if Fraction(n + 1, 2) <= delta < Fraction(5 * n - 3, 9):
        return 4 * n - 2 * delta - 11
    return None
