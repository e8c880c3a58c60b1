"""Immutable simple graphs with bitset adjacency, generators and graph6 I/O.

Vertices are always the dense integers ``0..n-1``.  Adjacency is stored as a
tuple of integer bitmasks, which keeps every structural query (connectivity,
diameter, domination checks) a matter of a few machine-word operations for the
graph sizes the exact solvers accept (n <= ~12).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence


class GraphFormatError(ValueError):
    """Raised for malformed graph6 or edge-list input."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` is a sorted tuple of sorted pairs; ``adj[v]`` is the neighbour
    bitmask of ``v``.  Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def nonadjacent_pairs(self) -> list[tuple[int, int]]:
        """All unordered non-adjacent vertex pairs, lexicographically."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not (self.adj[u] >> v) & 1
        ]

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def from_edge_list(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from an explicit edge list.

    Rejects self-loops, duplicate edges and out-of-range endpoints, naming the
    offending pair in the error message.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    adj = [0] * n
    edges = []
    for pair in pairs:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range 0..{n - 1}: pair {(u, v)}")
        if u == v:
            raise ValueError(f"self-loop rejected: pair {(u, v)}")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge rejected: pair {(u, v)}")
        edges.append((u, v) if u < v else (v, u))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n=n, edges=tuple(sorted(edges)), adj=tuple(adj))


# ---------------------------------------------------------------------------
# graph6 codec.  The body lists the upper triangle column by column (for j in
# 1..n-1, for i in 0..j-1), so column j is the low j bits of adj[j].  Read as
# one integer whose bit p is the p-th bit of that stream, character k holds
# bits 6k..6k+5, most significant first, plus 63: _REV6 reverses those six.
# ---------------------------------------------------------------------------

GRAPH6_HEADER = ">>graph6<<"
_REV6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def _g6_size(text: str) -> tuple[int, int]:
    """Decode the leading size field, returning (n, chars consumed)."""
    if not text:
        raise GraphFormatError("empty graph6 string")
    c0 = ord(text[0])
    if c0 < 63 or c0 > 126:
        raise GraphFormatError(f"character out of graph6 range 63..126: {text[0]!r}")
    if c0 != 126:
        return c0 - 63, 1
    if len(text) >= 4 and ord(text[1]) != 126:
        vals = [ord(c) - 63 for c in text[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise GraphFormatError("malformed length header")
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    raise GraphFormatError("malformed length header")


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line (an optional '>>graph6<<' header is skipped)."""
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    n, pos = _g6_size(line)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = line[pos:]
    if len(body) != nchars:
        raise GraphFormatError(
            f"malformed length header: n={n} needs {nchars} data characters, got {len(body)}"
        )
    bits = 0
    for k, ch in enumerate(body):
        v = ord(ch) - 63
        if v < 0 or v > 63:
            raise GraphFormatError(f"character out of graph6 range 63..126: {ch!r}")
        bits |= _REV6[v] << 6 * k
    if bits >> nbits:
        raise GraphFormatError("trailing padding bits are nonzero")
    adj = [0] * n
    edges = []
    for j in range(1, n):
        col = bits & ((1 << j) - 1)
        bits >>= j
        adj[j] |= col
        for i in _bits(col):
            adj[i] |= 1 << j
            edges.append((i, j))
    return Graph(n=n, edges=tuple(sorted(edges)), adj=tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode a graph in canonical graph6 (no header)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise GraphFormatError("graph too large for this graph6 encoder")
    bits = 0
    for j in range(n - 1, 0, -1):
        bits = bits << j | g.adj[j] & ((1 << j) - 1)
    return head + "".join([chr(_REV6[bits >> k & 63] + 63) for k in range(0, n * (n - 1) // 2, 6)])


# ---------------------------------------------------------------------------
# Graph text: an edge list (first line "n m", then one "u v" line per edge)
# or graph6 lines, one graph each; blank lines and '#' comments are skipped.
# ---------------------------------------------------------------------------

def _content_lines(text: str) -> list[str]:
    """The stripped lines of a graph text, without blanks and '#' comments."""
    return [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]


def parse_graphs(text: str) -> Iterator[Graph]:
    """Every graph in a graph text: one edge-list graph when the first line
    is an 'n m' header, else one graph per graph6 line ('>>graph6<<' lines
    skipped).  No graph6 line starts with '#' or holds a space."""
    lines = _content_lines(text)
    head = lines[0].split() if lines else []
    if len(head) == 2 and all(p.lstrip("-").isdigit() for p in head):
        yield parse_edgelist(text)
        return
    for line in lines:
        if line != GRAPH6_HEADER:
            yield parse_graph6(line)


def parse_edgelist(text: str) -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"edge-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"edge-list header must be 'n m', got {lines[0]!r}") from exc
    pairs = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}") from None
        pairs.append((u, v))
    if len(pairs) != m:
        raise GraphFormatError(f"edge-list declares m={m} but has {len(pairs)} edge lines")
    try:
        return from_edge_list(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def _nbr(adj: Sequence[int], mask: int) -> int:
    """Union of adj[v] over the bits v of mask: one breadth-first step
    from the vertex set ``mask``."""
    out = 0
    while mask:
        b = mask & -mask
        out |= adj[b.bit_length() - 1]
        mask ^= b
    return out


def _reach(adj: Sequence[int], start: int, allowed: int) -> int:
    """Bitmask of vertices reachable from start inside the allowed mask."""
    seen = frontier = 1 << start
    while frontier:
        frontier = _nbr(adj, frontier) & allowed & ~seen
        seen |= frontier
    return seen


def _internal(edges: Iterable[Sequence[int]]) -> int:
    """Mask of the vertices of degree >= 2 in an edge list: those an end
    meets a second time."""
    once = twice = 0
    for u, v in edges:
        bu, bv = 1 << u, 1 << v
        twice |= once & bu | (once | bu) & bv
        once |= bu | bv
    return twice


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    full = (1 << g.n) - 1
    return _reach(g.adj, 0, full) == full


@functools.lru_cache(maxsize=1)
def diameter(g: Graph) -> int:
    """Maximum over vertex pairs of the shortest-path length; ValueError
    when a BFS stalls short of every vertex.  Only the last graph's value is
    kept, which serves mvc and the checks that read it on one graph."""
    best = 0
    adj, full = g.adj, (1 << g.n) - 1
    for s in range(g.n):
        seen = frontier = 1 << s
        dist = 0
        while seen != full:
            frontier = _nbr(adj, frontier) & ~seen
            if not frontier:
                raise ValueError("disconnected")
            seen |= frontier
            dist += 1
        best = max(best, dist)
    return best


def max_degree(g: Graph) -> int:
    return max(map(int.bit_count, g.adj), default=0)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = tuple((full & ~g.adj[v]) & ~(1 << v) for v in range(g.n))
    return Graph(n=g.n, edges=tuple(g.nonadjacent_pairs()), adj=adj)


def is_triangle_free(g: Graph) -> bool:
    return all(not (g.adj[u] & g.adj[v]) for u, v in g.edges)


def has_cut_vertex(g: Graph) -> bool:
    """True if removing some single vertex disconnects the graph."""
    if not is_connected(g):
        raise ValueError("disconnected")
    if g.n <= 2:
        return False
    full = (1 << g.n) - 1
    for v in range(g.n):
        rest = full & ~(1 << v)
        start = (rest & -rest).bit_length() - 1
        if _reach(g.adj, start, rest) != rest:
            return True
    return False


def _disjoint_paths(adj: Sequence[int], s: int, t: int, cap: int) -> int:
    """min(cap, number of internally vertex-disjoint s-t paths), s and t non-adjacent.

    Each common neighbour x of s and t is a path s-x-t of its own: some
    maximum family of internally disjoint s-t paths holds all of them.  If
    x lies on no path of a maximum family, adding s-x-t makes a larger one;
    otherwise the one path through x can be replaced by s-x-t.  So the
    common neighbours count up front, and the flow runs in G minus them.

    Next, paths s-x-y-t are routed greedily: x runs over N(s) - N(t) in
    ascending order, and y is the lowest unused vertex of N(x) & N(t)
    outside the common neighbours.  These paths are only a starting flow,
    not a claim about a maximum family.  Any valid flow can start the
    augmenting search: a flow is maximum exactly when its residual graph
    has no augmenting path (Ford-Fulkerson), and the residual search
    reroutes a greedy path wherever it blocks a better family.

    Augmenting paths by BFS in the vertex-split residual graph, where each
    vertex v other than s and t is an arc v_in -> v_out of capacity 1.  The
    flow is kept as bitsets: ``nxt[v]``/``prv[v]`` hold the vertices that
    flow leaves v for / enters v from, and ``used`` the saturated vertices.
    The greedy paths are written into them as the walk-back would.
    """
    n = len(adj)
    nt = adj[t]
    common = adj[s] & nt
    nxt, prv, used = [0] * n, [0] * n, 0
    flow = common.bit_count()
    ends = nt & ~common  # y candidates; N(s) - N(t) never meets them
    starts = adj[s] & ~nt
    while starts and flow < cap:
        bx = starts & -starts
        starts ^= bx
        x = bx.bit_length() - 1
        by = adj[x] & ends
        if by:
            by &= -by
            ends ^= by
            y = by.bit_length() - 1
            nxt[s] |= bx
            prv[x] = 1 << s
            nxt[x] = by
            prv[y] = bx
            nxt[y] = 1 << t
            prv[t] |= by
            used |= bx | by
            flow += 1
    for flow in range(flow, cap):
        # layers[k] = (in-states, out-states) first reached in k steps from s_out;
        # the common neighbours count as reached, so no path enters them
        layers = [(0, 1 << s)]
        seen_in, seen_out = common | 1 << s, 1 << s
        while not (seen_in >> t) & 1:
            f_in, f_out = layers[-1]
            new_in = (f_out & used | _nbr(adj, f_out)) & ~seen_in
            new_out = (f_in & ~used | _nbr(prv, f_in & used)) & ~seen_out
            if not new_in | new_out:
                return flow
            seen_in |= new_in
            seen_out |= new_out
            layers.append((new_in, new_out))
        # walk back from t_in, one layer per arc, pushing one unit along it
        v, at_in, was_used = t, True, used
        for f_in, f_out in reversed(layers[:-1]):
            bit = 1 << v
            if at_in and was_used & bit and f_out & bit:
                used ^= bit                    # reverse v_out -> v_in
            elif at_in:
                u = (adj[v] & f_out).bit_length() - 1
                nxt[u] |= bit                  # edge u_out -> v_in
                prv[v] |= 1 << u
                v = u
            elif not was_used & bit:
                used |= bit                    # split arc v_in -> v_out
            else:
                w = (nxt[v] & f_in).bit_length() - 1
                nxt[v] ^= 1 << w               # cancel flow v -> w
                prv[w] ^= bit
                v = w
            at_in = not at_in
    return cap


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertex deletions that disconnect the graph (n-1 for K_n).

    Esfahanian & Hakimi (1984): for a minimum-degree vertex v, some minimum
    cut either misses v, and so separates v from a non-neighbour, or contains
    v, and so separates two non-adjacent neighbours of v.  Only those pairs
    are flowed, each capped at the best cut so far, which starts at the
    minimum degree.  Each flow is seeded with the pair's common neighbours
    and then with greedy three-edge paths, and augmenting paths grow it from
    there (``_disjoint_paths``).
    """
    n, adj = g.n, g.adj
    if n <= 1 or not is_connected(g):
        return 0
    degs = g.degrees()
    best = min(degs)
    v = degs.index(best)
    pairs = [(v, w) for w in _bits(((1 << n) - 1) & ~adj[v] & ~(1 << v))]
    pairs += [(x, y) for x in _bits(adj[v]) for y in _bits(adj[v] & ~adj[x]) if x < y]
    for s, t in pairs:
        best = _disjoint_paths(adj, s, t, best)
    return best


# ---------------------------------------------------------------------------
# Canonical labelling: colour refinement plus individualisation-refinement
# (McKay & Piperno 2014, Practical graph isomorphism II)
# ---------------------------------------------------------------------------

def relabel(g: Graph, order: Sequence[int]) -> Graph:
    """The graph whose vertex i is g's vertex order[i]; ValueError unless
    order is a permutation of g's vertices."""
    if sorted(order) != list(range(g.n)):
        raise ValueError(f"order must be a permutation of 0..{g.n - 1}, got {list(order)}")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return from_edge_list(g.n, [(pos[u], pos[v]) for u, v in g.edges])


def _refine(adj: Sequence[int], cells: list[int], todo: list[int]) -> list[int]:
    """Split an ordered partition (cell bitmasks) until it is equitable:
    the vertices of a cell have equally many neighbours in every cell.

    Each splitter of ``todo`` splits every cell by neighbour count, parts
    in ascending count, and the parts become splitters; a one-vertex
    splitter's counts are 0 and 1, so it splits a cell into its
    non-neighbours and its neighbours.  Nothing reads a vertex label, so
    relabelling the input relabels the output."""
    cells = list(cells)
    n = len(adj)
    while todo and len(cells) < n:  # a discrete partition splits no further
        w = todo.pop()
        one = None if w & (w - 1) else adj[w.bit_length() - 1]
        i = 0
        while i < len(cells):
            x = cells[i]
            i += 1
            if not x & (x - 1):
                continue
            if one is not None:
                near = x & one
                if not near or near == x:
                    continue
                split = [x ^ near, near]
            else:
                parts: dict[int, int] = {}
                rest = x
                while rest:
                    b = rest & -rest
                    k = (adj[b.bit_length() - 1] & w).bit_count()
                    parts[k] = parts.get(k, 0) | b
                    rest ^= b
                if len(parts) < 2:
                    continue
                split = [parts[k] for k in sorted(parts)]
            cells[i - 1:i] = split
            i += len(split) - 1
            if x in todo:
                todo.remove(x)
            todo.extend(split)
    return cells


def canonical_order(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(code, order): relabel(g, order) is the same graph for every
    labelling of g's isomorphism class, and code holds its adjacency rows,
    n bits each, row 0 most significant, so two graphs on n vertices are
    isomorphic exactly when their codes are equal.

    Colour refinement from the cells of equal degree (ascending) gives an
    equitable partition; the search then individualises each vertex of the
    first non-singleton cell in turn, refines, and recurses, and keeps the
    least code over the discrete partitions it reaches, the first one on a
    tie.  A cell of mutual twins (equal open or equal closed neighbourhoods)
    is split into singletons in label order without branching: every
    permutation of it is an automorphism fixing the partition, so all its
    orders give the same codes.  K_n, stars and complete multipartite
    graphs therefore never branch on their twin classes.  Nothing prunes by
    automorphisms: within the solvers' guard (n <= 9) that saved no time on
    the n <= 6 sweep and cost some on n = 7-9 graphs.
    """
    n, adj = g.n, g.adj
    by_degree: dict[int, int] = {}
    for v in range(n):
        k = adj[v].bit_count()
        by_degree[k] = by_degree.get(k, 0) | 1 << v
    cells = [by_degree[k] for k in sorted(by_degree)]
    best: list = [1 << n * n, ()]  # least code so far, at first above every code, and its order

    def search(cells: list[int]) -> None:
        while True:
            for i, x in enumerate(cells):
                if x & (x - 1):
                    break
            else:  # discrete: a leaf
                order = tuple(c.bit_length() - 1 for c in cells)
                pos = [0] * n
                for j, v in enumerate(order):
                    pos[v] = j
                code = 0
                for v in order:
                    row, rest = 0, adj[v]
                    while rest:
                        b = rest & -rest
                        row |= 1 << pos[b.bit_length() - 1]
                        rest ^= b
                    code = code << n | row
                if code < best[0]:
                    best[:] = code, order
                return
            members = _bits(x)
            if (len({adj[v] for v in members}) > 1
                    and len({adj[v] | 1 << v for v in members}) > 1):
                break
            cells = cells[:i] + [1 << v for v in members] + cells[i + 1:]
        for v in members:
            search(_refine(adj, cells[:i] + [1 << v, x ^ 1 << v] + cells[i + 1:], [1 << v]))

    search(_refine(adj, cells, list(cells)))
    return best[0], best[1]


@dataclass(frozen=True)
class GraphConditionSet:
    """The five sufficient conditions under which tmc(G) = m - n + 2 + l(G).

    ``degree_bound_holds`` is max_degree < n - (2m - 3(n-1)) / (n-3),
    compared exactly in integers after multiplying through by n - 3 > 0;
    boundary cases are excluded.
    """

    complement_4_connected: bool
    triangle_free: bool
    degree_bound_holds: bool
    diameter_ge_3: bool
    has_cut_vertex: bool

    def any_holds(self) -> bool:
        return any(self.flags().values())

    def flags(self) -> dict[str, bool]:
        return dict(vars(self))


def _complement_4_connected(g: Graph) -> bool:
    """Whether the complement of g is 4-connected."""
    # kappa <= delta: a complement of minimum degree < 4 is never 4-connected
    return g.n - 1 - max_degree(g) >= 4 and vertex_connectivity(complement(g)) >= 4


def tmc_identity_conditions(g: Graph) -> GraphConditionSet:
    """Evaluate the five sufficient conditions for tmc = m - n + 2 + l(G)
    (requires connected input and n > 3)."""
    if g.n <= 3:
        raise ValueError("theorem hypothesis requires n > 3")
    if not is_connected(g):
        raise ValueError("disconnected")
    n, m, delta = g.n, g.m, max_degree(g)
    return GraphConditionSet(
        complement_4_connected=_complement_4_connected(g),
        triangle_free=is_triangle_free(g),
        degree_bound_holds=delta * (n - 3) < n * (n - 3) - 2 * m + 3 * (n - 1),
        diameter_ge_3=diameter(g) >= 3,
        has_cut_vertex=has_cut_vertex(g),
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with hub 0."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return from_edge_list(n, list(combinations(range(n), 2)))


def wheel_graph(n: int) -> Graph:
    """Wheel of order n: hub 0 joined to the (n-1)-cycle 1..n-1."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(n - 1, 1)]
    spokes = [(0, i) for i in range(1, n)]
    return from_edge_list(n, spokes + rim)


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; class sizes are sorted descending internally."""
    if len(sizes) < 2:
        raise ValueError("complete multipartite needs r >= 2 classes")
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    part = [i for i, s in enumerate(sorted(sizes, reverse=True)) for _ in range(s)]
    n = len(part)
    return from_edge_list(n, [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]])


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p): each pair drawn independently, lexicographic order.

    Deterministic for a given (n, p, seed).
    """
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


def _subset_table(n: int, pairs: Sequence[tuple[int, int]]) -> list[tuple[tuple[int, ...], tuple]]:
    """(adjacency rows, edge tuple) of every subset of ``pairs`` on n
    vertices, at the index whose bit i stands for pairs[i].  The edge tuples
    keep the order of ``pairs``."""
    table = [((0,) * n, ())]
    for u, v in pairs:
        add = tuple(1 << v if w == u else 1 << u if w == v else 0 for w in range(n))
        table += [(tuple(map(int.__or__, adj, add)), edges + ((u, v),)) for adj, edges in table]
    return table


def connected_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled connected graphs on n vertices, by adjacency-mask order:
    bit i of the mask stands for the i-th vertex pair in lexicographic order.

    The pair list is split into a low and a high half, and each half gets a
    table of the adjacency rows and sorted edge tuple of every sub-mask
    (2^7 + 2^8 entries at n = 6).  A mask is then one OR of two rows per
    vertex and one concatenation of two edge tuples; the high half runs in
    the outer loop, so the masks come in increasing order.

    Intended for exhaustive sweeps with n <= 6 (2^15 masks); larger corpora
    should be ingested from external graph6 lists.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    pairs = list(combinations(range(n), 2))
    half = len(pairs) // 2
    low, high = _subset_table(n, pairs[:half]), _subset_table(n, pairs[half:])
    full = (1 << n) - 1
    for high_adj, high_edges in high:
        for low_adj, low_edges in low:
            adj = tuple(map(int.__or__, low_adj, high_adj))
            # a 0 row is an isolated vertex, which only K_1 may have
            if n > 1 and 0 in adj or _reach(adj, 0, full) != full:
                continue
            yield Graph(n, low_edges + high_edges, adj)
