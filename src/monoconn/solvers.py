"""Exact tmc / mc / mvc solvers with optimality certificates.

Correctness contract for the tree-system engine
-----------------------------------------------
Call a family of subtrees of G a *covering tree system* when the trees are
pairwise edge-disjoint, their internal-vertex sets are pairwise disjoint,
every tree has at least two edges, and every non-adjacent vertex pair of G
lies together in some tree.  Its waste is the sum over trees of
(edges - 1 + internal vertices).

(i)  Every covering tree system induces a total coloring with
     m + n - waste colors that total-monochromatically connects G: give each
     tree one color on its edges and internal vertices, everything else a
     fresh color.  Non-adjacent pairs ride the unique within-tree path, whose
     edges and internal vertices all carry the tree color; adjacent pairs use
     their own edge.
(ii) Conversely, in an extremal total-monochromatic coloring every color
     class is a tree whose internal vertices carry the class color, and an
     extremal coloring always exists in which two nontrivial color trees
     share at most one vertex ("simple").  The nontrivial trees of such a
     coloring form a covering tree system of waste m + n - tmc(G).

Hence tmc(G) = m + n - W*, where W* is the minimum waste over covering tree
systems, and by (ii) the minimum is already attained among *simple* systems
(pairwise sharing at most one vertex).  The same argument without vertex
colors gives mc(G) = m - min over edge-disjoint covering tree families of
sum(edges - 1), with no internal-vertex constraint.  For mc, simplicity
needs no lemma: if trees on vertex sets S and S' share k >= 2 vertices,
their union is connected, and a spanning tree of it uses only their edges,
covers every pair either covered and has waste
|S| + |S'| - k - 2 = (|S| - 2) + (|S'| - 2) - (k - 2).  Merging never raises
the waste and lowers the tree count, so an optimal family with the fewest
trees is simple.

Search space.  A tree's waste depends only on its vertex set S (mc: |S| - 2)
or on S and its internal set I (tmc: |S| - 2 + |I|), so the branch-and-bound
runs over vertex-set candidates rather than trees:

- mc: connected S holding a non-adjacent pair, at most 2^n of them;
- tmc: (S, I) with I connected and S made of I and a set L of at least two
  vertices of N(I) - I.  A tree's internal set is connected and dominates
  its leaves, so every tree of a system is such a pair, and every pair is
  realised by a tree of no more waste: a BFS tree of G[I] with each vertex
  of L hung on a neighbour in I has its internal set inside I.

Trees covering no non-adjacent pair only add waste and are never
candidates.  Each candidate carries its whole induced edge set E(G[S]), and
picked candidates need pairwise disjoint edge sets (and, for tmc, disjoint
sets I).  Two sets sharing at most one vertex share no induced edge, so
every simple system lies in this space; trees chosen inside the G[S_i] are
edge-disjoint, so every point of it is a valid system.  The edge test thus
subsumes a separate simple-system check: the space sits between the simple
systems and all systems, whose minima agree (for mc by the merge above, for
tmc by (ii)).  At the optimum each realised tree has internal set exactly I:
a smaller internal set I' would make (S, I') a cheaper compatible candidate.

Dominance (tmc).  Call x in I removable when I - x is non-empty and
connected, and give it the private set P_x = (N(I) - I) - N(I - x), the
leaf choices adjacent to x alone in I.  If L misses some P_x, then
(S, I - x) is also a candidate: I - x is connected and dominates L + x.  It
has the same S, so the same edge mask and cover, a smaller internal set and
one less waste, and swapping it in keeps any system valid and makes it
cheaper.  Such a dominated (S, I) is never part of an optimum, so
generation skips I when some removable x has P_x empty and otherwise emits
only the L that meet every P_x.  The P_x are pairwise disjoint (a vertex of
P_x has x as its only neighbour in I), so those L are one non-empty subset
of each P_x plus any other vertices of N(I) - I.

Dominance (lonely vertices).  Call v lonely in S when it is adjacent to
every other vertex of S: it lies in no non-adjacent pair inside S, so
dropping it keeps the cover.  With common[S] the intersection of the closed
neighbourhoods over S, the lonely vertices of S are common[S] & S.
- tmc: (S, I) with a lonely leaf v is dominated.  If |L| >= 3, (S - v, I)
  is a candidate.  If |L| = 2, S - v = I + w, and |I| >= 2 because S covers
  a pair (with I = {x}, the only pair of S would join the two leaves, and v
  is adjacent to w).  A BFS tree of G[I] with w hung on it then has an
  internal set I' inside I and at least two leaves, so (S - v, I') is a
  candidate.  Either way it has a sub-mask of S's edges, an internal set
  inside I, the same cover and less waste.
- mc: S with a lonely v such that G[S - v] is connected is dominated by
  S - v: the same cover, a sub-mask of the edges, one less waste.
Each exchange keeps a system valid and makes it cheaper, so a dominated
candidate is in no optimum, and every chain of exchanges ends at an emitted
candidate because waste falls strictly.  Generation drops them with one
mask test per (S, I) for tmc and connected[] lookups of the one-smaller
sets for mc; mvc emits every connected I whose N[I] holds a pair.

Shared table.  Every candidate is read off per-set tables over all 2^n
vertex sets: the induced edge mask, the non-adjacent pairs inside (bit j for
the j-th pair of nonadjacent_pairs(), lexicographic), the neighbourhood, the
common closed neighbourhood and connectivity.  They depend on G alone, and
so does the list of every mc candidate, which each mc solve cuts below its
incumbent's waste; one pass over the sets in increasing order builds them
all (_table).  tmc and mc build it only when the degree bound (Root
proofs) fails to prove the root, mvc whenever it searches.  Only the last
graph's tables are kept, so tmc, mc and mvc solved one after another on
one graph build them once; max_leaf_exact and diameter keep their last
graph's result the same way.  Pairs to cover are a mask over the same
bits: every pair for tmc and mc, the pairs at distance >= 3 for mvc,
whose covers are the shared ones masked to those.  The masked pairs keep
their lexicographic order, so branching and its ties are those of a
search over the far pairs alone.

Branching.  Each node branches on the uncovered pair with the fewest
candidates (ties to the lowest index).  Every cover covers that pair, and
its candidate list is sorted by waste, so the search stops at the first
candidate that cannot beat the incumbent.

Start.  Each solver computes its incumbent, one (I, S) pick of waste ub
that is the witness when nothing beats it, and the search never replaces
it.  mvc starts from the max-leaf internal set.  tmc and mc start from a
cheapest single cover (a system of one tree), written from the universal
vertices U and W = V - U (_non_universal).  On many dense graphs a root
step (Root proofs) proves the start.  The closed form:
- Every single cover holds W.  A vertex of W has a non-neighbour, which is
  not universal, so every vertex of W lies in a pair and no pair meets U.
- mc: a single cover is a connected S holding W, so W itself when G[W] is
  connected.  Otherwise U is non-empty, as G is connected, and W + min U
  is connected and one vertex larger.
- tmc: the start is (W + I, I) with I the max-leaf internal set, of waste
  |W + I| - 2 + q: the max-leaf tree with its leaves in U dropped.  With U
  empty it is (V, I), and every single cover is (V, I') with I' a
  connected dominating set, of waste n - 2 + |I'| >= n - 2 + q.  With U
  non-empty, q = 1 (G is not complete, so n >= 3), and the max-leaf
  search tries single vertices in increasing order, so I = {min U} and
  the start is the star (W + min U, {min U}) of waste |W|.  A single
  cover (S, I') costs |S| - 2 + |I'| >= |W| unless S = W and I' = {x},
  and then x would be adjacent to W - x and to U, so universal.  With
  |U| >= 2 the star is below the max-leaf tree's n - 1, and with |U| = 1
  it is that tree.

Count bound.  Let most[w] be the largest number of pairs one candidate of
waste w covers, reach[b] the largest sum of most[w_i] over wastes w_i >= 1
with sum w_i <= b (an unbounded knapsack), and need[u] the least b with
reach[b] >= u.  Candidates c_1..c_k that cover u pairs between them satisfy
u <= sum |cover(c_i)| <= sum most[w_i] <= reach[sum w_i], so they cost at
least need[u].  A node with u uncovered pairs therefore needs at least
need[u] more waste, and it is tested before the node picks its branching
pair.  The bound holds for every variant, since it uses only what this
graph's candidates cover; values of b at or past the incumbent's waste
prune anyway, so the table stops there.

Root proofs.  The root has every pair uncovered, so need[all pairs] >= ub
proves the start of waste ub optimal, whether or not every pair has a
candidate below ub.  Say most' bounds most when every w < ub has some
w' <= w with most'[w'] >= most[w].  Then each knapsack packing over most
maps to one over most' with no more waste and no fewer pairs, so
reach' >= reach and need' <= need below ub: a proof over most' is a proof
over the real most.  The search runs this one test over such cover maxima,
cheapest first: the degree bound (tmc, mc), which needs no table, the
relaxed tuples (tmc), which need no (S, I) candidate, and the candidates
themselves, whose need then prunes every node.  A proof ends the search
with the start and one node, the root, so values, picks, witnesses and
node counts are those of the search without the earlier steps.

Relaxed tuples (tmc).  Each mc candidate S gives a tuple of its cover at
waste |S| - 1 when it has a lonely vertex and |S| otherwise.  A tmc
candidate costs |S| - 2 + |I| >= |S| - 1, with equality only when I = {x}
and x is lonely in S.  Dropping lonely vertices whose removal keeps S
connected leads to an mc candidate S' inside S with the same cover and
relaxed waste at most |S'| <= |S|.  When I = {x}, either a vertex was
dropped, so |S'| <= |S| - 1, or S' = S holds the lonely x and costs
|S| - 1.  So every tmc candidate has a tuple of the same cover and no more
waste, and the tuples' most bounds the real one.

Degree bound (tmc, mc).  A set holds at most half the sum of its non-degrees
d'(v) = n - 1 - deg(v) in non-adjacent pairs, so with top(k) the sum of the
k largest non-degrees, most[w] is at most:
- mc: min(C(k - 1, 2), floor(top(k) / 2)), as a candidate of waste w is a
  connected set of k = w + 2 vertices, with at least k - 1 edges;
- tmc: min(C(w, 2), floor(top(w) / 2)), as a candidate (S, I) of waste
  w = |S| - 2 + |I| has its pairs among w vertices: if |I| >= 2 then
  |S| <= w, and if I = {x} then |S| = w + 1 and x, adjacent to every leaf,
  lies in no pair.
top(n) / 2 is every pair, so neither exceeds the pair count.

mvc.  A vertex coloring joins u and v when some u-v path has all its inner
vertices in one color.  Pairs at distance <= 2 always are, so only the pairs
at distance >= 3 count.  A path's inner vertices induce a connected graph,
so giving each component of a color class its own color loses no path: some
optimal coloring has connected classes.  A connected class I then joins u
and v exactly when both lie in N[I] (step from u into I, cross G[I], step
out to v), which for a pair at distance >= 3 needs |I| >= 2.  Hence
mvc(G) = n - min sum(|I_j| - 1) over pairwise disjoint connected sets I_j
such that every pair at distance >= 3 lies inside some N[I_j]: the same
cover search, with candidates (|I| - 1, no edges, I) and disjoint I, each
covering the pairs of cover[N[I]] at distance >= 3.  The
incumbent is the internal set of a max-leaf tree, a connected dominating
set of q vertices; its waste q - 1 gives the known bound mvc >= l + 1.
A diametral pair needs an I holding a path between the neighbourhoods of
its ends, so every cover costs at least d - 2 (mvc <= n - d + 2).

Bounds.  Each report's bounds_used brackets its own value:
m - n + 2 + l <= tmc <= m + n, m - n + 2 <= mc <= m and
l + 1 <= mvc <= n - d + 2.  A complete graph states its exact value as both
ends, and the mvc shortcut (d <= 2) states only value_upper n.  The tests
check two bounds across solves: the paper's theorem tmc <= mc + mvc, equal
exactly for complete graphs, and tmc <= mc + l for non-complete G, which is
only observed: nothing proves it, and no search here relies on it.

Independent references live in tests/oracles.py: definition-level partition
searches (tmc_naive, mc_naive, mvc_partition_reference) that maximize the
color count and check each partition with the verifiers' coverage kernel, a
subtree-enumeration search that checks the vertex-set search on larger
graphs, witness_trees, which reads a tmc or mc witness's covering tree
system back off its coloring, a checker of every tree-system invariant
(validate_system) and a per-color-class structure report of a total
coloring (analyze_color_classes).
"""

from __future__ import annotations

import bisect
import functools
import os
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .coloring import (
    EdgeColoring,
    TotalColoring,
    VertexColoring,
    _fill,
    verify_mc,
    verify_mvc,
    verify_tmc,
)
from .graphs import Graph, _bits, _internal, _reach, diameter, is_connected
from .maxleaf import _tree_from_cds, max_leaf_exact

Edge = tuple[int, int]

DEFAULT_MAX_EXACT_N = 9


class SolverRangeError(RuntimeError):
    """Raised when an exact solver is asked for a graph beyond its guard."""


def max_exact_n() -> int:
    """Exact-solver size guard; override with MONO_MAX_EXACT_N."""
    env = os.environ.get("MONO_MAX_EXACT_N")
    if not env:
        return DEFAULT_MAX_EXACT_N
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"MONO_MAX_EXACT_N must be an integer, got {env!r}") from None


@dataclass
class SolverReport:
    """Invariant value plus its certificate and search statistics.

    A tmc or mc witness carries its covering tree system: each color with
    at least two edges is one tree, and for tmc the tree's internal
    vertices are exactly the vertices of its color.  ``nodes_explored``
    counts the cover search's nodes: 0 only for a shortcut (a complete
    graph, or mvc at diameter <= 2), and 1 when the root alone proves the
    value."""

    value: int
    witness: TotalColoring | EdgeColoring | VertexColoring
    nodes_explored: int
    method: str  # "tree_system" | "shortcut"
    bounds_used: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Vertex-set candidates and the cover search
# ---------------------------------------------------------------------------

Candidate = tuple[int, int, int, int, int]  # (waste, emask, imask, vmask, cover)


class _Table(NamedTuple):
    """Per-set tables of one graph, indexed by vertex-set mask."""

    emask: list[int]  # induced edges, bit i for g.edges[i]
    cover: list[int]  # pairs inside, bit j for g.nonadjacent_pairs()[j]
    nbr: list[int]  # union of the neighbourhoods
    common: list[int]  # intersection of the closed neighbourhoods
    connected: bytearray  # 1 when the set is non-empty and induces a connected graph
    mc: list[Candidate]  # every mc candidate, sorted


@functools.lru_cache(maxsize=1)
def _table(g: Graph) -> _Table:
    """The tables of every vertex set of ``g`` and its mc candidates, built
    in one pass over the sets in increasing order; only the last graph's are
    kept, which serves tmc, mc and mvc solved one after another.

    The mc candidates are every connected S with a pair inside (waste
    |S| - 2, no internal set) that has no vertex adjacent to the rest of S
    whose removal leaves G[S - v] connected (module docstring).
    """
    n, adj = g.n, g.adj
    edge_bit = [[0] * n for _ in range(n)]
    pair_bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(g.edges):
        edge_bit[u][v] = 1 << i
    for j, (u, v) in enumerate(g.nonadjacent_pairs()):
        pair_bit[u][v] = 1 << j
    # a pair inside S misses its lowest vertex v or its next vertex u, or is
    # (v, u)
    sets = 1 << n
    emask = [0] * sets
    cover = [0] * sets
    nbr = [0] * sets
    common = [sets - 1] * sets
    connected = bytearray(sets)
    mc = []
    for s in range(1, sets):
        low = s & -s
        rest = s ^ low
        v = low.bit_length() - 1
        nbr[s] = nbr[rest] | adj[v]
        common[s] = common[rest] & (adj[v] | low)
        if rest:
            nxt = rest & -rest
            u = nxt.bit_length() - 1
            emask[s] = emask[rest] | emask[s ^ nxt] | edge_bit[v][u]
            cover[s] = cover[rest] | cover[s ^ nxt] | pair_bit[v][u]
        # a lonely vertex (one adjacent to the rest of s) connects s; else
        # grow the lowest vertex's component a layer at a time
        lonely = common[s] & s
        if not lonely:
            seen = low
            while True:
                grown = seen | nbr[seen] & s
                if grown == seen:
                    break
                seen = grown
            if seen != s:
                continue
        connected[s] = 1
        if cover[s]:
            while lonely:
                b = lonely & -lonely
                if connected[s ^ b]:
                    break
                lonely ^= b
            else:
                mc.append((s.bit_count() - 2, emask[s], 0, s, cover[s]))
    mc.sort()
    return _Table(emask, cover, nbr, common, connected, mc)


def _candidates(g: Graph, pairs: int, cap: int, variant: str) -> list[Candidate]:
    """Every candidate of waste <= cap as a (waste, emask, imask, vmask,
    cover) tuple, sorted; ``variant`` is "mc", "tmc" or "mvc" and ``pairs``
    the mask of the pairs to cover, bit j for g.nonadjacent_pairs()[j].

    For mc, vmask is a connected vertex set S holding one of ``pairs``,
    emask its induced edge set E(G[S]), cover the pairs inside S, waste
    |S| - 2 and imask 0.  For tmc, imask is a connected set I, S adds to I
    a set L of at least two vertices of N(I) - I, waste is |S| - 2 + |I|.
    For mvc, imask and vmask are a connected set I, emask is 0, cover the
    pairs inside N[I] and waste |I| - 1.  For tmc and mc ``pairs`` is every
    non-adjacent pair of ``g``.

    For tmc and mc only non-dominated candidates are emitted (module
    docstring): for tmc, L meets the private set (N(I) - I) - N(I - x) of
    every x whose removal leaves I non-empty and connected, and no leaf is
    adjacent to the rest of S; for mc, no vertex adjacent to the rest of S
    leaves G[S - v] connected.
    """
    emask, cover, nbr, common, connected, mc = _table(g)
    if variant == "mc":
        return mc[:bisect.bisect_left(mc, (cap + 1,))]
    out = []
    for s in range(1, 1 << g.n):  # I for tmc and mvc
        if not connected[s]:
            continue
        size = s.bit_count()
        if variant == "mvc":
            whole = cover[nbr[s] | s] & pairs
            if whole and size - 1 <= cap:
                out.append((size - 1, 0, s, s, whole))
            continue
        if 2 * size > cap:
            continue
        around = nbr[s] & ~s
        # The private sets are disjoint, so L is one non-empty subset of each
        # plus any other vertices of N(I) - I, and has at least
        # len(private) vertices.
        private = [
            around & ~nbr[s ^ (1 << v)] for v in _bits(s) if connected[s ^ (1 << v)]
        ]
        if not all(private) or 2 * size + max(len(private), 2) - 2 > cap:
            continue
        # a vertex adjacent to all of N[I] would be a lonely leaf of any S
        free, hits = around & ~common[s | around], [0]
        for p in private:
            free &= ~p
            more = []
            for h in hits:
                sub = p
                while sub:
                    more.append(h | sub)
                    sub = (sub - 1) & p
            hits = more
        for h in hits:
            rest = free
            while True:
                leaves = h | rest
                waste = 2 * size + leaves.bit_count() - 2
                vmask = s | leaves
                # no leaf adjacent to the rest of S, so each leaf is in a pair
                if waste <= cap and leaves & (leaves - 1) and not leaves & common[vmask]:
                    out.append((waste, emask[vmask], s, vmask, cover[vmask]))
                if not rest:
                    break
                rest = (rest - 1) & free
    out.sort()
    return out


def _need(most: dict[int, int], npairs: int, limit: int) -> list[int]:
    """need[u] = least b whose reach[b] >= u, capped at ``limit``, where
    reach[b] is the most pairs that waste b covers when one candidate of
    waste w covers at most most[w] (an unbounded knapsack over most)."""
    assert 0 not in most, "every candidate costs waste >= 1"
    need = [0] + [limit] * npairs
    reach = [0]
    u = 1
    for b in range(1, limit):
        r = reach[b - 1]
        for w, c in most.items():
            if w <= b and reach[b - w] + c > r:
                r = reach[b - w] + c
        reach.append(r)
        while u <= r and u <= npairs:
            need[u] = b
            u += 1
        if u > npairs:
            break
    return need


def _most(cands: Iterable[tuple[int, ...]]) -> dict[int, int]:
    """most[w] = the largest cover of a (waste, ..., cover) tuple of waste w
    among ``cands``, the cover maxima that _need reads."""
    most: dict[int, int] = {}
    for c in cands:
        w, k = c[0], c[-1].bit_count()
        if k > most.get(w, 0):
            most[w] = k
    return most


def _solve_cover(
    cands: list[Candidate], pairs: int, ub_waste: int, need: list[int]
) -> tuple[int, list[int] | None, int]:
    """Branch-and-bound minimum-waste cover of the pair mask ``pairs`` by
    candidates with pairwise disjoint edge masks and internal masks, each
    node pruned by the count bound ``need`` of _need over ``cands``.

    Returns (best_waste, chosen candidate indices or None when nothing beat
    the incumbent upper bound, nodes explored).
    """
    # pair k is bit k of the masks; only the bits of ``pairs`` are ever read
    by_pair: list[list[int]] = [[] for _ in range(pairs.bit_length())]
    for ci, (_, _, _, _, cov) in enumerate(cands):
        for k in _bits(cov):
            by_pair[k].append(ci)
    count = [len(lst) for lst in by_pair]
    best = ub_waste
    best_pick: list[int] | None = None
    nodes = 0

    def bb(covered: int, used_e: int, used_i: int, waste: int, pick: list[int]) -> None:
        nonlocal best, best_pick, nodes
        nodes += 1
        unc = pairs & ~covered
        if not unc:  # entered only below best
            best, best_pick = waste, pick.copy()
            return
        if waste + need[unc.bit_count()] >= best:
            return
        # branch on the uncovered pair with the fewest candidates
        for ci in by_pair[min(_bits(unc), key=count.__getitem__)]:
            w, em, im, _, cov = cands[ci]
            if waste + w >= best:
                break
            if em & used_e or im & used_i:
                continue
            pick.append(ci)
            bb(covered | cov, used_e | em, used_i | im, waste + w, pick)
            pick.pop()

    bb(0, 0, 0, 0, [])
    return best, best_pick, nodes


def _relaxed_tuples(g: Graph, ub: int) -> list[tuple[int, int]]:
    """The relaxed tmc root step's (waste, cover) tuples below ``ub``, one
    per mc candidate S: waste |S| - 1 when S has a lonely vertex and |S|
    otherwise, no more than any tmc candidate of the same cover costs
    (module docstring, Relaxed tuples)."""
    t = _table(g)
    relaxed = [(w + (1 if t.common[s] & s else 2), cov) for w, _, _, s, cov in t.mc]
    return [r for r in relaxed if r[0] < ub]


def _degree_bound(g: Graph, variant: str, ub: int) -> dict[int, int]:
    """Upper bounds, read off the vertex non-degrees, on most[w] for
    1 <= w < ``ub``: the pairs one mc or tmc candidate of waste w covers
    (module docstring, Degree bound)."""
    # top[k] = sum of the k largest non-degrees; top[n] is twice the pairs
    top = [0]
    for gap in sorted((g.n - 1 - a.bit_count() for a in g.adj), reverse=True):
        top.append(top[-1] + gap)
    if variant == "mc":  # a connected set of w + 2 vertices
        return {w: min(comb(w + 1, 2), top[min(w + 2, g.n)] // 2) for w in range(1, ub)}
    # the pairs lie among w vertices: S, or S - x when I = {x}
    return {w: min(comb(w, 2), top[min(w, g.n)] // 2) for w in range(1, ub)}


def _search(
    g: Graph, variant: str, pairs: int, start: tuple[int, int], ub: int
) -> tuple[int, list[tuple[int, int]], int]:
    """(minimum waste, picked (I, S) masks, nodes explored) of the cover
    search over the pair mask ``pairs`` that must beat the solver's
    incumbent ``start``, an (I, S) pick of waste ``ub``, which is the pick
    when nothing beats it.  Each root step, cheapest first, runs the count
    bound over its own cover maxima (module docstring, Root proofs)."""
    cands: list[Candidate] = []

    def steps():
        if variant != "mvc":
            yield _degree_bound(g, variant, ub)  # builds no table
        if variant == "tmc":
            yield _most(_relaxed_tuples(g, ub))
        cands.extend(_candidates(g, pairs, ub - 1, variant))
        yield _most(cands)

    for most in steps():
        need = _need(most, pairs.bit_count(), ub)
        if need[-1] >= ub:
            return ub, [start], 1
    best, pick, nodes = _solve_cover(cands, pairs, ub, need)
    return best, [start] if pick is None else [cands[ci][2:4] for ci in pick], nodes


def _non_universal(g: Graph) -> int:
    """Mask of W = V - U, the vertices with a non-neighbour, which every
    tmc or mc single cover holds (module docstring, Start)."""
    full = (1 << g.n) - 1
    return sum(1 << v for v, a in enumerate(g.adj) if a | 1 << v != full)


def _system(g: Graph, picks: Sequence[tuple[int, int]]) -> list[list[Edge]]:
    """Sorted edge lists of the trees of picked (I, S) masks, in edge
    order, which fixes the witness's color of each tree: each S realised as
    a BFS tree of G[I] with every other vertex of S hung on its smallest
    neighbour in I (for mc, I = S)."""
    return sorted(sorted(_tree_from_cds(g, inner or span, span)) for inner, span in picks)


def _pair_mask(g: Graph) -> int:
    """Mask of every non-adjacent pair of ``g``."""
    return (1 << (g.n * (g.n - 1) // 2 - g.m)) - 1


def _beyond_guard(g: Graph) -> bool:
    """Whether the exact solvers refuse ``g`` under the size guard: a
    non-complete graph with more than max_exact_n() vertices."""
    return g.n > max_exact_n() and not g.is_complete()


def _guard_exact(g: Graph, solver: str) -> None:
    """Refuse a graph beyond the max_exact_n() guard (_beyond_guard)."""
    if _beyond_guard(g):
        raise SolverRangeError(
            f"exact solver out of range: {solver} accepts n <= {max_exact_n()} "
            f"(override with MONO_MAX_EXACT_N), got n = {g.n}"
        )


def tmc_exact(g: Graph) -> SolverReport:
    """Total monochromatic connection number with witness coloring.

    Minimum-waste search over covering systems of (S, I) candidates.  Its
    incumbent, the witness when nothing beats it, is a cheapest single
    cover: the maximum-leaf spanning tree with its universal leaves dropped,
    (W + I, I) for I its internal set and W the non-universal vertices.
    That is the max-leaf tree itself (waste n - 2 + q(G), the generic lower
    bound m - n + 2 + l(G) on the value) when G has at most one universal
    vertex, and the star from the least universal vertex to W (waste |W|)
    when it has more.
    """
    if not is_connected(g):
        raise ValueError("disconnected")
    total = g.m + g.n
    if g.is_complete():
        return SolverReport(
            value=total, witness=_fill(g, "tmc", []), nodes_explored=0, method="shortcut",
            bounds_used={"value_lower": total, "value_upper": total},
        )
    _guard_exact(g, "tmc_exact")
    ml = max_leaf_exact(g)
    span = _non_universal(g) | ml.internal
    waste = span.bit_count() - 2 + ml.internal_count
    best, picks, nodes = _search(g, "tmc", _pair_mask(g), (ml.internal, span), waste)
    witness = _fill(g, "tmc", [edges + _bits(_internal(edges)) for edges in _system(g, picks)])
    return SolverReport(
        value=total - best, witness=witness, nodes_explored=nodes, method="tree_system",
        bounds_used={"value_lower": g.m - g.n + 2 + ml.leaf_count, "value_upper": total},
    )


def mc_exact(g: Graph) -> SolverReport:
    """Monochromatic connection number (edge colorings) with witness.

    The same search over vertex sets S of waste |S| - 2, without internal
    vertices.  Its incumbent, the witness when nothing beats it, is the
    cheapest single S holding every pair: the non-universal vertices W
    when G[W] is connected, else W plus the least universal vertex,
    realised as a BFS tree.
    """
    if not is_connected(g):
        raise ValueError("disconnected")
    if g.is_complete():
        return SolverReport(
            value=g.m, witness=_fill(g, "mc", []), nodes_explored=0, method="shortcut",
            bounds_used={"value_lower": g.m, "value_upper": g.m},
        )
    _guard_exact(g, "mc_exact")
    span = _non_universal(g)
    if _reach(g.adj, (span & -span).bit_length() - 1, span) != span:
        span |= ~span & (span + 1)  # the least universal vertex
    best, picks, nodes = _search(g, "mc", _pair_mask(g), (0, span), span.bit_count() - 2)
    witness = _fill(g, "mc", _system(g, picks))
    return SolverReport(
        value=g.m - best, witness=witness, nodes_explored=nodes, method="tree_system",
        bounds_used={"value_lower": g.m - g.n + 2, "value_upper": g.m},
    )


def mvc_exact(g: Graph) -> SolverReport:
    """Monochromatic vertex connection number with witness coloring.

    Diameter <= 2 gives mvc = n outright.  Otherwise the same search over
    connected sets I of waste |I| - 1 covering the pairs at distance >= 3.
    Its incumbent is the internal set of a maximum-leaf spanning tree
    (waste q(G) - 1, the lower bound l(G) + 1 on the value).  Each picked
    I (the incumbent when nothing beats it) is one color class and every
    other vertex gets a fresh color.
    """
    d = diameter(g)
    if d <= 2:
        return SolverReport(
            value=g.n, witness=_fill(g, "mvc", []), nodes_explored=0, method="shortcut",
            bounds_used={"value_upper": g.n},
        )
    _guard_exact(g, "mvc_exact")
    ml = max_leaf_exact(g)
    far = sum(1 << j for j, (u, v) in enumerate(g.nonadjacent_pairs()) if not g.adj[u] & g.adj[v])
    best, picks, nodes = _search(g, "mvc", far, (ml.internal, ml.internal), ml.internal_count - 1)
    return SolverReport(
        value=g.n - best, witness=_fill(g, "mvc", [_bits(inner) for inner, _ in picks]),
        nodes_explored=nodes, method="tree_system",
        bounds_used={"value_lower": ml.leaf_count + 1, "value_upper": g.n - d + 2},
    )


def reverify(g: Graph, report: SolverReport) -> bool:
    """Re-run the matching verifier on a report's witness and check that the
    witness uses exactly ``value`` colors."""
    w = report.witness
    if isinstance(w, TotalColoring):
        ok, _ = verify_tmc(g, w)
    elif isinstance(w, EdgeColoring):
        ok, _ = verify_mc(g, w)
    else:
        ok, _ = verify_mvc(g, w)
    return ok and w.color_count == report.value
