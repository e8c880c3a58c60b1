import collections
import functools
import hashlib
import inspect
import itertools
import json
import random
import time
from dataclasses import replace

import networkx as nx
import pytest

from monoconn.coloring import (
    EdgeColoring,
    TotalColoring,
    VertexColoring,
    _fill,
    coloring_to_json,
    verify_mc,
    verify_mvc,
    verify_tmc,
)
from monoconn.harness import diameter2_size_bound
from monoconn.graphs import (
    complete_graph,
    complete_multipartite_graph,
    connected_labeled_graphs,
    cycle_graph,
    _bits,
    diameter,
    from_edge_list,
    is_connected,
    parse_graph6,
    path_graph,
    random_gnp,
    star_graph,
    tmc_identity_conditions,
    to_graph6,
    wheel_graph,
)
from monoconn import maxleaf, solvers
from monoconn.maxleaf import max_leaf_exact
from monoconn.solvers import (
    SolverRangeError,
    _candidates,
    _most,
    _need,
    _solve_cover,
    mc_exact,
    mvc_exact,
    reverify,
    tmc_exact,
)
from conftest import random_connected, shuffled
from oracles import (
    _count_lb_table as fixed_offset_lb_table,
    count_lb_reference,
    mc_candidates_reference,
    mc_naive,
    mvc_brute,
    mvc_candidates_reference,
    mvc_partition_reference,
    single_cover,
    tmc_candidates_reference,
    tmc_naive,
    tree_system_reference,
    validate_system,
    witness_trees,
)


class TestTmcExact:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cycle_graph(5), 4),
            (wheel_graph(5), 9),
            (complete_graph(4), 10),
            (complete_multipartite_graph([2, 1, 1]), 7),
            (path_graph(4), 3),
            (complete_graph(1), 1),
            (complete_graph(2), 3),
            (star_graph(6), 6),
            (wheel_graph(6), 11),
        ],
    )
    def test_named_values(self, g, expected):
        rep = tmc_exact(g)
        assert rep.value == expected
        assert reverify(g, rep)

    def test_tree_formula(self):
        # spanning trees of random graphs serve as tree instances
        for seed in range(15):
            base = random_connected(4 + seed % 5, seed + 7)
            tree = from_edge_list(base.n, max_leaf_exact(base).tree)
            l = max_leaf_exact(tree).leaf_count
            assert tmc_exact(tree).value == l + 1

    def test_lower_bound_always(self):
        for seed in range(25):
            g = random_connected(3 + seed % 5, seed + 13)
            l = max_leaf_exact(g).leaf_count
            assert tmc_exact(g).value >= g.m - g.n + 2 + l

    def test_complete_iff_max(self):
        for seed in range(25):
            g = random_connected(3 + seed % 5, seed + 17)
            assert (tmc_exact(g).value == g.m + g.n) == g.is_complete()

    def test_witness_system_valid(self):
        for seed in range(20):
            g = random_connected(4 + seed % 4, seed + 23)
            rep = tmc_exact(g)
            trees = witness_trees(g, rep.witness)
            validate_system(g, trees)
            waste = sum(len(edges) - 1 + len(internal) for edges, internal in trees)
            assert rep.value == g.m + g.n - waste

    def test_deterministic(self):
        g = random_connected(7, 4242)
        a, b = tmc_exact(g), tmc_exact(g)
        assert a.value == b.value
        assert a.witness.vertex_color == b.witness.vertex_color
        assert dict(a.witness.edge_color) == dict(b.witness.edge_color)

    def test_guard(self):
        with pytest.raises(SolverRangeError, match="out of range"):
            tmc_exact(cycle_graph(12))

    def test_guard_override(self, monkeypatch):
        monkeypatch.setenv("MONO_MAX_EXACT_N", "12")
        assert tmc_exact(cycle_graph(12)).value == 12 - 12 + 2 + 2


@pytest.mark.parametrize(
    "solve", [tmc_exact, mc_exact, mvc_exact, max_leaf_exact], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "g", [from_edge_list(4, [(0, 1), (2, 3)]), from_edge_list(12, [(0, 1)])], ids=["n4", "n12"]
)
def test_disconnected_refused(g, solve):
    # a disconnected graph is refused as such, also past the size guard
    with pytest.raises(ValueError, match="disconnected"):
        solve(g)


def test_max_leaf_guard_before_search(monkeypatch):
    # the refusal comes before the search: any vertex-set enumeration fails
    def no_search(*args):
        raise AssertionError("max_leaf_exact searched past the guard")

    monkeypatch.setattr(maxleaf, "combinations", no_search)
    with pytest.raises(SolverRangeError, match="max_leaf_exact accepts n <= 9"):
        max_leaf_exact(cycle_graph(24))
    monkeypatch.undo()
    # a complete graph past the guard is still answered, like the solvers do
    max_leaf_exact.cache_clear()
    assert max_leaf_exact(complete_graph(12)).leaf_count == 11


class TestTmcNaive:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (path_graph(3), 3),
            (complete_graph(3), 6),
            (cycle_graph(4), 4),
        ],
    )
    def test_named_values(self, g, expected):
        rep = tmc_naive(g)
        assert rep.value == expected
        assert rep.method == "naive_partition"
        assert reverify(g, rep)

    def test_agrees_with_exact_small(self):
        for n in (2, 3, 4):
            for g in connected_labeled_graphs(n):
                assert tmc_naive(g).value == tmc_exact(g).value, g.edges

    def test_guard(self):
        with pytest.raises(SolverRangeError):
            tmc_naive(complete_graph(5))  # m + n = 15


class TestMcExact:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete_graph(4), 6),
            (cycle_graph(5), 2),
            (wheel_graph(6), 7),
            (path_graph(5), 1),
            (star_graph(6), 1),
        ],
    )
    def test_named_values(self, g, expected):
        rep = mc_exact(g)
        assert rep.value == expected
        assert reverify(g, rep)

    def test_triangle_free_value(self):
        # K_3-free noncomplete graphs sit at the floor m - n + 2
        for g in (cycle_graph(4), cycle_graph(6), complete_multipartite_graph([3, 2])):
            assert mc_exact(g).value == g.m - g.n + 2

    def test_agrees_with_naive(self):
        checked = 0
        for seed in range(60):
            g = random_connected(3 + seed % 4, seed + 29)
            if g.m > 10:
                continue
            assert mc_exact(g).value == mc_naive(g).value, g.edges
            checked += 1
        assert checked > 30

    def test_witness_system_edge_disjoint(self):
        # edge-variant systems need no internal disjointness, and the value
        # accounts as m - sum(edges_i - 1)
        for seed in range(20):
            g = random_connected(4 + seed % 4, seed + 67)
            rep = mc_exact(g)
            trees = witness_trees(g, rep.witness)
            validate_system(g, trees)
            assert rep.value == g.m - sum(len(edges) - 1 for edges, _ in trees)

    def test_naive_guard(self):
        with pytest.raises(SolverRangeError):
            mc_naive(complete_graph(6))


class TestMvcExact:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cycle_graph(5), 5),
            (complete_graph(4), 4),
            (complete_graph(7), 7),
            (path_graph(4), 3),
            (path_graph(6), 3),
            (star_graph(6), 6),
            (cycle_graph(6), 3),
        ],
    )
    def test_named_values(self, g, expected):
        rep = mvc_exact(g)
        assert rep.value == expected
        assert reverify(g, rep)

    def test_diameter_le_2_is_n(self):
        for seed in range(20):
            g = random_connected(3 + seed % 5, seed + 31, p=0.8)
            from monoconn.graphs import diameter

            if diameter(g) <= 2:
                rep = mvc_exact(g)
                assert rep.value == g.n and rep.method == "shortcut"

    def test_agrees_with_brute(self):
        for seed in range(25):
            g = random_connected(3 + seed % 4, seed + 37, p=0.35)
            assert mvc_exact(g).value == mvc_brute(g), g.edges

    def test_upper_bound(self):
        from monoconn.graphs import diameter

        for seed in range(20):
            g = random_connected(4 + seed % 4, seed + 41, p=0.4)
            assert mvc_exact(g).value <= g.n - diameter(g) + 2

    @staticmethod
    def assert_matches_reference(g):
        rep = mvc_exact(g)
        assert rep.value == mvc_partition_reference(g).value, g.edges
        ok, pair = verify_mvc(g, rep.witness)
        assert ok and rep.witness.color_count == rep.value, (g.edges, pair)

    def test_matches_partition_reference_n_le_6(self):
        for n in range(1, 7):
            for g in connected_labeled_graphs(n):
                self.assert_matches_reference(g)

    def test_matches_partition_reference_n7_to_10(self, monkeypatch):
        from monoconn.graphs import diameter

        monkeypatch.setenv("MONO_MAX_EXACT_N", "10")
        graphs = (
            random_connected(7 + seed % 4, seed + 97, p=0.2 + 0.05 * (seed % 5))
            for seed in range(200)
        )
        far = [g for g in graphs if diameter(g) >= 3][:48]
        assert len(far) == 48
        for g in far:
            self.assert_matches_reference(g)

    def test_count_bound_uses_closed_neighbourhood_covers(self):
        # one connected class covers pairs anywhere in its closed
        # neighbourhood; mc's fixed count offset would stop this search at 6
        g = parse_graph6("HhW?kiA")
        rep = mvc_exact(g)
        assert (g.n, rep.value, rep.method) == (9, 7, "tree_system")
        assert reverify(g, rep)

    def test_two_class_witness_pinned(self):
        # an optimum joins the far pairs through two classes, {0, 1} and
        # {3, 4}; the search starts from the max-leaf internal set and finds
        # them, though the one class {0, 1, 5} has the same waste, and every
        # other vertex is fresh
        g = parse_graph6("HglCR_U")
        rep = mvc_exact(g)
        assert (g.n, rep.value, rep.method, rep.nodes_explored) == (9, 7, "tree_system", 6)
        assert coloring_to_json(rep.witness) == '{"vertex_colors": [1, 1, 2, 0, 0, 3, 4, 5, 6]}'
        assert reverify(g, rep)
        two_classes = VertexColoring((0, 0, 2, 1, 1, 3, 4, 5, 6))
        assert verify_mvc(g, two_classes) == (True, None)
        assert two_classes.color_count == 7

    def test_two_class_optimum_past_the_start(self):
        # no single class of waste 2 joins every far pair here, so the
        # optimum needs the two classes {0, 4} and {3, 5}
        g = parse_graph6("GE_}@S")
        rep = mvc_exact(g)
        assert (g.n, rep.value, rep.method, rep.nodes_explored) == (8, 6, "tree_system", 4)
        assert coloring_to_json(rep.witness) == '{"vertex_colors": [1, 2, 3, 0, 1, 0, 4, 5]}'
        assert reverify(g, rep)
        assert mvc_partition_reference(g).value == 6
        _, far, _ = TestCandidates.far_pairs(g)
        assert all(cov != far for _, _, _, _, cov in _candidates(g, far, 2, "mvc"))

    def test_guard(self, monkeypatch):
        with pytest.raises(SolverRangeError, match="mvc_exact accepts n <= 9"):
            mvc_exact(cycle_graph(10))
        rep = mvc_exact(star_graph(15))  # diameter 2: no guard, no search
        assert rep.value == 15 and rep.method == "shortcut"
        monkeypatch.setenv("MONO_MAX_EXACT_N", "10")
        assert mvc_exact(cycle_graph(10)).value == 3


class TestRelations:
    def test_sum_bound_and_equality_iff_complete(self):
        for seed in range(30):
            g = random_connected(2 + seed % 6, seed + 43)
            tmc = tmc_exact(g).value
            total = mc_exact(g).value + mvc_exact(g).value
            assert tmc <= total
            assert (tmc == total) == g.is_complete()

    def test_noncomplete_tmc_le_mc_plus_l(self):
        for seed in range(30):
            g = random_connected(3 + seed % 6, seed + 47)
            if g.is_complete():
                continue
            l = max_leaf_exact(g).leaf_count
            assert tmc_exact(g).value <= mc_exact(g).value + l

    def test_internal_sum_audit(self):
        for seed in range(25):
            g = random_connected(4 + seed % 5, seed + 53)
            if g.is_complete():
                continue
            q = max_leaf_exact(g).internal_count
            trees = witness_trees(g, tmc_exact(g).witness)
            assert sum(len(internal) for _, internal in trees) >= q

    def test_spanning_subgraph_monotonicity(self):
        # tmc(G) >= e(G) - e(H) + tmc(H) for connected spanning subgraphs H
        import random

        for seed in range(12):
            g = random_connected(5, seed + 59, p=0.7)
            rng = random.Random(seed)
            tmc_g = tmc_exact(g).value
            for _ in range(4):
                keep = [e for e in g.edges if rng.random() < 0.75]
                try:
                    h = from_edge_list(g.n, keep)
                except ValueError:
                    continue
                if not is_connected(h):
                    continue
                assert tmc_g >= (g.m - h.m) + tmc_exact(h).value

    def test_witness_transfer_from_one_edge_fewer(self):
        # a valid coloring of G - e stays valid on G once e gets a fresh
        # color, so tmc(G) >= tmc(G - e) + 1, mc(G) >= mc(G - e) + 1 and
        # mvc(G) >= mvc(G - e); the witnesses of G - e must carry over, and
        # the tight pairs catch an overstated G - e or understated G value
        pairs = tight = 0
        for g in _classes():
            values = [solve(g).value for solve in (tmc_exact, mc_exact, mvc_exact)]
            for e in g.edges:
                h = from_edge_list(g.n, [f for f in g.edges if f != e])
                if not is_connected(h):
                    continue
                tmc, mc, mvc = tmc_exact(h), mc_exact(h), mvc_exact(h)
                tw, mw = tmc.witness, mc.witness
                t_fresh = max(*tw.vertex_color, *tw.edge_color.values()) + 1
                m_fresh = max(mw.edge_color.values()) + 1
                t_moved = TotalColoring(tw.vertex_color, {**tw.edge_color, e: t_fresh})
                m_moved = EdgeColoring({**mw.edge_color, e: m_fresh})
                moved = [
                    (verify_tmc, t_moved, tmc.value + 1),
                    (verify_mc, m_moved, mc.value + 1),
                    (verify_mvc, mvc.witness, mvc.value),
                ]
                for value, (verify, w, count) in zip(values, moved):
                    assert verify(g, w) == (True, None), (g.edges, e, w)
                    assert w.color_count == count and value >= count, (g.edges, e)
                    tight += value == count
                pairs += 1
        assert (pairs, tight) == (976, 2_050)

    @pytest.mark.parametrize(
        "k,tmc,mc,l", [(3, 19, 15, 6), (4, 33, 28, 8), (5, 51, 45, 10)]
    )
    def test_gap_below_mc_plus_l_is_unbounded(self, monkeypatch, k, tmc, mc, l):
        # K_{1,2,...,2} with k parts of size 2 has gap mc + l - tmc = k - 1;
        # G - U is K_{2,...,2}, so mc starts from V - U
        monkeypatch.setenv("MONO_MAX_EXACT_N", "11")
        g = complete_multipartite_graph([1] + [2] * k)
        reports = tmc_exact(g), mc_exact(g)
        assert (reports[0].value, reports[1].value, max_leaf_exact(g).leaf_count) == (tmc, mc, l)
        assert mc + l - tmc == k - 1
        assert all(reverify(g, rep) for rep in reports)


class TestTreeSystemReference:
    def test_vertex_set_search_matches_subtree_search_n7(self):
        # validates the vertex-set reduction beyond the naive oracles' reach,
        # on sparse to dense graphs
        for seed in range(100):
            g = random_connected(7, seed + 71, p=0.3 + 0.1 * (seed % 6))
            assert tmc_exact(g).value == tree_system_reference(g, total=True), g.edges
            assert mc_exact(g).value == tree_system_reference(g, total=False), g.edges

    def test_vertex_set_search_matches_subtree_search_dense_n8(self):
        # dense graphs are where dominance and branching prune the most
        for seed in range(8):
            g = random_connected(8, seed + 83, p=(0.7, 0.85)[seed % 2])
            assert tmc_exact(g).value == tree_system_reference(g, total=True), g.edges
            assert mc_exact(g).value == tree_system_reference(g, total=False), g.edges


class TestCandidates:
    @staticmethod
    def graphs():
        yield from (g for n in range(1, 6) for g in connected_labeled_graphs(n))
        for h in nx.graph_atlas_g():  # one graph per isomorphism class
            if h.number_of_nodes() == 6 and nx.is_connected(h):
                yield from_edge_list(6, h.edges())
        for seed in range(6):
            yield random_connected(8, seed + 91, p=0.3 + 0.1 * seed)

    @staticmethod
    def far_pairs(g):
        """The pairs at distance >= 3 as a list and as a mask over every
        non-adjacent pair, and the map from their list positions to bits of
        that mask."""
        pairs = g.nonadjacent_pairs()
        at = [j for j, (u, v) in enumerate(pairs) if not g.adj[u] & g.adj[v]]
        return [pairs[j] for j in at], sum(1 << j for j in at), at

    def test_tmc_candidates_are_the_non_dominated_ones(self):
        checked = 0
        for g in self.graphs():
            pairs = g.nonadjacent_pairs()
            for cap in (g.n - 2, 2 * g.n - 4):
                got = _candidates(g, (1 << len(pairs)) - 1, cap, "tmc")
                assert got == tmc_candidates_reference(g, pairs, cap), (g.edges, cap)
                checked += len(got)
        assert checked > 0

    def test_mc_candidates_are_the_non_dominated_ones(self):
        checked = 0
        for g in self.graphs():
            pairs = g.nonadjacent_pairs()
            for cap in (g.n // 2 - 1, g.n - 2):
                got = _candidates(g, (1 << len(pairs)) - 1, cap, "mc")
                assert got == mc_candidates_reference(g, pairs, cap), (g.edges, cap)
                checked += len(got)
        assert checked > 0

    def test_mvc_candidates_are_the_non_dominated_ones(self):
        checked = 0
        for g in self.graphs():
            far, mask, at = self.far_pairs(g)
            for cap in (g.n // 2 - 1, g.n - 1):
                got = _candidates(g, mask, cap, "mvc")
                # mvc drops no candidate, so it matches the unreduced
                # reference; its cover bit k is far pair k, bit at[k] here
                want = [
                    (w, em, im, vm, sum(1 << at[k] for k in range(len(at)) if cov >> k & 1))
                    for w, em, im, vm, cov in mvc_candidates_reference(g, far, cap, reduced=False)
                ]
                assert got == want, (g.edges, cap)
                checked += len(got)
        assert checked > 0

    @pytest.mark.parametrize("p", [0.7, 0.9])
    def test_reduction_switched_off_finds_the_same_optimum(self, p):
        # the cover search over every candidate, dominated or not, reaches
        # the engine's best waste below the same incumbent
        for seed in range(10):
            g = random_connected(8, seed + 211, p=p)
            if g.is_complete():
                continue
            pairs = g.nonadjacent_pairs()
            q = max_leaf_exact(g).internal_count
            for variant, solve, top, ub, reference in (
                ("tmc", tmc_exact, g.m + g.n, g.n - 2 + q, tmc_candidates_reference),
                ("mc", mc_exact, g.m, g.n - 2, mc_candidates_reference),
            ):
                every = reference(g, pairs, ub - 1, reduced=False)
                full = (1 << len(pairs)) - 1
                assert set(_candidates(g, full, ub - 1, variant)) <= set(every)
                need = _need(_most(every), len(pairs), ub)
                best, _, _ = _solve_cover(every, full, ub, need)
                assert top - best == solve(g).value, (variant, g.edges)


class TestSharedTable:
    def test_tmc_mc_and_mvc_build_one_table(self, table_builds):
        g = cycle_graph(7)  # diameter 3: all three search
        reports = [tmc_exact(g), mc_exact(g), mvc_exact(g)]
        assert [r.method for r in reports] == ["tree_system"] * 3
        assert table_builds == [g]
        assert solvers._table.cache_info().currsize == 1

    def test_relabelled_copy_gets_fresh_table(self, table_builds):
        g = path_graph(6)
        h = shuffled(g)
        assert h != g
        tmc_exact(g)
        mc_exact(h)
        mvc_exact(h)
        tmc_exact(g)  # only the last graph's tables are kept
        assert table_builds == [g, h, g]
        assert solvers._table.cache_info().currsize == 1

    def test_max_leaf_then_tmc_and_mvc_compute_max_leaf_once(self, computations):
        seen = computations(max_leaf_exact)
        g = cycle_graph(7)
        maxleaf.max_leaf_exact(g)
        tmc_exact(g)
        mvc_exact(g)
        assert seen == [g]

    def test_solvers_take_only_the_graph(self):
        # the max-leaf tree and the diameter are computed inside, never handed in
        for fn in (tmc_exact, mvc_exact, tmc_identity_conditions, diameter2_size_bound):
            assert list(inspect.signature(fn).parameters) == ["g"], fn.__name__

    def test_another_graphs_cached_results_change_nothing(self):
        g = path_graph(5)
        max_leaf_exact(star_graph(5))
        diameter(cycle_graph(8))
        got = [tmc_exact(g), mvc_exact(g)]
        for producer in (max_leaf_exact, diameter, solvers._table):
            producer.cache_clear()
        assert got == [tmc_exact(g), mvc_exact(g)]
        assert all(reverify(g, rep) for rep in got)

    def test_table_matches_definitions(self):
        g = random_connected(7, 5, p=0.5)
        pairs = g.nonadjacent_pairs()
        t = solvers._table(g)
        h = nx.Graph(g.edges)
        for s in range(1 << g.n):
            vs = set(_bits(s))
            assert t.emask[s] == sum(1 << i for i, e in enumerate(g.edges) if set(e) <= vs)
            assert t.cover[s] == sum(1 << j for j, p in enumerate(pairs) if set(p) <= vs)
            assert t.nbr[s] == sum(1 << w for w in range(g.n) if any(g.has_edge(v, w) for v in vs))
            closed = [g.adj[v] | 1 << v for v in vs]
            assert t.common[s] == functools.reduce(int.__and__, closed, (1 << g.n) - 1)
            assert t.connected[s] == bool(vs and nx.is_connected(h.subgraph(vs)))


class TestCountBound:
    @staticmethod
    def graphs():
        """Every connected n <= 5 graph and one graph per class at n = 6."""
        atlas = (h for h in nx.graph_atlas_g() if h.number_of_nodes() == 6)
        graphs = [g for n in range(3, 6) for g in connected_labeled_graphs(n)]
        return graphs + [from_edge_list(6, h.edges()) for h in atlas if nx.is_connected(h)]

    @classmethod
    def cases(cls):
        """(variant, candidates, pair mask) with every candidate of every
        graph of graphs()."""
        for g in cls.graphs():
            pairs = g.nonadjacent_pairs()
            if not pairs:
                continue
            full = (1 << len(pairs)) - 1
            yield "mc", _candidates(g, full, g.n - 2, "mc"), full
            yield "tmc", _candidates(g, full, 2 * g.n - 4, "tmc"), full
            _, far, _ = TestCandidates.far_pairs(g)
            if far:
                yield "mvc", _candidates(g, far, g.n - 1, "mvc"), far

    def test_admissible_and_exact_on_small_graphs(self):
        # every set of up to three compatible candidates costs at least
        # need[pairs it covers], and need is the least waste whose
        # candidates' cover sizes reach that count
        checked = 0
        for variant, cands, pairs in self.cases():
            limit = 3 * cands[-1][0] + 1
            need = _need(_most(cands), pairs.bit_count(), limit)
            assert need == count_lb_reference(cands, pairs.bit_count(), limit), variant

            def grow(start, waste, used_e, used_i, covered, depth):
                nonlocal checked
                for ci in range(start, len(cands)):
                    w, em, im, _, cov = cands[ci]
                    if em & used_e or im & used_i:
                        continue
                    total, union = waste + w, covered | cov
                    assert total >= need[union.bit_count()], (variant, cands, ci)
                    checked += 1
                    if depth < 3:
                        grow(ci + 1, total, used_e | em, used_i | im, union, depth + 1)

            grow(0, 0, 0, 0, 0, 1)
        assert checked > 50_000

    def test_matches_fixed_offset_bound_past_the_guard(self, monkeypatch):
        # the per-graph bound against the old one: a tree of waste w covers
        # at most C(w + offset, 2) pairs (tmc 1, mc 2, mvc n)
        monkeypatch.setenv("MONO_MAX_EXACT_N", "11")
        dense = [random_connected(10, seed, p=0.7) for seed in range(1, 7)]
        dense += [random_connected(11, seed, p=0.7) for seed in (1, 2, 5)]
        sparse = (random_connected(10 + seed % 2, seed + 7, p=0.25) for seed in range(60))
        far = [g for g in sparse if diameter(g) >= 3][:12]
        assert len(far) == 12
        runs = [(tmc_exact, 1, g) for g in dense] + [(mc_exact, 2, g) for g in dense]
        runs += [(mvc_exact, g.n, g) for g in far]
        for solve, offset, g in runs:
            new = solve(g)
            with monkeypatch.context() as m:
                m.setattr(
                    solvers, "_need", lambda most, npairs, limit: fixed_offset_lb_table(npairs, offset)
                )
                old = solve(g)
            assert new.value == old.value, (solve.__name__, g.edges)
            assert new.nodes_explored <= old.nodes_explored
            assert reverify(g, new) and reverify(g, old)

    def test_root_proof_on_dense_graph(self, monkeypatch):
        # tmc = m - n + 2 + l proved at the root: the max-leaf incumbent
        # already meets the count bound, over the relaxed mc candidates, so
        # no tmc candidate is generated
        monkeypatch.setenv("MONO_MAX_EXACT_N", "10")
        g = random_connected(10, 2, p=0.7)
        generated = _count_tmc_generations(monkeypatch)
        rep = tmc_exact(g)
        l = max_leaf_exact(g).leaf_count
        assert (rep.value, rep.nodes_explored) == (g.m - g.n + 2 + l, 1)
        assert generated == []
        assert reverify(g, rep)

    def test_searching_tmc_generates_candidates_once(self, monkeypatch):
        g = random_connected(8, 4, p=0.7)
        generated = _count_tmc_generations(monkeypatch)
        rep = tmc_exact(g)
        assert rep.nodes_explored > 1
        assert generated == [g]

    def test_relaxed_root_tuples_are_admissible(self):
        # every tmc candidate at cap 2n - 4 has a relaxed tuple with the
        # same cover and no more waste, so the relaxed step's cover maxima
        # bound the real ones
        seeded = [random_connected(7 + i % 2, 300 + i, p=0.3 + 0.1 * (i % 6)) for i in range(12)]
        checked = 0
        for g in self.graphs() + seeded:
            pairs = g.nonadjacent_pairs()
            if not pairs:
                continue
            full, cap = (1 << len(pairs)) - 1, 2 * g.n - 4
            cheapest: dict[int, int] = {}
            for w, cov in solvers._relaxed_tuples(g, cap + 1):
                cheapest[cov] = min(w, cheapest.get(cov, w))
            for w, _, _, _, cov in _candidates(g, full, cap, "tmc"):
                assert cheapest.get(cov, w + 1) <= w, (g.edges, w, cov)
                checked += 1
        assert checked > 10_000


def _recorded_starts(monkeypatch) -> list:
    """The (variant, start, ub) that each _search call receives, in order."""
    seen = []
    search = solvers._search

    def recorded(g, variant, pairs, start, ub):
        seen.append((variant, start, ub))
        return search(g, variant, pairs, start, ub)

    monkeypatch.setattr(solvers, "_search", recorded)
    return seen


def _count_tmc_generations(monkeypatch) -> list:
    """The graphs that tmc candidate generation runs on, in order."""
    seen = []
    candidates = solvers._candidates

    def counted(g, pairs, cap, variant):
        if variant == "tmc":
            seen.append(g)
        return candidates(g, pairs, cap, variant)

    monkeypatch.setattr(solvers, "_candidates", counted)
    return seen


def _classes() -> list:
    """One connected graph per isomorphism class with n <= 6."""
    atlas = (h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6)
    graphs = [from_edge_list(h.number_of_nodes(), h.edges()) for h in atlas]
    graphs = [g for g in graphs if is_connected(g)]
    assert len(graphs) == 143
    return graphs


def _dense_batch() -> list:
    """dense9's batch: the first 4 connected G(9, 0.7) draws of Random(0)."""
    rng = random.Random(0)
    graphs = []
    while len(graphs) < 4:
        g = random_gnp(9, 0.7, rng.randrange(2**31))
        if is_connected(g):
            graphs.append(g)
    return graphs


def _row(rep):
    """A report's value, nodes, method, bounds and witness JSON."""
    return (
        rep.value, rep.nodes_explored, rep.method, rep.bounds_used,
        coloring_to_json(rep.witness),
    )


class TestDegreeCheck:
    def test_bound_and_coverage_admissible(self):
        # at each waste below ub the non-degree bound is at least the largest
        # cover of an mc candidate and of a tmc candidate
        seeded = [random_connected(7 + i % 3, 700 + i, p=0.3 + 0.1 * (i % 7)) for i in range(24)]
        checked = 0
        for g in TestCountBound.graphs() + seeded:
            pairs = g.nonadjacent_pairs()
            if not pairs:
                continue
            full = (1 << len(pairs)) - 1
            for variant, cap in (("mc", g.n - 2), ("tmc", 2 * g.n - 4)):
                cands = _candidates(g, full, cap, variant)
                for ub in range(1, cap + 2):
                    bound = solvers._degree_bound(g, variant, ub)
                    assert sorted(bound) == list(range(1, ub))
                    for w, _, _, _, cov in cands:
                        if w < ub:
                            assert bound[w] >= cov.bit_count(), (variant, g.edges, w)
                            checked += 1
        assert checked > 50_000

    def test_dense_batch_builds_no_table(self, table_builds):
        # the non-degrees prove tmc's and mc's roots on all four of dense9's
        # graphs, and mvc takes the diameter-2 shortcut; HmzzL^~ has two
        # universal vertices, so tmc starts from its single cover of waste
        # 7 rather than the max-leaf tree's 8, and the check proves that
        for g in _dense_batch():
            max_leaf_exact(g)
            for solve in (tmc_exact, mc_exact, mvc_exact):
                assert reverify(g, solve(g))
        assert table_builds == []


# each root step before the candidates: its builder and a fake that never
# proves (every pair covered at waste 1)
ROOT_STEPS = {
    "degree": ("_degree_bound", lambda g, variant, ub: {1: len(g.nonadjacent_pairs())}),
    "relaxed": ("_relaxed_tuples", lambda g, ub: [(1, solvers._pair_mask(g))]),
}


def _logging(fn, label: str, log: list):
    """``fn``, appending ``label`` to ``log`` at each call."""

    def logged(*args):
        log.append(label)
        return fn(*args)

    return logged


@pytest.mark.parametrize("step", list(ROOT_STEPS))
def test_root_step_changes_no_report(monkeypatch, step):
    # a step's proof is the real root's proof of the same incumbent, so
    # switching the step off changes no report; the floors on the solves
    # the step ends keep the switch-off from passing as a no-op
    name, never = ROOT_STEPS[step]
    graphs = [path_graph(3), path_graph(4)] + _classes()
    graphs += [
        random_connected(n, 40 * n + seed, p=tenths / 10)
        for n in (7, 8, 9) for tenths in range(2, 10) for seed in range(2)
    ]
    graphs += [
        random_connected(n, 60 * n + seed, p=p)
        for n in (7, 8, 9) for p in (0.2, 0.35, 0.5, 0.65, 0.8, 0.95) for seed in range(2)
    ]
    solves, ended = (tmc_exact, mc_exact, mvc_exact), []
    for g in graphs:
        rows, run = [], []
        with monkeypatch.context() as m:
            for builder in ("_degree_bound", "_relaxed_tuples", "_candidates"):
                m.setattr(solvers, builder, _logging(getattr(solvers, builder), builder, run))
            for solve in solves:
                run.clear()
                rows.append(_row(solve(g)))
                if run[-1:] == [name]:  # no later step ran: this one proved the root
                    ended.append(solve.__name__)
        with monkeypatch.context() as m:
            m.setattr(solvers, name, never)
            assert [_row(solve(g)) for solve in solves] == rows, g.edges
    counts = collections.Counter(ended)  # degree 167 tmc, 198 mc; relaxed 7 tmc
    floors = {"degree": {"tmc_exact": 40, "mc_exact": 40}, "relaxed": {"tmc_exact": 7}}
    assert all(counts[solve] >= k for solve, k in floors[step].items()), counts


class TestSingleCoverStart:
    @staticmethod
    def graphs():
        """One graph per class with n <= 6 and 36 seeded n = 7-9 graphs."""
        return _classes() + [
            random_connected(7 + i % 3, 500 + i, p=(0.3, 0.5, 0.7, 0.9)[i % 4]) for i in range(36)
        ]

    def test_mc_incumbent_is_the_single_cover(self, monkeypatch):
        # mc_exact hands the search W = V - U when G[W] is connected and
        # otherwise W plus the least universal vertex, checked here against
        # networkx; below a spanning tree's waste n - 2, that is the first
        # mc candidate covering every pair
        incumbents = _recorded_starts(monkeypatch)
        starts = collections.Counter()
        for g in self.graphs():
            if g.is_complete():
                continue
            incumbents.clear()
            assert reverify(g, mc_exact(g))
            full = solvers._pair_mask(g)
            cands = _candidates(g, full, g.n - 3, "mc")
            single = single_cover(cands, full)
            universal = [v for v in range(g.n) if g.degree(v) == g.n - 1]
            rest = nx.Graph(g.edges)
            rest.remove_nodes_from(universal)
            span = set(rest) if nx.is_connected(rest) else set(rest) | set(universal[:1])
            start = ((0, sum(1 << v for v in span)), len(span) - 2)
            assert incumbents == [("mc", *start)], g.edges
            if single is None:
                assert len(span) == g.n, g.edges
            else:
                waste, _, inner, span_mask, _ = cands[single]
                assert start == ((inner, span_mask), waste), g.edges
                starts[len(span) - len(rest)] += 1
        assert starts[0] >= 20 and starts[1] >= 5, starts

    def test_values_match_without_the_start(self, monkeypatch):
        # the cheapest candidate covering every pair alone is a valid system,
        # so starting from it moves no value; a lower incumbent only prunes,
        # so no node count rises.  Without the start tmc begins at the
        # max-leaf tree and mc at a spanning tree.
        graphs = self.graphs()
        solves = (tmc_exact, mc_exact)
        started = [[solve(g) for solve in solves] for g in graphs]
        search = solvers._search

        def spanning_start(g, variant, pairs, start, ub):
            # tmc's start keeps its internal set I (0 for mc) and spans V
            if variant != "mvc":
                inner = start[0]
                start, ub = (inner, (1 << g.n) - 1), g.n - 2 + inner.bit_count()
            return search(g, variant, pairs, start, ub)

        monkeypatch.setattr(solvers, "_search", spanning_start)
        moved = 0
        for g, reps in zip(graphs, started):
            for solve, rep in zip(solves, reps):
                plain = solve(g)
                assert rep.value == plain.value, (solve.__name__, g.edges)
                assert rep.nodes_explored <= plain.nodes_explored, (solve.__name__, g.edges)
                assert reverify(g, rep) and reverify(g, plain), (solve.__name__, g.edges)
                moved += rep.nodes_explored < plain.nodes_explored
        assert moved >= 20

    def test_dense_batch_mc_proved_at_root(self):
        # the first 4 connected G(9, 0.7) draws of Random(0) each have a
        # universal vertex: the non-universal vertices form the cheapest
        # single cover, and the root's count bound proves it optimal; tmc's
        # root is proved too, on all four graphs before any candidate is
        # built
        for g in _dense_batch():
            rep = mc_exact(g)
            assert rep.nodes_explored == 1, g.edges
            assert reverify(g, rep)
            universal = {v for v in range(g.n) if g.adj[v] | 1 << v == (1 << g.n) - 1}
            assert universal, g.edges
            ((edges, _),) = witness_trees(g, rep.witness)
            assert {v for e in edges for v in e} == set(range(g.n)) - universal
            assert tmc_exact(g).nodes_explored == 1, g.edges

    def test_start_is_a_cheapest_single_cover(self, monkeypatch):
        # each start's waste is the least of any single cover, found by
        # scanning the sorted candidates.  tmc's start is (I, W + I) with I
        # the max-leaf internal set and W = V - U, and I = {min U} when U is
        # non-empty: with |U| >= 2 the star from min U to W, below the
        # max-leaf tree, and with |U| <= 1 that tree
        recorded = _recorded_starts(monkeypatch)
        starts = collections.Counter()
        for g in self.graphs():
            if g.is_complete():
                continue
            recorded.clear()
            tmc_exact(g)
            mc_exact(g)
            full = solvers._pair_mask(g)
            universal = [v for v in range(g.n) if g.degree(v) == g.n - 1]
            rest = [v for v in range(g.n) if v not in universal]
            ml = max_leaf_exact(g)
            tree = g.n - 2 + ml.internal_count
            caps = {"tmc": 2 * g.n - 4, "mc": g.n - 2}
            assert [variant for variant, _, _ in recorded] == list(caps), g.edges
            for variant, (inner, span), waste in recorded:
                cands = _candidates(g, full, caps[variant], variant)
                assert waste == cands[single_cover(cands, full)][0], (variant, g.edges)
                if variant == "mc":
                    starts["mc", any(span >> u & 1 for u in universal)] += 1
                    continue
                assert (inner, span) == (ml.internal, sum(1 << v for v in rest) | inner), g.edges
                starts["tmc", min(len(universal), 2)] += 1
                if not universal:
                    assert waste == tree, g.edges
                    continue
                u = universal[0]
                assert inner == 1 << u and waste == len(rest), g.edges
                assert (waste < tree) == (len(universal) >= 2), g.edges
                star = sorted((min(u, v), max(u, v)) for v in rest)
                assert solvers._system(g, [(inner, span)]) == [star], g.edges
                witness = _fill(g, "tmc", [star + [u]])
                assert verify_tmc(g, witness) == (True, None), g.edges
                assert witness.color_count == g.m + g.n - waste, g.edges
        # mc takes both the W branch and the W + min U branch, and tmc the
        # max-leaf tree with no, one and several universal vertices
        assert min(starts.values()) >= 5 and len(starts) == 5, starts


class TestTreeSystemValidate:
    def test_disconnected_tree_with_one_edge_fewer_than_vertices(self):
        # a triangle plus a disjoint edge passes the edge count, not connectivity
        edges = ((0, 1), (0, 2), (1, 2), (3, 4))
        g = from_edge_list(5, edges)
        with pytest.raises(ValueError, match="not connected"):
            validate_system(g, [(list(edges), {0, 1, 2})])

    def test_tree_color_on_a_leaf(self):
        # P_4's witness is one tree 0-1-2-3 whose color lies on 1 and 2;
        # moving it onto the leaf 0 breaks the internal-set match
        g = path_graph(4)
        w = tmc_exact(g).witness
        validate_system(g, witness_trees(g, w))
        tree_color = w.edge_color[(0, 1)]
        moved = replace(w, vertex_color=(tree_color,) + w.vertex_color[1:])
        with pytest.raises(ValueError, match="internal set"):
            validate_system(g, witness_trees(g, moved))


def _assert_bracketed(g):
    """Each report's bounds_used brackets its value, and the paper's
    bounds hold on the solved values (n >= 3: on K_2, l + 1 = 3 > mvc)."""
    reps = [solve(g) for solve in (tmc_exact, mc_exact, mvc_exact)]
    for rep in reps:
        v = rep.value
        assert rep.bounds_used.get("value_lower", v) <= v <= rep.bounds_used["value_upper"], g.edges
    tmc, mc, mvc = (rep.value for rep in reps)
    l = max_leaf_exact(g).leaf_count
    assert g.m - g.n + 2 + l <= tmc, g.edges
    assert g.is_complete() or tmc <= mc + l, g.edges
    assert l + 1 <= mvc <= g.n - diameter(g) + 2, g.edges
    assert tmc <= mc + mvc, g.edges


class TestBounds:
    def test_guard(self):
        t0 = time.perf_counter()
        with pytest.raises(SolverRangeError, match="tmc_exact accepts n <= 9"):
            tmc_exact(cycle_graph(40))
        assert time.perf_counter() - t0 < 1.0
        assert tmc_exact(complete_graph(12)).bounds_used["value_upper"] == 66 + 12

    def test_c5(self):
        g = cycle_graph(5)
        assert tmc_exact(g).bounds_used["value_lower"] == 4
        assert mvc_exact(g).bounds_used["value_upper"] == 5

    def test_k4(self):
        g = complete_graph(4)
        rep = tmc_exact(g)
        assert rep.bounds_used == {"value_lower": 10, "value_upper": 10}
        assert g.m - g.n + 2 + max_leaf_exact(g).leaf_count == 7 < rep.value

    def test_star(self):
        g = star_graph(6)
        tmc, mc, mvc = tmc_exact(g), mc_exact(g), mvc_exact(g)
        assert tmc.bounds_used["value_lower"] == tmc.value == 6
        assert mvc.bounds_used == {"value_upper": 6} and mvc.value == 6
        assert max_leaf_exact(g).leaf_count + 1 == 6
        assert tmc.value <= mc.value + mvc.value == 7

    def test_mc_supplied_upper(self):
        g = cycle_graph(6)
        mc_plus_l = mc_exact(g).value + max_leaf_exact(g).leaf_count
        assert mc_plus_l == 2 + 2
        assert tmc_exact(g).value <= mc_plus_l

    def test_bounds_bracket_solvers(self):
        for seed in range(20):
            _assert_bracketed(random_connected(3 + seed % 5, seed + 61))

    def test_bounds_bracket_every_small_graph(self):
        graphs = [g for n in range(3, 6) for g in connected_labeled_graphs(n)]
        assert len(graphs) == 4 + 38 + 728
        for g in graphs:
            _assert_bracketed(g)


def test_methods_and_nodes():
    assert tmc_exact(complete_graph(5)).method == "shortcut"
    rep = tmc_exact(cycle_graph(5))
    assert rep.method == "tree_system" and rep.nodes_explored > 0
    assert rep.bounds_used["value_lower"] == 4


def test_every_search_counts_its_root():
    # a root proof counts one node, as the branch step does when the bound
    # prunes the root or the root branches on a pair with no candidate;
    # only a shortcut counts none
    searched = 0
    for g in TestSingleCoverStart.graphs():
        for solve in (tmc_exact, mc_exact, mvc_exact):
            rep = solve(g)
            searching = rep.method == "tree_system"
            assert (rep.nodes_explored > 0) == searching, (solve.__name__, g.edges)
            searched += searching
    assert searched >= 333


# sha256 of each report's value, method, nodes, bounds and witness JSON
# for tmc, mc and mvc over every labelled connected graph with n <= 5 and
# 20 seeded graphs with n = 7 or 8; any change to a witness moves it
WITNESS_DIGEST = "cc2c1278536bfa5d1b4b803a8e4ebc22048f538217428673aa18d4edcc4413a4"


def test_reports_match_golden_witness_digest():
    graphs = [g for n in range(1, 6) for g in connected_labeled_graphs(n)]
    graphs += [random_connected(7 + i % 2, 900 + i, p=(0.3, 0.5, 0.7)[i % 3]) for i in range(20)]
    h = hashlib.sha256()
    for g in graphs:
        for solve in (tmc_exact, mc_exact, mvc_exact):
            rep = solve(g)
            row = [
                rep.value, rep.method, rep.nodes_explored, rep.bounds_used,
                coloring_to_json(rep.witness),
            ]
            h.update((json.dumps(row, sort_keys=True) + "\n").encode())
    assert len(graphs) == 792
    assert h.hexdigest() == WITNESS_DIGEST


def test_node_counts_pinned_past_the_digest(monkeypatch):
    # the digest stops at n = 8; this dense n = 12 graph runs the search
    # deep enough that a change to its pruning moves the node counts
    monkeypatch.setenv("MONO_MAX_EXACT_N", "12")
    g = random_gnp(12, 0.8, 1)
    tmc, mc = tmc_exact(g), mc_exact(g)
    assert (tmc.value, tmc.nodes_explored) == (54, 6_574)
    assert (mc.value, mc.nodes_explored) == (46, 88_913)
    assert reverify(g, tmc) and reverify(g, mc)


def test_star_start_generates_no_tmc_candidate(monkeypatch):
    # two universal vertices put the start below the max-leaf tree, where
    # the degree or relaxed check proves it before any (S, I) is generated
    monkeypatch.setenv("MONO_MAX_EXACT_N", "14")
    generated = _count_tmc_generations(monkeypatch)
    reports = [tmc_exact(random_gnp(14, 0.9, 14003)), tmc_exact(random_gnp(13, 0.8, 1))]
    assert [(r.value, r.nodes_explored) for r in reports] == [(82, 1), (67, 1)]
    assert generated == []


def test_single_cover_start_node_counts_pinned(monkeypatch):
    # both graphs have a universal vertex, so the search starts from the
    # cheapest single cover: it proves tmc at the root, and takes mc on
    # G(13, 0.8) from 2,101,676 nodes to 1,304
    monkeypatch.setenv("MONO_MAX_EXACT_N", "14")
    g13, g14 = random_gnp(13, 0.8, 1), random_gnp(14, 0.9, 1)
    reports = [tmc_exact(g13), mc_exact(g13), tmc_exact(g14)]
    assert [(r.value, r.nodes_explored) for r in reports] == [(67, 1), (56, 1_304), (85, 1)]
    assert all(reverify(g, r) for g, r in zip((g13, g13, g14), reports))
