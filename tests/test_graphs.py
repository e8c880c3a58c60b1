import hashlib
import random
import re
import time
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import networkx as nx
import numpy as np

from monoconn.graphs import (
    GraphFormatError,
    _complement_4_connected,
    _disjoint_paths,
    _kappa,
    _nbr,
    _pairs,
    canonical_order,
    complement,
    complete_graph,
    complete_multipartite_graph,
    connected_labeled_graphs,
    cycle_graph,
    diameter,
    from_edge_list,
    has_cut_vertex,
    is_connected,
    is_triangle_free,
    max_degree,
    parse_edgelist,
    parse_graph6,
    parse_graphs,
    path_graph,
    random_gnp,
    relabel,
    star_graph,
    tmc_identity_conditions,
    to_graph6,
    vertex_connectivity,
    wheel_graph,
)
from monoconn.harness import builtin_corpus
from conftest import format_edgelist, random_connected
from oracles import (
    _local_vertex_connectivity,
    k_connected_bf,
    labeled_connected_reference,
    petersen,
    random_gnp_reference,
    vertex_connectivity_reference,
)


class TestFromEdgeList:
    def test_p3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2

    def test_k4(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert g.m == 6

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_edge_list(3, [(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(3, [(0, 3)])

    @pytest.mark.parametrize("pair", [(0, 1, 2), (0,), (0.0, 1), ("0", 1), 5])
    def test_malformed_pair_named(self, pair):
        message = f"^edge must be a pair of integer vertices: pair {re.escape(repr(pair))}$"
        with pytest.raises(ValueError, match=message):
            from_edge_list(3, [pair])

    @pytest.mark.parametrize("pair,edge", [
        ((True, 2), (1, 2)), ((np.int64(2), np.uint8(0)), (0, 2)),
    ])
    def test_index_endpoints_read_as_int(self, pair, edge):
        g = from_edge_list(3, [pair])
        assert g.edges == (edge,) and all(type(x) is int for x in g.edges[0])


class TestGraph6:
    def test_single_edge(self):
        # 'A' encodes n=2; '_' = chr(95) carries bits 100000, so the one
        # upper-triangle bit (0,1) is set
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_empty_two_vertices(self):
        # the edgeless pair packs as 000000 -> chr(63) = '?'
        g = parse_graph6("A?")
        assert g.n == 2 and g.m == 0 and not is_connected(g)

    def test_nonzero_padding_rejected(self):
        # '@' = 000001 puts a one into the padding region
        with pytest.raises(GraphFormatError, match="padding"):
            parse_graph6("A@")

    def test_c5_known_encoding(self):
        # hand-packed: bits 1010011001 for C_5 -> chunks 101001, 100100
        assert to_graph6(cycle_graph(5)) == "Dhc"

    def test_header_tolerated(self):
        g = parse_graph6(">>graph6<<A_")
        assert g.m == 1

    def test_malformed_length(self):
        with pytest.raises(GraphFormatError, match="length"):
            parse_graph6("D")  # n=5 needs 2 data chars
        with pytest.raises(GraphFormatError, match="length"):
            parse_graph6("Dhcc")

    def test_char_out_of_range(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("D" + chr(30) + "c")

    @given(st.integers(1, 13), st.integers(0, 10**6))
    @example(62, 1)
    @example(63, 2)  # n >= 63 takes the four-character size header
    @example(64, 3)
    @example(100, 4)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, n, seed):
        g = random_gnp(n, 0.5, seed)
        assert parse_graph6(to_graph6(g)).edges == g.edges

    @given(st.integers(1, 13), st.integers(0, 10**6))
    @example(62, 1)
    @example(63, 2)
    @example(64, 3)
    @example(100, 4)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_encoder(self, n, seed):
        g = random_gnp(n, 0.4, seed)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        assert to_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip()


class TestEdgeList:
    def test_round_trip(self):
        g = wheel_graph(6)
        assert parse_edgelist(format_edgelist(g)).edges == g.edges

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            parse_edgelist("nonsense\n0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_edgelist("3 2\n0 1\n")

    @pytest.mark.parametrize("line", ["1 x", "0 1 2", "1.0 2"])
    def test_bad_edge_line_named(self, line):
        with pytest.raises(GraphFormatError, match=f"^edge line must be 'u v', got '{line}'$"):
            parse_edgelist(f"3 1\n{line}\n")


class TestGraphText:
    def test_graph6_lines_skip_comments_headers_and_blanks(self):
        text = "# C_5, then K_4\n\n>>graph6<<\nDhc\n  # between\n\nC~\n"
        assert [to_graph6(g) for g in parse_graphs(text)] == ["Dhc", "C~"]

    def test_edgelist_after_comment(self):
        (g,) = parse_graphs("# triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n")
        assert g == complete_graph(3)

    @pytest.mark.parametrize("text", ["", "\n  \n", "# nothing\n", ">>graph6<<\n"])
    def test_no_graphs(self, text):
        assert list(parse_graphs(text)) == []


class TestStructure:
    def test_diameter(self):
        assert diameter(path_graph(4)) == 3
        assert diameter(cycle_graph(5)) == 2
        assert diameter(complete_graph(6)) == 1

    def test_diameter_disconnected(self):
        for g in [
            from_edge_list(2, []),                    # K_1 + K_1
            from_edge_list(3, [(0, 1)]),              # K_2 + K_1
            from_edge_list(4, [(0, 1), (1, 2)]),      # P_3 + K_1
            from_edge_list(4, [(1, 2), (2, 3)]),      # K_1 + P_3: the first BFS stalls at once
            from_edge_list(5, [(0, 1), (2, 3), (3, 4), (2, 4)]),  # K_2 + K_3
        ]:
            with pytest.raises(ValueError, match="disconnected"):
                diameter(g)

    @given(st.lists(st.integers(0, 2**12 - 1), max_size=12), st.integers(0, 2**12 - 1))
    def test_nbr_is_the_union_of_rows(self, adj, mask):
        mask &= (1 << len(adj)) - 1
        union = 0
        for v in range(len(adj)):
            if mask >> v & 1:
                union |= adj[v]
        assert _nbr(adj, mask) == union

    def test_complement_k4(self):
        assert complement(complete_graph(4)).m == 0

    def test_complement_involution(self):
        for seed in range(25):
            g = random_gnp(2 + seed % 8, 0.5, seed)
            assert complement(complement(g)).edges == g.edges

    def test_complement_c5_self(self):
        # complement of C_5 is 2-regular and connected, hence a 5-cycle again
        c = complement(cycle_graph(5))
        assert c.degrees() == [2] * 5 and is_connected(c)

    def test_edge_count_split(self):
        for seed in range(25):
            n = 2 + seed % 9
            g = random_gnp(n, 0.5, seed)
            assert g.m + complement(g).m == n * (n - 1) // 2

    def test_degree_sum(self):
        for seed in range(25):
            g = random_gnp(2 + seed % 9, 0.6, seed)
            assert sum(g.degrees()) == 2 * g.m

    def test_vertex_connectivity_named(self):
        assert vertex_connectivity(complete_graph(5)) == 4
        assert vertex_connectivity(cycle_graph(5)) == 2
        assert vertex_connectivity(path_graph(4)) == 1
        assert vertex_connectivity(from_edge_list(3, [(0, 1)])) == 0

    def test_vertex_connectivity_le_min_degree(self):
        for seed in range(30):
            g = random_connected(3 + seed % 7, seed)
            assert vertex_connectivity(g) <= min(g.degrees())

    def test_vertex_connectivity_matches_cut_enumeration(self):
        for seed in range(20):
            g = random_gnp(6, 0.55, seed)
            k = vertex_connectivity(g)
            if k > 0:
                assert k_connected_bf(g, k)
            assert not k_connected_bf(g, k + 1)

    def test_vertex_connectivity_matches_reference(self):
        graphs = []
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            graphs.extend(
                from_edge_list(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
                for mask in range(1 << len(pairs))
            )
        for seed in range(300):
            graphs.append(random_gnp(7 + seed % 10, (0.2, 0.5, 0.8, 0.95)[seed // 10 % 4], seed))
        # vertex 0 is the unique minimum-degree vertex and the only cut vertex:
        # only a pair of its neighbours exposes the cut
        blocks = list(combinations(range(1, 7), 2)) + list(combinations(range(7, 13), 2))
        graphs.append(from_edge_list(13, blocks + [(0, 1), (0, 2), (0, 7), (0, 8)]))
        # the first augmenting 0-4 path is 0-1-2-3-4; the second must undo 1-2-3
        graphs.append(from_edge_list(11, [
            (0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 3),
            (1, 8), (8, 9), (9, 10), (10, 4),
        ]))
        # kappa(0, 1) = 4 from common neighbours 2, 3 plus 0-4-6-1 and 0-5-7-1
        # through the clique on 2..7; vertex 0 has minimum degree
        graphs.append(from_edge_list(8, list(combinations(range(2, 8), 2)) + [
            (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6), (1, 7),
        ]))
        # two K_4 sharing vertex 3: past the seeded path 0-3-4, the first
        # augmenting path would enter the common neighbour 3 by 0-1-3
        graphs.append(from_edge_list(
            7, list(combinations(range(4), 2)) + list(combinations(range(3, 7), 2))
        ))
        # the greedy start routes 0-1-2-5; the second 0-5 path, 0-4-2-5 beside
        # 0-1-3-5, exists only once the search reroutes it (kappa(0, 5) = 2)
        graphs.append(from_edge_list(6, [
            (0, 1), (0, 4), (1, 2), (1, 3), (2, 4), (2, 5), (3, 5),
        ]))
        # the survey's traffic: complements of G(12, 1/2)
        graphs.extend(complement(random_gnp(12, 0.5, seed)) for seed in range(100))
        for g in graphs:
            k = vertex_connectivity_reference(g)
            assert vertex_connectivity(g) == k, to_graph6(g)
            # the row kernel under each cap; disconnected graphs read 0
            for cap in (1, 2, 4, g.n):
                assert _kappa(list(g.adj), cap) == min(cap, k), (to_graph6(g), cap)

    def test_complement_4_connected_matches_reference(self):
        # the survey's first 300 connected samples, then a graph whose
        # complement has minimum degree 5 but the 3-cut {8, 9, 10} between
        # {0..3} and {4..7}
        samples = (random_gnp(12, 0.5, 1_000_003 + i) for i in range(400))
        graphs = [g for g in samples if is_connected(g)][:300]
        graphs.append(from_edge_list(
            11, [(a, b) for a in range(4) for b in range(4, 8)] + [(0, 8), (1, 9), (2, 10)]
        ))
        outcomes = set()
        for g in graphs:
            holds = _complement_4_connected(g)
            assert holds == (vertex_connectivity_reference(complement(g)) >= 4), to_graph6(g)
            if g.n - 1 - max_degree(g) >= 4:
                outcomes.add(holds)
        assert len(graphs) == 301
        assert outcomes == {True, False}

    def test_disjoint_paths_matches_local_connectivity(self):
        graphs = [
            random_gnp(4 + seed % 9, (0.3, 0.5, 0.7)[seed // 9 % 3], seed) for seed in range(270)
        ]
        graphs += [complement(random_gnp(12, 0.5, seed)) for seed in range(40)]
        for g in graphs:
            for s, t in g.nonadjacent_pairs():
                k = _local_vertex_connectivity(g, s, t)
                for cap in (1, 2, 4, g.n):
                    assert _disjoint_paths(g.adj, s, t, cap) == min(cap, k), (to_graph6(g), s, t)

    def test_vertex_connectivity_dense_without_blowup(self):
        # a minimum cut of 12 or 27 vertices is out of reach of cut enumeration
        t0 = time.perf_counter()
        assert vertex_connectivity(complete_multipartite_graph([12, 12])) == 12
        assert vertex_connectivity(complement(cycle_graph(30))) == 27
        assert time.perf_counter() - t0 < 1.0

    def test_cut_vertex(self):
        assert has_cut_vertex(path_graph(3))
        assert not has_cut_vertex(cycle_graph(4))

    def test_triangle_free(self):
        assert is_triangle_free(cycle_graph(4))
        assert not is_triangle_free(complete_graph(3))
        assert is_triangle_free(petersen())

    def test_triangle_free_matches_triple_enumeration(self):
        for seed in range(25):
            g = random_gnp(6, 0.5, seed)
            brute = not any(
                g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                for a, b, c in combinations(range(g.n), 3)
            )
            assert is_triangle_free(g) == brute


class TestIdentityConditions:
    def test_p5(self):
        c = tmc_identity_conditions(path_graph(5))
        assert c.triangle_free and c.diameter_ge_3 and c.has_cut_vertex
        assert not c.complement_4_connected

    def test_c8_diameter_ge_3(self):
        assert tmc_identity_conditions(cycle_graph(8)).diameter_ge_3

    def test_k5_all_false(self):
        c = tmc_identity_conditions(complete_graph(5))
        assert not c.any_holds()

    def test_k23(self):
        c = tmc_identity_conditions(complete_multipartite_graph([3, 2]))
        assert c.triangle_free

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n > 3"):
            tmc_identity_conditions(complete_graph(3))

    def test_degree_bound_boundary_excluded(self):
        # K_{n-2,1,1} sits exactly on the bound, which must not count
        for n in (5, 6, 7):
            g = complete_multipartite_graph([n - 2, 1, 1])
            c = tmc_identity_conditions(g)
            assert not c.degree_bound_holds

    def test_flags_match_definition_recomputation(self):
        from fractions import Fraction

        # at n = 5 the complement's minimum degree never reaches 4, so the
        # flow is never run; sparse n = 9 graphs reach both branches, and
        # the hand-built graph's complement has minimum degree 5 but the
        # 3-cut {8, 9, 10} between {0..3} and {4..7}
        cut = from_edge_list(
            11, [(a, b) for a in range(4) for b in range(4, 8)] + [(0, 8), (1, 9), (2, 10)]
        )
        sparse = [random_connected(9, seed, p=0.3) for seed in range(12)] + [cut]
        branches = set()
        for g in list(connected_labeled_graphs(5)) + sparse:
            c = tmc_identity_conditions(g)
            n, m = g.n, g.m
            assert c.complement_4_connected == k_connected_bf(complement(g), 4)
            branches.add((n - 1 - max_degree(g) >= 4, c.complement_4_connected))
            assert c.triangle_free == is_triangle_free(g)
            assert c.diameter_ge_3 == (diameter(g) >= 3)
            assert c.has_cut_vertex == has_cut_vertex(g)
            expected = Fraction(max_degree(g)) < n - Fraction(2 * m - 3 * (n - 1), n - 3)
            assert c.degree_bound_holds == expected
        assert branches == {(False, False), (True, True), (True, False)}


def rook_graph_3x3():
    cells = [(r, c) for r in range(3) for c in range(3)]
    return from_edge_list(9, [
        (a, b) for a, b in combinations(range(9), 2)
        if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
    ])


def paley_graph_13():
    # vertices Z_13, adjacent when their difference is a nonzero square
    squares = {x * x % 13 for x in range(1, 13)}
    return from_edge_list(13, [(a, b) for a, b in combinations(range(13), 2) if b - a in squares])


def cube_graph():
    return from_edge_list(8, [(a, b) for a, b in combinations(range(8), 2)
                              if bin(a ^ b).count("1") == 1])


# sha256 of canonical_order(g), code and order, over every labelled
# connected graph with n <= 6 and 600 seeded G(n, p) graphs with n = 7, 8
# or 9; any change to a code or to an order moves it
CANONICAL_DIGEST = "ad2b62cf5c2d9c478c51a9a405a5e1c62e792dfba8f1a770d928b7f2abdc5cce"


class TestCanonicalOrder:
    @pytest.mark.parametrize("g,order", [
        (path_graph(3), [1, 1, 2]),       # a repeated vertex
        (cycle_graph(4), [0, 0, 2, 3]),   # a repeated vertex, then a missing one
        (path_graph(3), [2, 1]),          # too short
        (cycle_graph(3), [0, 1, 2, 3]),   # a vertex g does not have
    ])
    def test_relabel_rejects_non_permutation(self, g, order):
        with pytest.raises(ValueError, match="permutation"):
            relabel(g, order)

    def test_class_counts_match_oeis(self):
        # connected graphs on n unlabelled vertices, OEIS A001349
        codes: dict[int, set] = {}
        for g in builtin_corpus(6):
            codes.setdefault(g.n, set()).add(canonical_order(g)[0])
        assert [len(codes[n]) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]

    def test_orders_match_golden_digest(self):
        graphs = list(builtin_corpus(6))
        graphs += [random_gnp(7 + i % 3, (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5], 1000 + i)
                   for i in range(600)]
        h = hashlib.sha256()
        for g in graphs:
            code, order = canonical_order(g)
            h.update(f"{code} {list(order)}\n".encode())
        assert len(graphs) == 28076
        assert h.hexdigest() == CANONICAL_DIGEST

    @given(st.integers(1, 10), st.floats(0.1, 0.9), st.integers(0, 10**6),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_relabelling_keeps_code(self, n, p, seed, rnd):
        g = random_gnp(n, p, seed)
        order = list(range(n))
        rnd.shuffle(order)
        h = relabel(g, order)
        code, canon = canonical_order(g)
        assert canonical_order(h)[0] == code
        assert relabel(h, canonical_order(h)[1]) == relabel(g, canon)
        # canon is an isomorphism from g onto the graph whose rows code holds
        assert sorted(canon) == list(range(n))
        for i in range(n):
            row = code >> (n * (n - 1 - i))
            for j in range(n):
                assert (row >> j) & 1 == g.has_edge(canon[i], canon[j])

    @given(st.integers(2, 7), st.integers(0, 10**6), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_equal_code_iff_isomorphic(self, n, seed, rnd):
        # b has a's n and m, so that the two may be isomorphic
        a = random_gnp(n, 0.5, seed)
        b = from_edge_list(n, rnd.sample(list(combinations(range(n), 2)), a.m))
        na, nb = nx.empty_graph(n), nx.empty_graph(n)
        na.add_edges_from(a.edges)
        nb.add_edges_from(b.edges)
        same = canonical_order(a)[0] == canonical_order(b)[0]
        assert same == nx.is_isomorphic(na, nb)

    @pytest.mark.parametrize("name,g", [
        ("K_9", complete_graph(9)),
        ("K_11", complete_graph(11)),
        ("K_1,8", star_graph(9)),
        ("K_3,3,3", complete_multipartite_graph([3, 3, 3])),
        ("rook_3x3", rook_graph_3x3()),
        ("Q_3", cube_graph()),
        ("C_9", cycle_graph(9)),
        ("Petersen", petersen()),
        ("Paley_13", paley_graph_13()),
    ])
    def test_symmetric_graphs_within_budget(self, name, g):
        t0 = time.perf_counter()
        code, order = canonical_order(g)
        assert time.perf_counter() - t0 < 0.05, name
        assert sorted(order) == list(range(g.n))


class TestGenerators:
    def test_wheel(self):
        g = wheel_graph(5)
        assert g.n == 5 and g.m == 8
        assert g.degree(0) == 4

    def test_wheel_too_small(self):
        with pytest.raises(ValueError):
            wheel_graph(3)

    def test_multipartite_c4(self):
        g = complete_multipartite_graph([2, 2])
        assert g.n == 4 and g.m == 4 and g.degrees() == [2, 2, 2, 2]

    def test_multipartite_needs_two_classes(self):
        with pytest.raises(ValueError):
            complete_multipartite_graph([4])

    def test_star(self):
        g = star_graph(6)
        assert sorted(g.degrees()) == [1, 1, 1, 1, 1, 5]

    def test_random_deterministic(self):
        a = random_gnp(8, 0.5, seed=1)
        b = random_gnp(8, 0.5, seed=1)
        assert a.edges == b.edges
        assert random_gnp(8, 0.5, seed=2).edges != a.edges

    def test_random_equals_edge_list_build(self):
        # the same draws through the validating constructor give the same graph
        for n, p, seed in product((1, 2, 5, 9, 13), (0.0, 0.3, 0.7, 1.0), range(4)):
            rng = random.Random(seed)
            pairs = [e for e in combinations(range(n), 2) if rng.random() < p]
            g = random_gnp(n, p, seed)
            assert g == from_edge_list(n, pairs), (n, p, seed)
            assert g.degrees() == [g.degree(v) for v in range(n)]
            assert g.degrees() == [sum(v in e for e in g.edges) for v in range(n)]

    def test_random_matches_reference_stream(self):
        # n alternates with 12, so the last-n pair table misses at each
        # change of n and hits on the draws between
        _pairs.cache_clear()
        ns = [k for n in range(1, 15) for k in (n, 12)]
        for n in ns:
            for p, seed in product((0.0, 0.3, 0.5, 0.9, 1.0), range(20)):
                assert random_gnp(n, p, seed) == random_gnp_reference(n, p, seed), (n, p, seed)
        changes = sum(n != before for n, before in zip(ns, [None] + ns))
        assert _pairs.cache_info()[:2] == (len(ns) * 100 - changes, changes)

    @pytest.mark.parametrize("n,p", [
        (0, 0.5), (-3, 0.5), (0, 2.0), (3, -0.1), (3, 1.5), (3, float("nan")),
    ])
    def test_random_rejects_like_reference(self, n, p):
        with pytest.raises(ValueError) as ref:
            random_gnp_reference(n, p, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            random_gnp(n, p, 1)

    def test_connected_corpus_counts(self):
        # labeled connected graph counts (OEIS A001187)
        assert [sum(1 for _ in connected_labeled_graphs(n)) for n in range(1, 7)] == [
            1, 1, 4, 38, 728, 26704,
        ]

    def test_connected_corpus_count_n7(self):
        # the 10/11-pair split of the half-mask join (OEIS A001187)
        assert sum(1 for _ in connected_labeled_graphs(7)) == 1866256

    @pytest.mark.parametrize("n", range(1, 7))
    def test_connected_corpus_matches_reference(self, n):
        def fields(graphs):
            return [(g.n, g.edges, g.adj) for g in graphs]
        assert fields(connected_labeled_graphs(n)) == fields(labeled_connected_reference(n))

    def test_connected_corpus_is_lazy(self):
        tracemalloc.start()
        try:
            next(connected_labeled_graphs(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("n", [8, 30])
    def test_connected_corpus_refuses_past_cap(self, n):
        graphs = connected_labeled_graphs(n)
        start = time.perf_counter()
        message = f"^labelled connected graphs are capped at n <= 7, got n={n}$"
        with pytest.raises(ValueError, match=message):
            next(graphs)
        assert time.perf_counter() - start < 0.5
