import hashlib
import itertools

import pytest

from monoconn.coloring import coloring_to_json, verify_tmc
from monoconn.constructions import (
    complete_tmc_coloring,
    max_leaf_tmc_coloring,
    multipartite_tmc_coloring,
    tree_based_tmc_coloring,
    wheel_tmc_coloring,
)
from monoconn.graphs import (
    complete_graph,
    connected_labeled_graphs,
    cycle_graph,
    from_edge_list,
    path_graph,
    star_graph,
)
from monoconn.maxleaf import SpanningTreeResult, max_leaf_exact
from monoconn.solvers import SolverRangeError
from conftest import random_connected
from oracles import leaf_count, spanning_trees


class TestTreeBased:
    def test_c5_spanning_path(self):
        g = cycle_graph(5)
        tc = max_leaf_tmc_coloring(g)
        assert tc.color_count == 4
        assert verify_tmc(g, tc)[0]

    def test_tree_itself(self):
        for g in (path_graph(6), star_graph(6)):
            tc = max_leaf_tmc_coloring(g)
            l = max_leaf_exact(g).leaf_count
            assert tc.color_count == l + 1
            assert verify_tmc(g, tc)[0]

    def test_k4_star_lower_bound_only(self):
        g = complete_graph(4)
        star = SpanningTreeResult(tree=((0, 1), (0, 2), (0, 3)), internal=0b1)
        tc = tree_based_tmc_coloring(g, star)
        assert tc.color_count == 6 - 4 + 2 + 3  # valid but below tmc(K_4) = 10
        assert verify_tmc(g, tc)[0]

    def test_color_count_formula_per_tree(self):
        # for every spanning tree of a sample graph the count is m-n+2+l(T)
        g = random_connected(6, 12345)
        for t in spanning_trees(g):
            l = leaf_count(g.n, t)
            deg = [0] * g.n
            for u, v in t:
                deg[u] += 1
                deg[v] += 1
            res = SpanningTreeResult(
                tree=tuple(sorted(t)), internal=sum(1 << v for v in range(g.n) if deg[v] >= 2)
            )
            assert res.leaf_count == l
            tc = tree_based_tmc_coloring(g, res)
            assert tc.color_count == g.m - g.n + 2 + l
            assert verify_tmc(g, tc)[0]

    def test_count_maximized_by_max_leaf_tree(self):
        g = random_connected(6, 777)
        best = max(leaf_count(g.n, t) for t in spanning_trees(g))
        assert max_leaf_tmc_coloring(g).color_count == g.m - g.n + 2 + best

    def test_rejects_non_spanning_tree(self):
        g = cycle_graph(5)
        bogus = SpanningTreeResult(tree=((0, 1), (1, 2), (2, 3)), internal=0b110)
        with pytest.raises(ValueError):
            tree_based_tmc_coloring(g, bogus)

    def test_rejects_non_subgraph(self):
        g = path_graph(4)
        bogus = SpanningTreeResult(tree=((0, 1), (1, 2), (0, 3)), internal=0b11)
        with pytest.raises(ValueError):
            tree_based_tmc_coloring(g, bogus)

    def test_rejects_edges_that_do_not_connect(self):
        # n - 1 graph edges touching every vertex, but a triangle plus a
        # disjoint edge: the coloring would leave (0, 3) unjoined
        g = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        bogus = SpanningTreeResult(tree=((0, 1), (0, 2), (1, 2), (3, 4)), internal=0b111)
        with pytest.raises(ValueError, match="does not span"):
            tree_based_tmc_coloring(g, bogus)

    def test_canonical_color_allocation(self):
        tc = max_leaf_tmc_coloring(path_graph(4))
        # leaves 0 and 3 take colors 1, 2 in index order; shared color is 0
        assert tc.vertex_color == (1, 0, 0, 2)


class TestWheel:
    @pytest.mark.parametrize("n,colors", [(5, 9), (6, 11), (7, 13), (9, 17)])
    def test_counts(self, n, colors):
        g, tc = wheel_tmc_coloring(n)
        assert g.m == 2 * (n - 1)
        assert tc.color_count == colors == g.m + 1
        assert verify_tmc(g, tc)[0]

    def test_too_small(self):
        with pytest.raises(ValueError):
            wheel_tmc_coloring(4)


class TestMultipartite:
    def test_c4(self):
        g, tc = multipartite_tmc_coloring([2, 2])
        assert g.m == 4 and tc.color_count == 4
        assert verify_tmc(g, tc)[0]

    def test_k112(self):
        g, tc = multipartite_tmc_coloring([2, 1, 1])
        assert g.m == 5 and tc.color_count == 7
        assert verify_tmc(g, tc)[0]

    def test_k_n_minus_2_1_1_family(self):
        for n in (5, 6, 7, 8):
            g, tc = multipartite_tmc_coloring([n - 2, 1, 1])
            # equals m - n + 3 + l with l = n - 1
            assert tc.color_count == g.m + 2 == g.m - n + 3 + (n - 1)
            assert verify_tmc(g, tc)[0]

    def test_formula_across_size_tuples(self):
        tuples = [
            [2, 2], [3, 2], [3, 3], [4, 2], [2, 2, 2], [3, 2, 2],
            [2, 1, 1], [3, 1, 1], [2, 2, 1], [3, 2, 1], [1, 1, 1, 1],
            [4, 3, 2, 1], [2, 2, 2, 1, 1],
        ]
        for sizes in tuples:
            g, tc = multipartite_tmc_coloring(sizes)
            r = len(sizes)
            t = sum(1 for s in sizes if s >= 2)
            assert tc.color_count == g.m + r - t, sizes
            assert verify_tmc(g, tc)[0], sizes

    def test_no_max_leaf_search(self, computations):
        # the tree without singletons is the double star on 0 and max(sizes)
        seen = computations(max_leaf_exact)
        for r in range(2, 5):
            for sizes in itertools.product((1, 2, 3), repeat=r):
                multipartite_tmc_coloring(list(sizes))
        assert seen == []

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            multipartite_tmc_coloring([3])
        with pytest.raises(ValueError):
            multipartite_tmc_coloring([2, 0])


class TestComplete:
    @pytest.mark.parametrize("n,colors", [(1, 1), (2, 3), (3, 6), (4, 10), (6, 21)])
    def test_counts(self, n, colors):
        g, tc = complete_tmc_coloring(n)
        assert tc.color_count == colors == g.m + g.n
        assert verify_tmc(g, tc)[0]


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        max_leaf_tmc_coloring(from_edge_list(4, [(0, 1), (2, 3)]))


def test_max_leaf_coloring_guarded():
    # the guard of max_leaf_exact, which the construction calls
    with pytest.raises(SolverRangeError, match="max_leaf_exact accepts n <= 9"):
        max_leaf_tmc_coloring(cycle_graph(12))


# sha256 over coloring_to_json of every construction below, one per line:
# wheels of order 5-11, K_1 to K_8, complete multipartite graphs over every
# tuple of 2-4 class sizes in 1..3, and the max-leaf coloring of every
# labelled connected graph with 2 <= n <= 5; any change to an output moves it
CONSTRUCTION_DIGEST = "4f9907ae6ff1d7de28397aa7f179c64d76848bde94cd01ee2c087143e529324b"


def test_constructions_match_golden_digest():
    colorings = [wheel_tmc_coloring(n)[1] for n in range(5, 12)]
    colorings += [complete_tmc_coloring(n)[1] for n in range(1, 9)]
    colorings += [
        multipartite_tmc_coloring(list(sizes))[1]
        for r in range(2, 5)
        for sizes in itertools.product((1, 2, 3), repeat=r)
    ]
    colorings += [max_leaf_tmc_coloring(g) for n in range(2, 6) for g in connected_labeled_graphs(n)]
    h = hashlib.sha256()
    for tc in colorings:
        h.update((coloring_to_json(tc) + "\n").encode())
    assert len(colorings) == 903
    assert h.hexdigest() == CONSTRUCTION_DIGEST
