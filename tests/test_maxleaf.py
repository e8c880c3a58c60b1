import pytest

from monoconn.graphs import (
    complete_graph,
    connected_labeled_graphs,
    cycle_graph,
    from_edge_list,
    is_connected,
    path_graph,
)
from monoconn.maxleaf import max_leaf_exact
from conftest import random_connected
from oracles import max_leaves_oracle, min_internal_oracle, petersen


def assert_valid_spanning_tree(g, result):
    assert len(result.tree) == g.n - 1
    assert set(result.tree) <= set(g.edges)
    deg = [0] * g.n
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in result.tree:
        deg[u] += 1
        deg[v] += 1
        ru, rv = find(u), find(v)
        assert ru != rv, "cycle in witness tree"
        parent[ru] = rv
    assert result.leaf_count == sum(1 for d in deg if d == 1)
    assert result.leaf_count + result.internal_count == g.n


class TestExact:
    def test_complete(self):
        for n in range(3, 9):
            assert max_leaf_exact(complete_graph(n)).leaf_count == n - 1

    def test_path(self):
        for n in range(2, 9):
            assert max_leaf_exact(path_graph(n)).leaf_count == 2

    def test_cycle(self):
        for n in range(3, 9):
            assert max_leaf_exact(cycle_graph(n)).leaf_count == 2

    def test_two_vertices(self):
        r = max_leaf_exact(path_graph(2))
        assert r.leaf_count == 2 and r.internal_count == 0

    def test_petersen(self, monkeypatch):
        monkeypatch.setenv("MONO_MAX_EXACT_N", "10")  # Petersen has n = 10
        r = max_leaf_exact(petersen())
        assert r.leaf_count == 6
        assert_valid_spanning_tree(petersen(), r)

    def test_petersen_oracle_agrees(self):
        assert max_leaves_oracle(petersen()) == 6

    def test_oracle_agreement_exhaustive_n5(self):
        for g in connected_labeled_graphs(5):
            assert max_leaf_exact(g).leaf_count == max_leaves_oracle(g)

    def test_oracle_agreement_sampled(self):
        for seed in range(40):
            g = random_connected(4 + seed % 4, seed * 3 + 2)
            r = max_leaf_exact(g)
            assert r.leaf_count == max_leaves_oracle(g)
            assert r.internal_count == min_internal_oracle(g)
            assert_valid_spanning_tree(g, r)

    def test_spanning_star_iff_dominating_vertex(self):
        for seed in range(40):
            g = random_connected(3 + seed % 6, seed)
            has_dom = any(g.degree(v) == g.n - 1 for v in range(g.n))
            assert (max_leaf_exact(g).leaf_count == g.n - 1) == has_dom

    def test_errors(self):
        with pytest.raises(ValueError, match="disconnected"):
            max_leaf_exact(from_edge_list(4, [(0, 1), (2, 3)]))
        r = max_leaf_exact(complete_graph(1))
        assert (r.tree, r.leaf_count, r.internal_count) == ((), 0, 1)
        with pytest.raises(ValueError):
            max_leaf_exact(from_edge_list(0, []))


def test_leaf_bounds():
    for seed in range(30):
        g = random_connected(2 + seed % 7, seed + 5)
        r = max_leaf_exact(g)
        assert r.leaf_count >= 2
