import json
import random

import pytest

from monoconn.coloring import (
    EdgeColoring,
    TotalColoring,
    VertexColoring,
    _fill,
    coloring_from_json,
    coloring_to_json,
    total_coloring,
    verify_mc,
    verify_mvc,
    verify_tmc,
)
from monoconn.constructions import max_leaf_tmc_coloring
from monoconn.graphs import (
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
    star_graph,
)
from conftest import random_connected
from oracles import (
    analyze_color_classes,
    mono_edge_path_exists,
    mono_vertex_path_exists,
    tm_path_exists,
)


def all_distinct(g):
    vcol = tuple(range(g.n))
    ecol = {e: g.n + i for i, e in enumerate(g.edges)}
    return TotalColoring(vertex_color=vcol, edge_color=ecol)


class TestVerifyTmc:
    def test_tree_single_color_plus_fresh_leaves(self):
        g = path_graph(5)
        tc = max_leaf_tmc_coloring(g)
        ok, witness = verify_tmc(g, tc)
        assert ok and witness is None

    def test_complete_all_distinct(self):
        for n in (2, 3, 4, 5):
            g = complete_graph(n)
            ok, _ = verify_tmc(g, all_distinct(g))
            assert ok

    def test_p3_all_distinct_fails(self):
        g = path_graph(3)
        ok, witness = verify_tmc(g, all_distinct(g))
        assert not ok and witness == (0, 2)

    def test_single_color_everything(self):
        g = cycle_graph(6)
        tc = total_coloring(g, [0] * 6, [0] * 6)
        assert verify_tmc(g, tc) == (True, None)

    def test_domain_mismatch(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            verify_tmc(g, TotalColoring(vertex_color=(0, 1), edge_color={e: 0 for e in g.edges}))
        with pytest.raises(ValueError):
            verify_tmc(g, TotalColoring(vertex_color=(0, 1, 2), edge_color={(0, 1): 0}))

    def test_matches_path_search_oracle(self):
        import random

        for seed in range(35):
            g = random_connected(2 + seed % 5, seed + 11)
            rng = random.Random(seed)
            ncolors = rng.randint(1, g.n + g.m)
            vcol = [rng.randrange(ncolors) for _ in range(g.n)]
            ecol = {e: rng.randrange(ncolors) for e in g.edges}
            tc = TotalColoring(vertex_color=tuple(vcol), edge_color=ecol)
            gaps = [
                p for p in g.nonadjacent_pairs()
                if not tm_path_exists(g, vcol, ecol, *p)
            ]
            assert verify_tmc(g, tc) == (not gaps, gaps[0] if gaps else None)

    def test_merge_monotonicity(self):
        # merging two color classes keeps a valid coloring valid
        import random

        for seed in range(20):
            g = random_connected(3 + seed % 5, seed + 3)
            tc = max_leaf_tmc_coloring(g)
            rng = random.Random(seed)
            colors = sorted(set(tc.vertex_color) | set(tc.edge_color.values()))
            a, b = rng.sample(colors, 2) if len(colors) >= 2 else (0, 0)
            vcol = tuple(a if c == b else c for c in tc.vertex_color)
            ecol = {e: (a if c == b else c) for e, c in tc.edge_color.items()}
            merged = TotalColoring(vertex_color=vcol, edge_color=ecol)
            assert verify_tmc(g, merged)[0]


class TestVerifyMc:
    def test_complete_all_distinct(self):
        g = complete_graph(4)
        ec = EdgeColoring(edge_color={e: i for i, e in enumerate(g.edges)})
        assert verify_mc(g, ec) == (True, None)

    def test_spanning_tree_one_color(self):
        for seed in range(15):
            g = random_connected(3 + seed % 5, seed)
            tc = max_leaf_tmc_coloring(g)
            assert verify_mc(g, EdgeColoring(edge_color=dict(tc.edge_color)))[0]

    def test_p3_two_colors_fails(self):
        g = path_graph(3)
        ok, witness = verify_mc(g, EdgeColoring(edge_color={(0, 1): 0, (1, 2): 1}))
        assert not ok and witness == (0, 2)

    def test_matches_path_search_oracle(self):
        import random

        for seed in range(30):
            g = random_connected(2 + seed % 5, seed + 21)
            rng = random.Random(seed)
            ecol = {e: rng.randrange(3) for e in g.edges}
            gaps = [
                p for p in g.nonadjacent_pairs()
                if not mono_edge_path_exists(g, ecol, *p)
            ]
            assert verify_mc(g, EdgeColoring(edge_color=ecol)) == (
                not gaps, gaps[0] if gaps else None
            )


class TestVerifyMvc:
    def test_diameter_two_any_coloring(self):
        g = cycle_graph(5)  # diameter 2
        vc = VertexColoring(vertex_color=(0, 1, 2, 3, 4))
        assert verify_mvc(g, vc) == (True, None)

    def test_p4_all_distinct_fails(self):
        g = path_graph(4)
        ok, witness = verify_mvc(g, VertexColoring(vertex_color=(0, 1, 2, 3)))
        assert not ok and witness == (0, 3)

    def test_p4_merged_middle(self):
        g = path_graph(4)
        assert verify_mvc(g, VertexColoring(vertex_color=(0, 1, 1, 2)))[0]

    def test_matches_path_search_oracle(self):
        import random

        for seed in range(30):
            g = random_connected(2 + seed % 6, seed + 31)
            rng = random.Random(seed)
            vcol = tuple(rng.randrange(3) for _ in range(g.n))
            gaps = [
                p for p in g.nonadjacent_pairs()
                if not mono_vertex_path_exists(g, vcol, *p)
            ]
            assert verify_mvc(g, VertexColoring(vertex_color=vcol)) == (
                not gaps, gaps[0] if gaps else None
            )


class TestAnalyze:
    def test_c5_spanning_path(self):
        g = cycle_graph(5)
        tc = max_leaf_tmc_coloring(g)  # the max-leaf tree of C_5 is a path
        rep = analyze_color_classes(g, tc)
        assert rep.is_valid_tmc
        nontrivial = [c for c in rep.classes if c.is_nontrivial]
        assert len(nontrivial) == 1
        assert nontrivial[0].waste == (4 - 1) + 3
        assert rep.color_count == 4
        assert rep.color_count + rep.total_waste == g.m + g.n

    def test_all_distinct_k4(self):
        g = complete_graph(4)
        rep = analyze_color_classes(g, all_distinct(g))
        assert rep.total_waste == 0
        assert not any(c.is_nontrivial for c in rep.classes)
        assert rep.color_count == 10

    def test_two_trees_sharing_two_vertices_not_simple(self):
        # K_4: color 0 on path 0-1-2, color 1 on path 0-3-2 (shares 0 and 2)
        g = complete_graph(4)
        ecol = {(0, 1): 0, (1, 2): 0, (0, 3): 1, (2, 3): 1, (0, 2): 2, (1, 3): 3}
        tc = TotalColoring(vertex_color=(4, 0, 5, 1), edge_color=ecol)
        rep = analyze_color_classes(g, tc)
        assert not rep.is_simple

    def test_cycle_and_disconnected_classes_are_not_trees(self):
        # color 0: triangle 0-1-2; color 1: edges 3-4 and 5-6; color 2:
        # triangle 7-8-9 plus edge 3-5, disconnected with one edge fewer
        # than vertices; every other item gets a fresh color
        classes = {
            0: [(0, 1), (1, 2), (0, 2)],
            1: [(3, 4), (5, 6)],
            2: [(7, 8), (8, 9), (7, 9), (3, 5)],
        }
        ecol = {e: c for c, es in classes.items() for e in es}
        ecol.update({(2, 3): 3, (6, 7): 4})
        g = from_edge_list(10, ecol)
        tc = TotalColoring(vertex_color=tuple(range(5, 15)), edge_color=ecol)
        rep = analyze_color_classes(g, tc)
        by_color = {cl.color: cl for cl in rep.classes}
        for c in classes:
            assert by_color[c].is_tree is False
            assert by_color[c].waste is None
        assert all(cl.is_tree for cl in rep.classes if cl.color not in classes)

    def test_bookkeeping_identity_on_constructions(self):
        for seed in range(25):
            g = random_connected(3 + seed % 6, seed + 41)
            rep = analyze_color_classes(g, max_leaf_tmc_coloring(g))
            assert rep.is_valid_tmc
            assert rep.color_count + rep.total_waste == g.m + g.n
            assert rep.is_simple
            assert rep.leaves_distinctly_colored

    def test_waste_at_least_one_for_nontrivial_trees(self):
        for seed in range(15):
            g = random_connected(4 + seed % 4, seed + 51)
            rep = analyze_color_classes(g, max_leaf_tmc_coloring(g))
            for c in rep.classes:
                if c.is_nontrivial and c.is_tree:
                    assert c.waste >= 1


class TestJson:
    def test_total_round_trip(self):
        g = star_graph(5)
        tc = max_leaf_tmc_coloring(g)
        back = coloring_from_json(coloring_to_json(tc))
        assert isinstance(back, TotalColoring)
        assert back.vertex_color == tc.vertex_color
        assert back.edge_color == dict(tc.edge_color)

    def test_edge_round_trip(self):
        ec = EdgeColoring(edge_color={(0, 1): 3, (1, 2): 4})
        back = coloring_from_json(coloring_to_json(ec))
        assert isinstance(back, EdgeColoring) and back.edge_color == ec.edge_color

    def test_vertex_round_trip(self):
        vc = VertexColoring(vertex_color=(0, 1, 0))
        back = coloring_from_json(coloring_to_json(vc))
        assert isinstance(back, VertexColoring) and back.vertex_color == vc.vertex_color

    def test_schema_shape(self):
        g = path_graph(3)
        obj = json.loads(coloring_to_json(max_leaf_tmc_coloring(g)))
        assert set(obj) == {"vertex_colors", "edge_colors"}
        assert all(len(item) == 3 for item in obj["edge_colors"])

    def test_empty_json_rejected(self):
        with pytest.raises(ValueError):
            coloring_from_json("{}")

    @pytest.mark.parametrize(
        "text",
        [
            "null",
            "3",
            '{"vertex_colors": 5}',
            '{"vertex_colors": [0, [1], 0]}',
            '{"vertex_colors": [0, -1]}',
            '{"vertex_colors": [0, false]}',
            '{"edge_colors": "x"}',
            '{"edge_colors": [[0, 1, "a"]]}',
            '{"edge_colors": [[0, 1]]}',
            '{"edge_colors": [[0, 1, -1]]}',
            '{"edge_colors": [["0", 1, 2]]}',
            '{"edge_colors": [5]}',
            '{"edge_colors": [[0, 1, 2], [0, 1, 3]]}',
            '{"vertex_colors": [0, 1], "edge_colors": [[0, 1, 2], [1, 0, 3]]}',
        ],
    )
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ValueError):
            coloring_from_json(text)


def test_total_coloring_validation():
    g = path_graph(3)
    with pytest.raises(ValueError, match="vertex colors"):
        total_coloring(g, [0, 1], [0, 0])
    with pytest.raises(ValueError, match="edge colors"):
        total_coloring(g, [0, 1, 2], [0])
    with pytest.raises(ValueError, match="non-negative"):
        total_coloring(g, [0, -1, 2], [0, 0])
    with pytest.raises(ValueError, match="domain"):
        total_coloring(g, [0, 1, 2], {(0, 2): 1, (0, 1): 0})


def test_edge_named_twice_rejected():
    # (0, 1) and (1, 0) name one edge: the checked coloring would have one
    # color on it, not two
    g = path_graph(3)
    twice = {(0, 1): 5, (1, 0): 6, (1, 2): 6}
    with pytest.raises(ValueError, match="more than once"):
        verify_mc(g, EdgeColoring(edge_color=twice))
    with pytest.raises(ValueError, match="more than once"):
        verify_tmc(g, TotalColoring(vertex_color=(0, 1, 2), edge_color=twice))
    with pytest.raises(ValueError, match="more than once"):
        total_coloring(g, [0, 1, 2], twice)


def test_reversed_edge_keys_verify_alike():
    # keys written (v, u) name g's edges (u, v): the verifiers check a copy
    # keyed by g.edges, with the same verdict and uncovered pair
    verdicts = set()
    for seed in range(40):
        g = random_connected(3 + seed % 5, seed + 40)
        rng = random.Random(seed)
        ecol = {e: rng.randrange(2) for e in g.edges}
        flipped = {(v, u): c for (u, v), c in ecol.items()}
        vcol = tuple(rng.randrange(2) for _ in range(g.n))
        one_flipped = dict(ecol)
        u, v = g.edges[0]
        one_flipped[v, u] = one_flipped.pop((u, v))
        mc = verify_mc(g, EdgeColoring(edge_color=ecol))
        tmc = verify_tmc(g, TotalColoring(vertex_color=vcol, edge_color=ecol))
        for keyed in (flipped, one_flipped):  # g.m keys, not all of them g's edges
            assert len(keyed) == g.m
            assert verify_mc(g, EdgeColoring(edge_color=keyed)) == mc
            assert verify_tmc(g, TotalColoring(vertex_color=vcol, edge_color=keyed)) == tmc
        verdicts |= {mc[0], tmc[0]}
    assert verdicts == {True, False}


def test_non_edge_key_rejected_at_edge_count():
    # as many keys as g has edges, one of them no edge of g
    g = path_graph(3)
    ecol = {(0, 1): 0, (0, 2): 0}
    with pytest.raises(ValueError, match="does not match"):
        verify_mc(g, EdgeColoring(edge_color=ecol))
    with pytest.raises(ValueError, match="does not match"):
        verify_tmc(g, TotalColoring(vertex_color=(0, 1, 2), edge_color=ecol))


@pytest.mark.parametrize("key", [(0, 1, 2), (0,), 7])
def test_malformed_edge_key_rejected(key):
    g = path_graph(3)
    ecol = {key: 0, (1, 2): 1}
    with pytest.raises(ValueError, match="not a vertex pair"):
        verify_mc(g, EdgeColoring(edge_color=ecol))
    with pytest.raises(ValueError, match="not a vertex pair"):
        verify_tmc(g, TotalColoring(vertex_color=(0, 1, 2), edge_color=ecol))
    with pytest.raises(ValueError, match="not a vertex pair"):
        total_coloring(g, [0, 1, 2], ecol)


def test_total_coloring_copies_its_edge_colors():
    g = path_graph(3)
    given = {(0, 1): 0, (1, 2): 0}
    tc = total_coloring(g, [1, 0, 2], given)
    given[(0, 1)] = 3
    assert tc.edge_color == {(0, 1): 0, (1, 2): 0}


def _witness_shaped(g, variant, rng):
    """Classes shaped like a solver witness's for ``variant``: one to three
    classes of several items, a class of one edge and (tmc) some vertices,
    and a class of one vertex; every other item gets a fresh color."""
    vertices = [] if variant == "mc" else list(range(g.n))
    edges = [] if variant == "mvc" else list(g.edges)
    items = vertices + edges
    rng.shuffle(items)
    classes = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(2, max(2, len(items) // 2))
        if k > len(items):
            break
        classes.append(items[:k])
        items = items[k:]
    left_edges = [x for x in items if isinstance(x, tuple)]
    left_vertices = [x for x in items if not isinstance(x, tuple)]
    if left_edges:
        classes.append([left_edges[0]] + left_vertices[:rng.randint(0, 2)])
    elif left_vertices:
        classes.append(left_vertices[:1])
    return _fill(g, variant, classes)


def test_skip_rules_match_path_search_oracle():
    # witness-shaped colorings are mostly fresh singleton colors, the ones
    # the kernel's skip rules never give components
    outcomes = {variant: set() for variant in ("tmc", "mc", "mvc")}
    for seed in range(90):
        g = random_connected(2 + seed % 6, seed + 401, p=(0.3, 0.5, 0.7)[seed % 3])
        rng = random.Random(seed)
        for variant in ("tmc", "mc", "mvc"):
            for _ in range(3):
                c = _witness_shaped(g, variant, rng)
                if variant == "tmc":
                    got = verify_tmc(g, c)
                    joined = lambda u, v: tm_path_exists(g, c.vertex_color, c.edge_color, u, v)
                elif variant == "mc":
                    got = verify_mc(g, c)
                    joined = lambda u, v: mono_edge_path_exists(g, c.edge_color, u, v)
                else:
                    got = verify_mvc(g, c)
                    joined = lambda u, v: mono_vertex_path_exists(g, c.vertex_color, u, v)
                gaps = [p for p in g.nonadjacent_pairs() if not joined(*p)]
                assert got == (not gaps, gaps[0] if gaps else None), (variant, g.edges, c)
                outcomes[variant].add(got[0])
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes
