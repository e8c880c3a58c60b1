"""Acceptance gates for the whole library.

Each gate prints one ``ACCEPTANCE <name>: PASS|FAIL`` line (run pytest with
``-s`` or read captured output).  All comparisons are exact integer
comparisons; nothing here is tolerance-calibrated after the fact.

Two gates in the exhaustive sweep are expected to FAIL by design of the
sweep itself: the strict claims "m >= 2n-d-2 forces tmc > mvc" and
"diameter 2 with max degree >= (n+1)/2 forces tmc > mvc" are refuted by
small equality families (paths and the 4-cycle meet the first hypothesis
with tmc = mvc; stars meet the second with tmc = mvc = n).  The sweep is
the instrument that exposes this, and the companion characterization test
pins the violating sets exactly.  See notes in the README.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from itertools import combinations, product

import pytest

import monoconn
from monoconn.coloring import verify_tmc
from monoconn.constructions import (
    complete_tmc_coloring,
    max_leaf_tmc_coloring,
    multipartite_tmc_coloring,
    wheel_tmc_coloring,
)
from monoconn.graphs import (
    Graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    from_edge_list,
    is_connected,
    parse_graph6,
    path_graph,
    random_gnp,
    star_graph,
    wheel_graph,
)
from monoconn.harness import (
    CHECK_KEYS,
    VIOLATED,
    builtin_corpus,
    check_all_detailed,
    is_star,
    survey_random,
)
from monoconn.maxleaf import max_leaf_exact
from monoconn.solvers import mc_exact, mvc_exact, reverify, tmc_exact
from conftest import random_connected
from oracles import max_leaves_oracle, petersen, tmc_naive, validate_system, witness_trees


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# 1. Named-graph regression (exact, tolerance 0)
# ---------------------------------------------------------------------------

def test_named_graph_regression():
    checks = [
        ("tmc(C_5)", tmc_exact(cycle_graph(5)).value, 4),
        ("mvc(C_5)", mvc_exact(cycle_graph(5)).value, 5),
        ("tmc(K_4)", tmc_exact(complete_graph(4)).value, 10),
        ("mc(K_4)", mc_exact(complete_graph(4)).value, 6),
        ("tmc(W_4 on 5)", tmc_exact(wheel_graph(5)).value, 9),
        ("tmc(K_{1,1,2})", tmc_exact(complete_multipartite_graph([2, 1, 1])).value, 7),
        ("tmc(K_{2,2})", tmc_exact(complete_multipartite_graph([2, 2])).value, 4),
        ("tmc(P_4)", tmc_exact(path_graph(4)).value, 3),
        ("mc(W_5 on 6)", mc_exact(wheel_graph(6)).value, 7),
    ]
    bad = [(name, got, want) for name, got, want in checks if got != want]
    assert report("named-graph-regression", not bad, f"{len(checks)} values" if not bad else str(bad))


# ---------------------------------------------------------------------------
# 2. Oracle equivalence: definition-level partition search == tree-system
#    search on every graph within the naive guard (all n <= 4 plus a
#    selected n = 5 battery).
# ---------------------------------------------------------------------------

def _selected_n5():
    named = [
        cycle_graph(5),
        path_graph(5),
        star_graph(5),
        complete_multipartite_graph([3, 2]),      # K_{2,3}, m=6
        complete_multipartite_graph([3, 1, 1]),   # K_{1,1,3}, m=7
        from_edge_list(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]),   # bull
        from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),  # house
        from_edge_list(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),  # butterfly
        from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),  # cricket-ish
    ]
    rng = random.Random(20240501)
    while len(named) < 40:
        g = random_gnp(5, rng.uniform(0.35, 0.7), seed=rng.randrange(2**30))
        if is_connected(g) and g.m + g.n <= 12:
            named.append(g)
    return named


def test_oracle_equivalence_naive_vs_tree_system():
    from monoconn.graphs import connected_labeled_graphs

    corpus = [g for n in (1, 2, 3, 4) for g in connected_labeled_graphs(n)]
    corpus += _selected_n5()
    mismatches = []
    for g in corpus:
        naive = tmc_naive(g).value
        exact = tmc_exact(g).value
        if naive != exact:
            mismatches.append((g.edges, naive, exact))
    assert report(
        "oracle-equivalence",
        not mismatches,
        f"{len(corpus)} graphs (all n<=4 labeled + {len(corpus) - 44} selected n=5)"
        if not mismatches
        else str(mismatches[:3]),
    )


# ---------------------------------------------------------------------------
# 3 + 7. Exhaustive sweep over all labeled connected graphs with n <= 6,
#        with witness integrity checked on every solver report.
# ---------------------------------------------------------------------------

@dataclass
class SweepData:
    records: list
    integrity_failures: list
    system_failures: list
    graphs_checked: int


@pytest.fixture(scope="session")
def sweep() -> SweepData:
    records = []
    integrity_failures = []
    system_failures = []
    count = 0
    for g in builtin_corpus(6):
        rec, reports = check_all_detailed(g)
        records.append(rec)
        count += 1
        for kind, rep in reports.items():
            if not reverify(g, rep):
                integrity_failures.append((rec.graph6, kind))
            if kind != "mvc":
                try:
                    validate_system(g, witness_trees(g, rep.witness))
                except ValueError as exc:
                    system_failures.append((rec.graph6, kind, str(exc)))
    return SweepData(records, integrity_failures, system_failures, count)


# sha256 of the sweep records, one sorted-key JSON line each without
# elapsed_ms; any change to a value, verdict or condition flag moves it
SWEEP_DIGEST = "c4ebb6fd86ecd820fe9af81672b3d75a18af6d3c7631fb211c0197a02e58a0a8"


def test_sweep_records_match_golden_digest(sweep):
    h = hashlib.sha256()
    for rec in sweep.records:
        row = asdict(rec)
        del row["elapsed_ms"]
        h.update((json.dumps(row, sort_keys=True) + "\n").encode())
    assert len(sweep.records) == 27476
    assert h.hexdigest() == SWEEP_DIGEST


@pytest.mark.parametrize("key", CHECK_KEYS)
def test_sweep_zero_violations(sweep, key):
    bad = [r for r in sweep.records if r.verdicts.get(key) == VIOLATED]
    ok = report(
        f"sweep-n6-{key}",
        not bad,
        f"0 violations in {sweep.graphs_checked} graphs"
        if not bad
        else f"{len(bad)} violations, e.g. {[r.graph6 for r in bad[:5]]}",
    )
    assert ok, (
        f"{len(bad)} graphs violate {key}; "
        f"sample: {[(r.graph6, 'tmc', r.tmc, 'mvc', r.mvc) for r in bad[:5]]}"
    )


def test_sweep_strict_inequality_violations_are_exactly_the_equality_families(sweep):
    """The two strict tmc > mvc claims fail precisely on known equality
    families: every path P_n (3 <= n <= 6) and the 4-cycle meet
    m >= 2n-d-2 with tmc = mvc = 3 (resp. 4), and every star K_{1,n-1}
    (3 <= n <= 6) meets the diameter-2 degree condition with tmc = mvc = n.
    No other graph in the sweep violates either claim."""
    size_bad = {r.graph6 for r in sweep.records if r.verdicts["size_condition_tmc_gt_mvc"] == VIOLATED}
    degree_bad = {r.graph6 for r in sweep.records if r.verdicts["degree_condition_tmc_gt_mvc"] == VIOLATED}

    expected_size = set()
    for n in (3, 4, 5, 6):
        expected_size |= _all_labelings_of_path(n)
    expected_size |= _all_labelings_of_cycle4()
    expected_degree = set()
    for n in (3, 4, 5, 6):
        expected_degree |= _all_labelings_of_star(n)
    assert size_bad == expected_size
    assert degree_bad == expected_degree
    report(
        "sweep-violation-characterization",
        True,
        f"size-condition violations = {len(size_bad)} (paths + C_4), "
        f"degree-condition violations = {len(degree_bad)} (stars); "
        "all are tmc = mvc equality cases",
    )


def _all_labelings_of_path(n):
    from itertools import permutations
    from monoconn.graphs import to_graph6

    out = set()
    for perm in permutations(range(n)):
        edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
        out.add(to_graph6(from_edge_list(n, edges)))
    return out


def _all_labelings_of_cycle4():
    from itertools import permutations
    from monoconn.graphs import to_graph6

    out = set()
    for perm in permutations(range(4)):
        edges = {tuple(sorted((perm[i], perm[(i + 1) % 4]))) for i in range(4)}
        out.add(to_graph6(from_edge_list(4, sorted(edges))))
    return out


def _all_labelings_of_star(n):
    from monoconn.graphs import to_graph6

    out = set()
    for hub in range(n):
        edges = [(hub, v) for v in range(n) if v != hub]
        out.add(to_graph6(from_edge_list(n, edges)))
    return out


def test_witness_integrity_across_sweep(sweep):
    ok = not sweep.integrity_failures and not sweep.system_failures
    assert report(
        "witness-integrity",
        ok,
        f"3 x {sweep.graphs_checked} witnesses re-verified with exact color counts"
        if ok
        else f"failures: {sweep.integrity_failures[:3]} {sweep.system_failures[:3]}",
    )


def test_open_question_findings_reported(sweep):
    """Open comparisons are reported, never asserted: list every non-star
    n = 6 graph in the sweep with tmc <= mvc (they exist: all non-star
    trees have tmc = l + 1 <= mvc)."""
    findings = []
    for r in sweep.records:
        if r.n >= 6 and r.tmc is not None and r.tmc <= r.mvc:
            if not is_star(parse_graph6(r.graph6)):
                findings.append(r)
    trees = sum(1 for r in findings if r.m == r.n - 1)
    report(
        "open-question-census",
        True,
        f"{len(findings)} non-star n=6 graphs with tmc <= mvc "
        f"({trees} of them trees); reported, not asserted",
    )
    # structural sanity only: every finding really is an equality-or-less case
    assert all(r.tmc <= r.mvc for r in findings)


# ---------------------------------------------------------------------------
# 4. Construction soundness
# ---------------------------------------------------------------------------

def test_construction_soundness_random_graphs(monkeypatch):
    # n reaches 10, one past the default size guard of max_leaf_exact
    monkeypatch.setenv("MONO_MAX_EXACT_N", "10")
    rng = random.Random(987654321)
    failures = 0
    for i in range(1000):
        n = rng.randint(2, 10)
        g = random_connected(n, seed=rng.randrange(2**30), p=rng.uniform(0.25, 0.9))
        l = max_leaf_exact(g).leaf_count
        tc = max_leaf_tmc_coloring(g)
        ok, _ = verify_tmc(g, tc)
        if not ok or tc.color_count != g.m - g.n + 2 + l:
            failures += 1
    assert report(
        "construction-soundness-random",
        failures == 0,
        "1000 seeded connected graphs, n <= 10",
    )


def test_construction_closed_forms():
    bad = []
    for n in range(5, 13):
        g, tc = wheel_tmc_coloring(n)
        if tc.color_count != g.m + 1 or not verify_tmc(g, tc)[0]:
            bad.append(("wheel", n))
    for n in range(1, 13):
        g, tc = complete_tmc_coloring(n)
        if tc.color_count != g.m + g.n or not verify_tmc(g, tc)[0]:
            bad.append(("complete", n))
    # every multiset of class sizes with 2 <= r classes and total <= 8
    def partitions(total, most):
        if total == 0:
            yield ()
            return
        for first in range(min(total, most), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    count = 0
    for total in range(2, 9):
        for sizes in partitions(total, total):
            if len(sizes) < 2:
                continue
            g, tc = multipartite_tmc_coloring(list(sizes))
            r, t = len(sizes), sum(1 for s in sizes if s >= 2)
            count += 1
            if tc.color_count != g.m + r - t or not verify_tmc(g, tc)[0]:
                bad.append(("multipartite", sizes))
    assert report(
        "construction-closed-forms",
        not bad,
        f"wheels n=5..12, complete n=1..12, {count} multipartite size tuples",
    )


# ---------------------------------------------------------------------------
# 5. Random-graph identity survey at desk scale
# ---------------------------------------------------------------------------

def test_random_survey_trend():
    r8 = survey_random(8, 0.5, trials=200, seed=1)
    r12 = survey_random(12, 0.5, trials=200, seed=1)
    ok = r12.fraction_identity >= r8.fraction_identity and r12.fraction_identity >= 0.9
    assert report(
        "random-survey-trend",
        ok,
        f"fraction_identity n=8 {r8.fraction_identity:.3f} (exactly decided on "
        f"{r8.identity_confirmed + r8.identity_refuted}/{r8.connected_samples}), "
        f"n=12 {r12.fraction_identity:.3f} (certificate-decided on "
        f"{r12.identity_confirmed + r12.identity_refuted}/{r12.connected_samples}, "
        f"certificate rate {r12.fraction_complement_4_connected:.3f})",
    )
    # the n=8 exact run is itself informative: identity held on >= 90%
    assert r8.fraction_identity >= 0.9
    assert r8.identity_undecided == 0


# ---------------------------------------------------------------------------
# 6. Max-leaf correctness against the exhaustive spanning-tree oracle
# ---------------------------------------------------------------------------

def test_max_leaf_oracle_agreement_n_le_6():
    bad = 0
    total = 0
    for g in builtin_corpus(6):
        if g.n < 2:
            continue
        total += 1
        if max_leaf_exact(g).leaf_count != max_leaves_oracle(g):
            bad += 1
    assert report(
        "max-leaf-oracle-n<=6",
        bad == 0,
        f"{total} graphs, edge-subset spanning-tree enumeration",
    )


def test_max_leaf_petersen(monkeypatch):
    monkeypatch.setenv("MONO_MAX_EXACT_N", "10")  # Petersen has n = 10
    got = max_leaf_exact(petersen()).leaf_count
    want = max_leaves_oracle(petersen())
    assert report("max-leaf-petersen", got == 6 and want == 6, f"l = {got}")


PAIRS7 = list(combinations(range(7), 2))


def _prufer_trees_7():
    """(leaf_count, edge-bitmask) for every labeled tree on 7 vertices."""
    pbit = {p: i for i, p in enumerate(PAIRS7)}
    trees = []
    for seq in product(range(7), repeat=5):
        deg = [1] * 7
        for x in seq:
            deg[x] += 1
        work = deg.copy()
        mask = 0
        for x in seq:
            leaf = min(v for v in range(7) if work[v] == 1)
            mask |= 1 << pbit[(leaf, x) if leaf < x else (x, leaf)]
            work[leaf] -= 1
            work[x] -= 1
        last = [v for v in range(7) if work[v] == 1]
        mask |= 1 << pbit[(last[0], last[1])]
        trees.append((sum(1 for d in deg if d == 1), mask))
    return trees


def _graph_from_mask7(mask: int) -> Graph:
    adj = [0] * 7
    edges = []
    for i, (u, v) in enumerate(PAIRS7):
        if (mask >> i) & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))
    return Graph(n=7, edges=tuple(edges), adj=tuple(adj))


def test_max_leaf_oracle_agreement_n7_exhaustive():
    """All 1,866,256 labeled connected graphs on 7 vertices: the dominating-
    set solver must match the maximum leaf count over all 16,807 labeled
    spanning trees (Pruefer enumeration, batch-checked with numpy)."""
    np = pytest.importorskip("numpy")

    masks = np.arange(1 << 21, dtype=np.uint32)
    nbr = np.zeros((7, masks.size), np.uint8)
    for i, (u, v) in enumerate(PAIRS7):
        b = ((masks >> np.uint32(i)) & np.uint32(1)).astype(np.uint8)
        nbr[u] |= b << np.uint8(v)
        nbr[v] |= b << np.uint8(u)
    reach = np.ones(masks.size, np.uint8)
    for _ in range(6):
        nxt = reach.copy()
        for v in range(7):
            sel = ((reach >> np.uint8(v)) & np.uint8(1)).astype(bool)
            nxt[sel] |= nbr[v][sel]
        reach = nxt
    conn = reach == 127
    conn_masks = masks[conn]
    assert conn_masks.size == 1866256

    trees = _prufer_trees_7()
    assert len(trees) == 16807
    groups: dict[int, list[int]] = {}
    for lc, mask in trees:
        groups.setdefault(lc, []).append(mask)

    l_oracle = np.zeros(conn_masks.size, np.int8)
    active_idx = np.arange(conn_masks.size)
    active = conn_masks.copy()
    for lc in sorted(groups, reverse=True):
        hit = np.zeros(active.size, bool)
        for k, t in enumerate(groups[lc]):
            np.logical_or(hit, (active & np.uint32(t)) == np.uint32(t), out=hit)
            if (k & 255) == 255 and hit.any():
                l_oracle[active_idx[hit]] = lc
                keep = ~hit
                active_idx = active_idx[keep]
                active = active[keep]
                hit = np.zeros(active.size, bool)
        if hit.any():
            l_oracle[active_idx[hit]] = lc
            keep = ~hit
            active_idx = active_idx[keep]
            active = active[keep]
    assert active.size == 0, "every connected graph has a spanning tree"

    mismatches = 0
    first_bad = None
    solver_l = max_leaf_exact
    oracle_vals = l_oracle.tolist()
    for idx, mask in enumerate(conn_masks.tolist()):
        g = _graph_from_mask7(mask)
        got = solver_l(g).leaf_count
        if got != oracle_vals[idx]:
            mismatches += 1
            if first_bad is None:
                first_bad = (mask, got, oracle_vals[idx])
    assert report(
        "max-leaf-oracle-n7",
        mismatches == 0,
        f"{conn_masks.size} labeled connected graphs"
        if not mismatches
        else f"{mismatches} mismatches, first {first_bad}",
    )


def test_public_api_pinned():
    # any name added to or removed from the package's public API shows up here
    assert sorted(monoconn.__all__) == [
        "EdgeColoring", "Finding", "Graph", "GraphConditionSet", "GraphFormatError",
        "SolverRangeError", "SolverReport", "SpanningTreeResult", "SurveyRecord",
        "TheoremCheckRecord", "TotalColoring", "VertexColoring", "builtin_corpus",
        "canonical_order", "check_all", "coloring_from_json", "coloring_to_json",
        "complement", "complete_graph", "complete_multipartite_graph", "complete_tmc_coloring",
        "connected_labeled_graphs", "cycle_graph", "diameter",
        "diameter2_size_bound", "from_edge_list", "has_cut_vertex",
        "hunt_tmc_le_mc", "hunt_tmc_le_mvc", "is_connected", "is_star", "is_triangle_free",
        "max_degree", "max_leaf_exact", "max_leaf_tmc_coloring", "mc_exact",
        "multipartite_sizes", "multipartite_tmc_coloring", "mvc_exact", "parse_edgelist",
        "parse_graph6", "path_graph", "random_gnp", "relabel", "reverify",
        "star_graph", "survey_random", "tmc_exact", "tmc_identity_conditions", "to_graph6",
        "total_coloring", "tree_based_tmc_coloring", "verify_mc", "verify_mvc", "verify_tmc",
        "vertex_connectivity", "wheel_graph", "wheel_order", "wheel_tmc_coloring",
    ]
