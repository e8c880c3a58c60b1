import hashlib
import json
import time
from dataclasses import replace
from itertools import combinations

import pytest

from monoconn.graphs import (
    canonical_order,
    complement,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    from_edge_list,
    is_connected,
    parse_graph6,
    path_graph,
    random_gnp,
    relabel,
    star_graph,
    to_graph6,
    wheel_graph,
)
from monoconn import graphs, harness, solvers
from monoconn.coloring import coloring_to_json
from monoconn.solvers import SolverRangeError, reverify
from monoconn.harness import (
    CHECK_KEYS,
    Finding,
    HOLDS,
    NOT_APPLICABLE,
    SKIPPED,
    VIOLATED,
    SurveyRecord,
    TheoremCheckRecord,
    builtin_corpus,
    check_all,
    check_all_detailed,
    diameter2_size_bound,
    hunt_tmc_le_mc,
    hunt_tmc_le_mvc,
    is_star,
    multipartite_sizes,
    records_to_csv,
    survey_random,
    wheel_order,
)
from monoconn.maxleaf import max_leaf_exact
from conftest import random_connected, shuffled
from oracles import (
    diameter2_bound_reference,
    k_connected_bf,
    multipartite_sizes_reference,
    petersen,
    relabel_report_reference,
    validate_system,
    witness_trees,
)


def _survey_samples(n, p, trials, seed):
    # survey_random draws sample i from random_gnp(n, p, seed * 1_000_003 + i)
    return [random_gnp(n, p, seed * 1_000_003 + i) for i in range(trials)]


class TestDetectors:
    def test_is_star(self):
        assert is_star(star_graph(6))
        assert is_star(path_graph(3))  # K_{1,2}
        assert not is_star(path_graph(4))
        assert not is_star(cycle_graph(4))

    def test_wheel_order(self):
        assert wheel_order(wheel_graph(5)) == 5
        assert wheel_order(wheel_graph(8)) == 8
        assert wheel_order(complete_graph(4)) is None  # W_3 is out of scope
        assert wheel_order(cycle_graph(6)) is None
        assert wheel_order(star_graph(6)) is None

    def test_multipartite_sizes(self):
        assert multipartite_sizes(complete_multipartite_graph([3, 2, 1])) == [3, 2, 1]
        assert multipartite_sizes(complete_graph(4)) == [1, 1, 1, 1]
        assert multipartite_sizes(star_graph(5)) == [4, 1]
        assert multipartite_sizes(path_graph(4)) is None
        assert multipartite_sizes(petersen()) is None

    def test_multipartite_sizes_match_reference(self):
        # every labelled graph with n <= 6, disconnected ones and n = 0 included
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = from_edge_list(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                assert multipartite_sizes(g) == multipartite_sizes_reference(g), to_graph6(g)


class TestDiameter2SizeBound:
    def test_k23_equality(self):
        verdict, bound = diameter2_size_bound(complete_multipartite_graph([3, 2]))
        assert verdict == HOLDS and bound == 6  # n + max_degree - 2, met exactly

    def test_petersen_not_applicable(self):
        verdict, bound = diameter2_size_bound(petersen())
        assert verdict == NOT_APPLICABLE and bound is None

    def test_c5_not_applicable(self):
        assert diameter2_size_bound(cycle_graph(5))[0] == NOT_APPLICABLE

    def test_high_degree_not_applicable(self):
        # max degree n-1 falls outside the case table
        assert diameter2_size_bound(star_graph(6))[0] == NOT_APPLICABLE

    def test_case_bound_matches_rational_ranges(self):
        for n in range(2, 401):
            for delta in range(n):
                got = harness._diameter2_case_bound(n, delta)
                assert got == diameter2_bound_reference(n, delta), (n, delta)


class TestCheckAll:
    def test_k4_sum_equality_consistent(self):
        rec = check_all(complete_graph(4))
        assert rec.verdicts["sum_upper_bound"] == HOLDS
        assert rec.verdicts["sum_equality_iff_complete"] == HOLDS
        assert rec.tmc == rec.mc + rec.mvc == 10

    def test_c5(self):
        rec = check_all(cycle_graph(5))
        assert rec.verdicts["size_condition_tmc_gt_mvc"] == NOT_APPLICABLE  # m=5 < 6
        assert rec.tmc < rec.mvc  # the strict reverse inequality is on record
        assert rec.verdicts["tmc_lower_bound"] == HOLDS

    def test_p6_identity_applicable(self):
        rec = check_all(path_graph(6))
        assert rec.condition_flags["diameter_ge_3"]
        assert rec.verdicts["identity_conditions"] == HOLDS
        assert rec.verdicts["tree_formula"] == HOLDS

    @pytest.mark.parametrize("solver", ["tmc_exact", "mc_exact", "mvc_exact"])
    def test_tree_formula_checks_all_three_values(self, monkeypatch, solver):
        # a tree has tmc = l + 1, mc = 1 and mvc = l + 1; K_2 (mvc 2,
        # l + 1 = 3) keeps only the tmc check, and a value one off breaks it
        spider = from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        for g in (path_graph(6), star_graph(5), spider, complete_graph(2)):
            rec = check_all(g)
            assert rec.verdicts["tree_formula"] == HOLDS, g.edges
        rec = check_all(spider)
        assert (rec.tmc, rec.mc, rec.mvc) == (rec.l + 1, 1, rec.l + 1)
        solve = getattr(harness, solver)

        def one_more(g):
            rep = solve(g)
            return replace(rep, value=rep.value + 1)

        monkeypatch.setattr(harness, "_memo", {})
        monkeypatch.setattr(harness, solver, one_more)
        assert check_all(spider).verdicts["tree_formula"] == VIOLATED

    def test_wheel_and_multipartite_formulas(self):
        rec = check_all(wheel_graph(6))
        assert rec.verdicts["wheel_formula"] == HOLDS
        rec = check_all(complete_multipartite_graph([2, 2, 1]))
        assert rec.verdicts["multipartite_formula"] == HOLDS

    def test_path_size_condition_counterexample(self):
        # paths meet m = 2n - d - 2 with tmc = mvc, refuting the strict claim
        rec = check_all(path_graph(4))
        assert rec.tmc == rec.mvc == 3
        assert rec.verdicts["size_condition_tmc_gt_mvc"] == VIOLATED

    def test_star_degree_condition_counterexample(self):
        rec = check_all(star_graph(5))
        assert rec.tmc == rec.mvc == 5
        assert rec.verdicts["degree_condition_tmc_gt_mvc"] == VIOLATED

    def test_out_of_range_skipped(self):
        rec = check_all(cycle_graph(11))
        assert set(rec.verdicts.values()) == {SKIPPED}
        assert rec.tmc is None

    def test_out_of_range_skipped_before_exponential_work(self):
        t0 = time.perf_counter()
        rec = check_all(cycle_graph(40))
        assert time.perf_counter() - t0 < 1.0
        assert set(rec.verdicts.values()) == {SKIPPED}
        assert rec.l is None

    def test_complete_graph_past_guard_keeps_shortcut(self):
        rec = check_all(complete_graph(11))
        assert rec.tmc == 55 + 11 and rec.mc == 55 and rec.mvc == 11
        assert SKIPPED not in rec.verdicts.values()

    def test_trivial_graph(self):
        rec = check_all(complete_graph(1))
        assert rec.verdicts["tmc_lower_bound"] == HOLDS
        assert rec.verdicts["sum_equality_iff_complete"] == HOLDS

    def test_json_round_trip(self):
        rec = check_all(cycle_graph(5))
        back = TheoremCheckRecord.from_json(rec.to_json())
        assert back == rec

    def test_all_keys_present(self):
        rec = check_all(cycle_graph(6))
        assert set(rec.verdicts) == set(CHECK_KEYS)

    def test_one_diameter_per_graph(self, monkeypatch, computations):
        # one per isomorphism class, on its canonical relabelling: the
        # identity conditions, the diameter-2 bound and mvc reuse it, and a
        # relabelled repeat reuses the class's result
        monkeypatch.setattr(harness, "_memo", {})
        seen = computations(graphs.diameter)
        cases = [path_graph(6), cycle_graph(7), complete_multipartite_graph([3, 2])]
        for g in cases:
            check_all(g)
        assert seen == [relabel(g, canonical_order(g)[1]) for g in cases]
        seen.clear()
        for g in cases:
            check_all(shuffled(g))
        assert seen == []



def _witness_rows(reports) -> str:
    return json.dumps({
        key: (rep.value, rep.method, rep.nodes_explored, rep.bounds_used,
              coloring_to_json(rep.witness))
        for key, rep in reports.items()
    }, sort_keys=True)


class TestClassMemo:
    CASES = [path_graph(6), cycle_graph(7), wheel_graph(7), star_graph(6),
             complete_multipartite_graph([3, 2]), complete_graph(5)]
    CASES += [random_connected(8, seed, p=0.4) for seed in range(4)]

    def test_cold_and_warm_memo_agree(self, monkeypatch):
        for g in self.CASES:
            monkeypatch.setattr(harness, "_memo", {})
            cold_rec, cold = check_all_detailed(g)
            monkeypatch.setattr(harness, "_memo", {})
            check_all_detailed(shuffled(g, seed=3))  # fills the class's entry
            warm_rec, warm = check_all_detailed(g)
            assert len(harness._memo) == 1
            assert replace(warm_rec, elapsed_ms=0) == replace(cold_rec, elapsed_ms=0)
            assert warm_rec.graph6 == to_graph6(g)
            assert _witness_rows(warm) == _witness_rows(cold)
            for kind, rep in warm.items():
                assert reverify(g, rep)
                if kind != "mvc":
                    validate_system(g, witness_trees(g, rep.witness))

    def test_reports_match_relabel_reference(self, monkeypatch):
        # every returned report is the class's canonical report moved onto
        # the caller's labels, on a memo miss and on a hit alike
        monkeypatch.setattr(harness, "_memo", {})
        cases = self.CASES + [path_graph(1), path_graph(2), shuffled(wheel_graph(6), seed=2)]
        cases += [random_connected(3 + i % 6, 700 + i, p=(0.3, 0.5, 0.7)[i % 3])
                  for i in range(40)]
        for g in cases:
            harness._memo.clear()
            for h in (g, shuffled(g, seed=4)):  # a miss, then a hit
                self._assert_relabel_reference(h)
                assert len(harness._memo) == 1

    def test_every_graph_to_n5_matches_relabel_reference(self, monkeypatch):
        # from an empty memo, each of the 31 classes is met once as a miss
        # and then as hits under its other labellings
        monkeypatch.setattr(harness, "_memo", {})
        graphs = list(builtin_corpus(5))
        assert len(graphs) == 772
        for h in graphs:
            self._assert_relabel_reference(h)
        assert len(harness._memo) == 31

    @staticmethod
    def _assert_relabel_reference(h):
        _, reports = check_all_detailed(h)
        _, canonical, _, order, _ = harness._check(h)
        assert reports == {key: relabel_report_reference(rep, h, order)
                           for key, rep in canonical.items()}, h.edges

    def test_results_are_fresh_per_call(self, monkeypatch):
        monkeypatch.setattr(harness, "_memo", {})
        g = path_graph(6)
        rec, reports = check_all_detailed(g)
        expected = (rec.to_json(), _witness_rows(reports))
        rec.verdicts.clear()
        rec.condition_flags.clear()
        reports["tmc"].bounds_used.clear()
        reports["tmc"].witness.edge_color.clear()
        again, reports = check_all_detailed(g)
        assert (replace(again, elapsed_ms=rec.elapsed_ms).to_json(),
                _witness_rows(reports)) == expected

    def test_check_all_relabels_no_report(self, monkeypatch):
        # check_all returns the record alone, so it moves no witness onto
        # the caller's labels; the record is check_all_detailed's
        monkeypatch.setattr(harness, "_memo", {})

        def refuse(*args):
            raise AssertionError("check_all relabelled a report")

        for g in self.CASES + [shuffled(path_graph(6), seed=1), path_graph(12)]:
            with monkeypatch.context() as m:
                m.setattr(harness, "_relabel_report", refuse)
                rec = check_all(g)
            detailed = check_all_detailed(g)[0]
            assert replace(rec, elapsed_ms=0) == replace(detailed, elapsed_ms=0), g.edges

    def test_one_table_build_per_miss(self, monkeypatch, table_builds):
        monkeypatch.setattr(harness, "_memo", {})
        cases = [path_graph(6), cycle_graph(7), random_connected(8, 3, p=0.4)]
        for g in cases:
            check_all(g)
        assert table_builds == [relabel(g, canonical_order(g)[1]) for g in cases]
        for g in cases:
            check_all(shuffled(g))
        assert len(table_builds) == len(cases)

    def test_memo_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(harness, "_memo", {})
        monkeypatch.setattr(harness, "MEMO_CAP", 4)
        keys = []
        for g in builtin_corpus(4):  # 10 classes
            check_all_detailed(g)
            key = (g.n, canonical_order(g)[0])
            if key not in keys:
                keys.append(key)
            assert len(harness._memo) <= 4
        assert len(keys) == 10
        assert list(harness._memo) == keys[-4:]  # the oldest went first


#: sha256 of records_to_csv over builtin_corpus(5), elapsed_ms zeroed
CSV_DIGEST = "16eb975bffc50877762b0a52f9428aa179104b7c5372796b83801e2f0f985a26"


class TestCorpus:
    def test_builtin_counts(self):
        assert sum(1 for _ in builtin_corpus(4)) == 1 + 1 + 4 + 38

    def test_builtin_cap(self):
        with pytest.raises(ValueError):
            list(builtin_corpus(7))

    def test_csv_round_trippable_fields(self):
        recs = [check_all(g) for g in builtin_corpus(3)]
        text = records_to_csv(recs)
        lines = text.strip().splitlines()
        assert len(lines) == len(recs) + 1
        assert lines[0].startswith("graph6,n,m,l,")
        # from n = 4 on records carry condition flags, so the cond_* columns
        # appear; elapsed_ms is zeroed to make the text reproducible
        recs = [replace(check_all(g), elapsed_ms=0.0) for g in builtin_corpus(5)]
        text = records_to_csv(recs)
        assert len(recs) == 772 and len(text.splitlines()[0].split(",")) == 26
        assert hashlib.sha256(text.encode()).hexdigest() == CSV_DIGEST


class TestSurvey:
    def test_complete_graphs_fail_identity(self):
        rec = survey_random(5, 1.0, 10, 7)
        assert rec.connected_samples == 10
        assert rec.fraction_identity == 0.0
        assert rec.identity_refuted == 10

    def test_deterministic(self):
        a = survey_random(7, 0.5, 30, 11)
        b = survey_random(7, 0.5, 30, 11)
        assert a == b

    def test_disconnected_counted_separately(self):
        rec = survey_random(8, 0.12, 40, 3)
        assert rec.disconnected_discarded > 0
        assert rec.connected_samples + rec.disconnected_discarded == 40

    def test_in_range_fully_decided(self):
        rec = survey_random(7, 0.5, 25, 5)
        assert rec.identity_undecided == 0
        assert rec.identity_confirmed + rec.identity_refuted == rec.connected_samples

    def test_one_max_leaf_per_solved_sample(self, computations):
        seen = computations(max_leaf_exact)
        rec = survey_random(7, 0.5, 25, 5)
        assert len(seen) == rec.connected_samples - rec.complement_4_connected > 0

    def test_out_of_range_uses_certificate(self):
        rec = survey_random(12, 0.5, 20, 9)
        assert rec.identity_confirmed == rec.complement_4_connected
        assert rec.identity_undecided == rec.connected_samples - rec.complement_4_connected
        assert rec.fraction_identity in (0.0, 1.0)

    @pytest.mark.parametrize("n", [8, 10, 12, 16])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 1.0])
    def test_matches_record_from_cut_enumeration(self, monkeypatch, n, p):
        # n = 8 is solved exactly, n = 10, 12 and 16 are past the guard,
        # which passes complete graphs
        monkeypatch.setenv("MONO_MAX_EXACT_N", "9")
        rec = SurveyRecord(n=n, p=p, trials=40, seed=2)
        for g in _survey_samples(n, p, 40, 2):
            if not is_connected(g):
                rec.disconnected_discarded += 1
                continue
            rec.connected_samples += 1
            if k_connected_bf(complement(g), 4):
                rec.complement_4_connected += 1
                identity = mc_identity = True
            elif n <= 9 or g.is_complete():
                l = max_leaf_exact(g).leaf_count
                identity = solvers.tmc_exact(g).value == g.m - n + 2 + l
                mc_identity = solvers.mc_exact(g).value == g.m - n + 2
            else:
                rec.identity_undecided += 1
                rec.mc_identity_undecided += 1
                continue
            rec.identity_confirmed += identity
            rec.identity_refuted += not identity
            rec.mc_identity_confirmed += mc_identity
            rec.mc_identity_refuted += not mc_identity
        decided = rec.identity_confirmed + rec.identity_refuted
        mc_decided = rec.mc_identity_confirmed + rec.mc_identity_refuted
        rec.fraction_identity = rec.identity_confirmed / decided if decided else 0.0
        rec.fraction_mc_identity = rec.mc_identity_confirmed / mc_decided if mc_decided else 0.0
        if rec.connected_samples:
            rec.fraction_complement_4_connected = (
                rec.complement_4_connected / rec.connected_samples
            )
        assert survey_random(n, p, 40, 2) == rec

    def test_kappa_only_when_complement_min_degree_reaches_4(self, monkeypatch):
        calls, built = [], []
        real = graphs._kappa

        def counted(adj, cap):
            if cap == 4:
                calls.append(adj)
            return real(adj, cap)

        monkeypatch.setattr(graphs, "_kappa", counted)
        # the certificate flows the complement rows; no complement Graph is built
        monkeypatch.setattr(graphs, "complement", lambda g: built.append(g))
        rec = survey_random(12, 0.5, 200, 1)
        assert built == []
        needed = sum(
            is_connected(g) and min(complement(g).degrees()) >= 4
            for g in _survey_samples(12, 0.5, 200, 1)
        )
        assert 0 < len(calls) == needed < rec.connected_samples

    def test_json(self):
        rec = survey_random(6, 0.5, 5, 1)
        assert json.loads(rec.to_json())["n"] == 6


def _labelled_copies():
    """Labelled copies of n = 6-7 classes, some of them tmc <= mvc
    findings, each class under three labellings."""
    base = [path_graph(6), path_graph(7), cycle_graph(6), star_graph(7), wheel_graph(6),
            from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])]
    base += [random_connected(6 + seed % 2, seed, p=0.35) for seed in range(6)]
    return [h for g in base for h in (g, shuffled(g, 1), g, shuffled(g, 2))]


#: target: (corpus, the graphs it solves, the other solver, comparison)
HUNTS = {
    "tmc_le_mc": (lambda: list(builtin_corpus(5)), is_connected, solvers.mc_exact, "tmc<=mc"),
    "tmc_le_mvc": (
        _labelled_copies, lambda g: g.n >= 6 and not is_star(g) and is_connected(g),
        solvers.mvc_exact, "tmc<=mvc",
    ),
}


class TestHunts:
    def test_star_excluded(self):
        assert hunt_tmc_le_mvc([star_graph(6)]) == []

    def test_small_graphs_excluded(self):
        assert hunt_tmc_le_mvc([cycle_graph(5)]) == []

    def test_p6_is_a_finding(self):
        # tmc(P_6) = 3 = mvc(P_6): a non-star order-6 graph with tmc <= mvc
        found = hunt_tmc_le_mvc([path_graph(6)])
        assert len(found) == 1
        f = found[0]
        assert f.tmc == 3 and f.other == 3 and f.comparison == "tmc<=mvc"
        assert parse_graph6(f.graph6).edges == path_graph(6).edges

    def test_dense_graph_not_a_finding(self):
        assert hunt_tmc_le_mvc([wheel_graph(6)]) == []

    def test_conjecture_hunt_named_graphs(self):
        assert hunt_tmc_le_mc([complete_graph(4), wheel_graph(6), cycle_graph(5)]) == []

    def test_one_max_leaf_per_graph(self, monkeypatch, computations):
        monkeypatch.setattr(harness, "_memo", {})
        seen = computations(max_leaf_exact)
        graphs = [path_graph(6), cycle_graph(7), wheel_graph(7)]
        canonical = [relabel(g, canonical_order(g)[1]) for g in graphs]
        # the hunt and check_all each solve a class once, on its canonical
        # relabelling, and a relabelled repeat solves nothing
        hunt_tmc_le_mvc(graphs)
        assert seen == canonical
        seen.clear()
        hunt_tmc_le_mvc([shuffled(g) for g in graphs])
        assert seen == []
        monkeypatch.setattr(harness, "_memo", {})
        for g in graphs:
            check_all(g)
        assert seen == canonical
        seen.clear()
        for g in graphs:
            check_all(shuffled(g))
        assert seen == []

    @pytest.mark.parametrize("target", sorted(HUNTS))
    def test_one_solve_per_class(self, monkeypatch, target):
        monkeypatch.setattr(harness, "_memo", {})
        corpus, wanted, other, comparison = HUNTS[target]
        corpus = corpus()
        solved = []
        real = harness.tmc_exact

        def counted(g, *args):
            solved.append((g.n, canonical_order(g)[0]))
            return real(g, *args)

        monkeypatch.setattr(harness, "tmc_exact", counted)
        found = harness.HUNT_TARGETS[target](corpus)
        classes = {(g.n, canonical_order(g)[0]) for g in corpus if wanted(g)}
        assert sorted(solved) == sorted(classes)
        # against a loop that solves every labelled graph
        every = []
        for g in corpus:
            if wanted(g):
                t, o = solvers.tmc_exact(g).value, other(g).value
                if t <= o:
                    every.append(Finding(to_graph6(g), g.n, g.m, t, o, comparison))
        assert found == every

    @pytest.mark.parametrize("target", sorted(HUNTS))
    @pytest.mark.parametrize("hunt_first", [False, True])
    def test_hunts_share_check_all_memo(self, monkeypatch, target, hunt_first):
        # hunts and check_all read one class memo: whichever runs second
        # over the graphs the hunt looks at solves nothing
        monkeypatch.setattr(harness, "_memo", {})
        corpus, wanted, _, _ = HUNTS[target]
        corpus = [g for g in corpus() if wanted(g)]
        hunt = harness.HUNT_TARGETS[target]

        def check(graphs):
            for g in graphs:
                check_all(g)

        first, second = (hunt, check) if hunt_first else (check, hunt)
        first(corpus)
        assert harness._memo

        def unexpected(g):
            raise AssertionError("solved a class already in the memo")

        monkeypatch.setattr(harness, "_check_canonical", unexpected)
        second(corpus)

    @pytest.mark.parametrize("hunt", [hunt_tmc_le_mc, hunt_tmc_le_mvc])
    def test_guard_before_canonical_labelling(self, monkeypatch, hunt):
        monkeypatch.setenv("MONO_MAX_EXACT_N", "9")
        labelled = []
        real = harness.canonical_order

        def counted(g):
            labelled.append(g)
            return real(g)

        monkeypatch.setattr(harness, "canonical_order", counted)
        with pytest.raises(SolverRangeError, match=hunt.__name__):
            hunt([cycle_graph(10)])
        k0 = from_edge_list(0, [])
        if hunt is hunt_tmc_le_mc:
            with pytest.raises(ValueError, match="has no vertices"):
                hunt([k0])
        else:
            assert hunt([k0]) == []  # the mvc hunt wants n >= 6
        assert labelled == []
        # complete graphs are exempt from the guard
        assert hunt([complete_graph(12)]) == []

    def test_finding_json(self):
        f = hunt_tmc_le_mvc([path_graph(6)])[0]
        obj = json.loads(f.to_json())
        assert obj["comparison"] == "tmc<=mvc" and obj["n"] == 6
