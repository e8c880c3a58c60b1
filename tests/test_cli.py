import io
import json
import sys
import time
import weakref

import pytest

from monoconn import cli
from monoconn.cli import main
from monoconn.graphs import (
    complete_graph,
    cycle_graph,
    diameter,
    path_graph,
    to_graph6,
    wheel_graph,
)
from monoconn.harness import builtin_corpus
from monoconn.maxleaf import max_leaf_exact
from conftest import format_edgelist


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_literal_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "Dhc", "--literal")  # C_5
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["tmc"] == 4 and rec["mvc"] == 5 and rec["mc"] == 2 and rec["l"] == 2

    def test_single_invariant(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "Dhc", "--literal", "--invariant", "tmc")
        rec = json.loads(out.strip())
        assert code == 0 and rec["tmc"] == 4 and "mc" not in rec

    def test_edgelist_file(self, tmp_path, capsys):
        p = tmp_path / "w5.txt"
        p.write_text(format_edgelist(wheel_graph(6)))
        code, out, _ = run_cli(capsys, "compute", str(p), "--invariant", "mc")
        assert code == 0
        assert json.loads(out.strip())["mc"] == 7

    def test_edgelist_file_with_leading_comment(self, tmp_path, capsys):
        p = tmp_path / "triangle.txt"
        p.write_text("# triangle\n3 3\n0 1\n1 2\n0 2\n")
        code, out, err = run_cli(capsys, "compute", str(p), "--invariant", "tmc")
        rec = json.loads(out)
        assert code == 0 and err == "" and (rec["n"], rec["m"], rec["tmc"]) == (3, 3, 6)

    def test_graph6_file_with_comment(self, tmp_path, capsys):
        # a comment may hold any UTF-8 text
        for comment in ("# two graphs", "# C₅ and K₄"):
            p = tmp_path / "graphs.g6"
            p.write_text(f"{comment}\nDhc\nC~\n", encoding="utf-8")  # C_5 and K_4
            code, out, err = run_cli(capsys, "compute", str(p), "--invariant", "tmc")
            assert code == 0 and err == "", comment
            assert [json.loads(l)["tmc"] for l in out.splitlines()] == [4, 10]

    def test_undecodable_file_named(self, tmp_path, capsys):
        p = tmp_path / "latin1.g6"
        p.write_bytes(b"# caf\xe9\nDhc\n")
        code, out, err = run_cli(capsys, "compute", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {p}: not UTF-8 text") and err.count("\n") == 1

    def test_graph6_file_multiple(self, tmp_path, capsys):
        p = tmp_path / "graphs.g6"
        p.write_text(">>graph6<<\nDhc\nC~\n")  # C_5 and K_4
        code, out, _ = run_cli(capsys, "compute", str(p), "--invariant", "tmc")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert [json.loads(l)["tmc"] for l in lines] == [4, 10]

    def test_witness_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "Dhc", "--literal", "--invariant", "tmc", "--witness"
        )
        rec = json.loads(out.strip())
        assert set(rec["tmc_witness"]) == {"vertex_colors", "edge_colors"}

    def test_malformed_input(self, capsys):
        code, _, err = run_cli(capsys, "compute", "A@", "--literal")
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "/nonexistent/path.g6")
        assert code == 2

    @pytest.mark.parametrize("invariant", ["all", "l"])
    def test_single_vertex_has_no_leaves(self, capsys, invariant):
        # K_1 takes check's n = 1 convention: l = 0 and an empty tree
        code, out, _ = run_cli(capsys, "compute", "@", "--literal", "--invariant", invariant, "--witness")
        rec = json.loads(out)
        assert code == 0 and rec["l"] == 0 and rec["l_tree"] == []
        if invariant == "all":
            assert (rec["tmc"], rec["mc"], rec["mvc"]) == (1, 0, 1)

    def test_max_leaf_past_guard_refused(self, capsys):
        g6 = to_graph6(path_graph(12))
        code, out, err = run_cli(capsys, "compute", g6, "--literal", "--invariant", "l")
        assert code == 2 and out == ""
        assert "max_leaf_exact accepts n <= 9" in err and "got n = 12" in err

    @pytest.mark.parametrize(
        "graph,invariant,calls",
        [
            (path_graph(6), "all", 1),        # tmc, mvc and l share one tree
            (path_graph(6), "mvc", 1),
            (wheel_graph(6), "mvc", 0),       # diameter 2: mvc shortcut
            (complete_graph(5), "tmc", 0),    # complete: tmc shortcut
            (complete_graph(5), "all", 1),    # only l needs it
        ],
    )
    def test_max_leaf_once_and_only_when_needed(self, capsys, computations, graph, invariant, calls):
        seen = computations(max_leaf_exact)
        code, out, _ = run_cli(capsys, "compute", to_graph6(graph), "--literal", "--invariant", invariant)
        assert code == 0 and len(seen) == calls
        if invariant == "all":
            assert json.loads(out)["l"] == max_leaf_exact(graph).leaf_count

    @pytest.mark.parametrize("invariant", ["mvc", "all"])
    def test_diameter_once_per_graph(self, tmp_path, capsys, computations, invariant):
        seen = computations(diameter)
        p = tmp_path / "graphs.g6"
        p.write_text(f"{to_graph6(path_graph(6))}\n{to_graph6(cycle_graph(7))}\n")
        code, out, _ = run_cli(capsys, "compute", str(p), "--invariant", invariant)
        assert code == 0 and len(out.strip().splitlines()) == 2
        assert len(seen) == 2

    def test_one_table_build_per_graph(self, tmp_path, capsys, table_builds):
        # tmc builds the graph's tables, and mc and mvc reuse them; W_6's
        # tmc and mc roots are proved from its non-degrees and its mvc is the
        # diameter-2 shortcut, so it builds none
        graphs = [path_graph(6), cycle_graph(7), wheel_graph(6)]
        p = tmp_path / "graphs.g6"
        p.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        code, out, _ = run_cli(capsys, "compute", str(p), "--invariant", "all")
        assert code == 0 and len(out.strip().splitlines()) == 3
        assert table_builds == [path_graph(6), cycle_graph(7)]

    def test_bad_guard_setting_named(self, capsys, monkeypatch):
        monkeypatch.setenv("MONO_MAX_EXACT_N", "abc")
        code, _, err = run_cli(capsys, "compute", "Dhc", "--literal")
        assert code == 2
        assert "MONO_MAX_EXACT_N" in err and "'abc'" in err


class TestConstructVerify:
    def test_construct_wheel_then_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "wheel", "--order", "6")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["colors"] == 11
        coloring_path = tmp_path / "col.json"
        coloring_path.write_text(json.dumps(rec["coloring"]))
        code, out, _ = run_cli(
            capsys, "verify", rec["graph6"], "--literal", "--coloring", str(coloring_path)
        )
        assert code == 0
        ver = json.loads(out.strip())
        assert ver["valid"] and ver["kind"] == "tmc" and ver["colors"] == 11

    def test_construct_multipartite(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "multipartite", "--sizes", "2,1,1")
        rec = json.loads(out.strip())
        assert code == 0 and rec["colors"] == 7

    def test_construct_multipartite_bad_sizes_named(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--family", "multipartite", "--sizes", "3,x")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--sizes" in err and "'3,x'" in err

    def test_construct_complete(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "complete", "--order", "4")
        assert json.loads(out.strip())["colors"] == 10

    def test_construct_tree_from_graph(self, tmp_path, capsys):
        p = tmp_path / "in.g6"
        p.write_text("Dhc\n")
        code, out, _ = run_cli(capsys, "construct", "--family", "tree", "--graph", str(p))
        assert code == 0 and json.loads(out.strip())["colors"] == 4

    @pytest.mark.parametrize("graph6,refusal", [
        ("@", None), ("?", "has no vertices"), ("A?", "is disconnected"),
    ], ids=["K_1", "order_zero", "disconnected"])
    def test_construct_tree_edge_graphs(self, capsys, graph6, refusal):
        code, out, err = run_cli(capsys, "construct", "--family", "tree", "--graph", graph6, "--literal")
        if refusal is None:  # tmc(K_1) = 1: the one vertex's one color
            rec = json.loads(out)
            assert code == 0 and err == "" and rec["colors"] == 1
            assert rec["coloring"] == {"vertex_colors": [0], "edge_colors": []}
        else:
            assert code == 2 and out == "" and err == f"error: graph {graph6!r} {refusal}\n"

    def test_construct_tree_past_guard_refused_fast(self, capsys):
        g6 = to_graph6(path_graph(20))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "construct", "--family", "tree", "--graph", g6, "--literal")
        assert code == 2 and out == "" and time.perf_counter() - start < 1.0
        assert "accepts n <= 9" in err and "got n = 20" in err

    def test_verify_invalid_coloring_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # all-distinct total coloring of P_3 cannot connect the endpoints
        bad.write_text(json.dumps({"vertex_colors": [0, 1, 2], "edge_colors": [[0, 1, 3], [1, 2, 4]]}))
        code, out, _ = run_cli(capsys, "verify", "Bg", "--literal", "--coloring", str(bad))
        ver = json.loads(out.strip())
        assert code == 0 and not ver["valid"] and ver["uncovered_pair"] == [0, 2]

    def test_verify_vertex_coloring_dispatch(self, tmp_path, capsys):
        col = tmp_path / "v.json"
        col.write_text(json.dumps({"vertex_colors": [0, 1, 1, 2]}))
        code, out, _ = run_cli(capsys, "verify", "Ch", "--literal", "--coloring", str(col))
        ver = json.loads(out.strip())
        assert code == 0 and ver["kind"] == "mvc"

    def test_verify_edge_coloring_dispatch(self, tmp_path, capsys):
        col = tmp_path / "e.json"
        col.write_text(json.dumps({"edge_colors": [[0, 1, 0], [1, 2, 0]]}))
        code, out, _ = run_cli(capsys, "verify", "Bg", "--literal", "--coloring", str(col))
        ver = json.loads(out.strip())
        assert code == 0 and ver["kind"] == "mc" and ver["valid"] and ver["colors"] == 1

    def test_verify_refuses_graph_and_coloring_both_from_stdin(self, capsys, monkeypatch):
        # stdin holds one of the two; the refusal comes before it is read
        text = json.dumps({"vertex_colors": [0, 1, 1, 2]})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "verify", "-", "--coloring", "-")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "stdin" in err and err.count("\n") == 1
        assert sys.stdin.read() == text

    def test_wheel_too_small(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--family", "wheel", "--order", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "family,flag", [("wheel", "--order"), ("complete", "--order"),
                        ("multipartite", "--sizes"), ("tree", "--graph")],
    )
    def test_construct_missing_argument(self, capsys, family, flag):
        code, out, err = run_cli(capsys, "construct", "--family", family)
        assert code == 2 and out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize(
        "text",
        ["null", '{"vertex_colors": 5}', '{"vertex_colors": [0, [1]]}',
         '{"edge_colors": [[0, 1, "a"]]}', '{"edge_colors": [[0, 1, 2], [0, 1, 3]]}',
         '{"vertex_colors": [0, 1], "edge_colors": [[0, 1, 2], [1, 0, 3]]}'],
    )
    def test_verify_malformed_coloring(self, tmp_path, capsys, text):
        col = tmp_path / "c.json"
        col.write_text(text)
        code, out, err = run_cli(capsys, "verify", "A_", "--literal", "--coloring", str(col))
        assert code == 2 and out == "" and err.startswith("error:")


class TestCheck:
    def test_builtin_n3_clean_except_known_families(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "check", "--corpus", "builtin:3", "--csv", str(csv_path))
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 1 + 1 + 4
        # the labeled P_3 triangle violates the strict tmc > mvc claims
        violated = [l for l in lines if "violated" in l["verdicts"].values()]
        assert len(violated) == 3
        assert code == 1
        assert csv_path.read_text().startswith("graph6,")

    @pytest.mark.parametrize("with_csv", [False, True])
    def test_records_kept_only_for_csv(self, tmp_path, capsys, monkeypatch, with_csv):
        # without --csv only the record being written is alive; the output
        # and exit code are the same either way
        records, alive = [], []
        real = cli.check_all

        def tracked(g):
            alive.append(sum(r() is not None for r in records))
            rec = real(g)
            records.append(weakref.ref(rec))
            return rec

        monkeypatch.setattr(cli, "check_all", tracked)
        csv = ["--csv", str(tmp_path / "r.csv")] if with_csv else []
        code, out, err = run_cli(capsys, "check", "--corpus", "builtin:3", *csv)
        assert alive == ([0, 1, 2, 3, 4, 5] if with_csv else [0, 1, 1, 1, 1, 1])
        assert code == 1 and err == "checked 6 graphs, 3 with violated verdicts\n"
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line["graph6"] for line in lines] == [to_graph6(g) for g in builtin_corpus(3)]
        assert (tmp_path / "r.csv").exists() == with_csv

    def test_csv_replaced_only_by_a_finished_sweep(self, tmp_path, capsys):
        p, report = tmp_path / "c.g6", tmp_path / "r.csv"
        for _ in range(2):  # the second report replaces the first
            assert run_cli(capsys, "check", "--corpus", "builtin:2", "--csv", str(report))[0] == 0
        before = report.read_bytes()
        assert before.startswith(b"graph6,") and len(before.splitlines()) == 1 + 2
        p.write_text("Dhc\nA?\n")
        fresh = tmp_path / "fresh.csv"
        for path in (report, fresh):  # a failed sweep leaves no report behind
            code, _, err = run_cli(capsys, "check", "--corpus", str(p), "--csv", str(path))
            assert code == 2 and "is disconnected" in err
        assert report.read_bytes() == before
        assert not fresh.exists()

    @pytest.mark.parametrize("spec", ["builtin:x", "{dir}/missing.g6"])
    def test_bad_corpus_leaves_the_report_alone(self, tmp_path, capsys, spec):
        # the corpus is resolved before the report is opened: a fresh path
        # is not created and an existing report keeps its bytes
        spec = spec.format(dir=tmp_path)
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        assert run_cli(capsys, "check", "--corpus", "builtin:2", "--csv", str(kept))[0] == 0
        before = kept.read_bytes()
        for report in (fresh, kept):
            code, out, err = run_cli(capsys, "check", "--corpus", spec, "--csv", str(report))
            assert code == 2 and out == "" and err.startswith("error:")
        assert not fresh.exists()
        assert kept.read_bytes() == before

    def test_corpus_file(self, tmp_path, capsys):
        p = tmp_path / "c.g6"
        p.write_text("C~\nDhc\n")
        code, out, _ = run_cli(capsys, "check", "--corpus", str(p))
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_builtin_spec_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--corpus", "builtin:n<=2")
        assert code == 0 and len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize("spec,reason", [
        ("builtin:0", "needs max_n >= 1, got 0"),
        ("builtin:-1", "needs max_n >= 1, got -1"),
        ("builtin:7", "capped at n <= 6"),
        ("builtin:x", "needs an integer N, got 'x'"),
        ("builtin:", "needs an integer N, got ''"),
    ])
    @pytest.mark.parametrize("command", ["check", "hunt"])
    def test_bad_builtin_spec_named(self, capsys, spec, reason, command):
        extra = ["--target", "tmc_le_mc"] if command == "hunt" else []
        code, out, err = run_cli(capsys, command, *extra, "--corpus", spec)
        assert code == 2 and out == ""
        assert f"bad corpus {spec!r}" in err and reason in err


REFUSING = ["check --corpus", "hunt --target tmc_le_mc --corpus", "compute", "compute --invariant tmc"]


@pytest.mark.parametrize("command,graph6,reason", [
    *((c, "?", "has no vertices") for c in REFUSING),
    # a hunt skips a disconnected graph instead
    *((c, "A?", "is disconnected") for c in REFUSING if not c.startswith("hunt")),
])
def test_unsolvable_graph_refused_by_name(tmp_path, capsys, command, graph6, reason):
    p = tmp_path / "c.g6"
    p.write_text(f"C~\n{graph6}\n")
    code, out, err = run_cli(capsys, *command.split(), str(p))
    assert code == 2 and err == f"error: graph {graph6!r} {reason}\n"
    # K_4 before it went through; a hunt finds nothing on it
    written = [json.loads(line)["graph6"] for line in out.splitlines()]
    assert written == ([] if command.startswith("hunt") else ["C~"])


@pytest.mark.parametrize("command", [
    "compute {dir}",
    "verify Dhc --literal --coloring {dir}",
    "check --corpus builtin:3 --csv {dir}",
])
def test_unreadable_path_exits_2(tmp_path, capsys, command):
    # check refuses its --csv path before the sweep writes any record
    code, out, err = run_cli(capsys, *command.format(dir=tmp_path).split())
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


class TestSurveyHunt:
    def test_survey(self, capsys):
        code, out, _ = run_cli(
            capsys, "survey", "--n", "5", "--p", "1.0", "--trials", "5", "--seed", "7"
        )
        rec = json.loads(out.strip())
        assert code == 0 and rec["fraction_identity"] == 0.0

    def test_hunt_problem_target(self, tmp_path, capsys):
        p = tmp_path / "c.g6"
        p.write_text(to_graph6(wheel_graph(6)) + "\n")
        code, out, err = run_cli(capsys, "hunt", "--target", "tmc_le_mvc", "--corpus", str(p))
        assert code == 0 and out.strip() == "" and "0 finding" in err

    def test_hunt_prints_finding(self, tmp_path, capsys):
        p = tmp_path / "pk.g6"
        p.write_text(f"{to_graph6(path_graph(6))}\n{to_graph6(complete_graph(6))}\n")
        code, out, err = run_cli(capsys, "hunt", "--target", "tmc_le_mvc", "--corpus", str(p))
        (line,) = out.splitlines()
        found = json.loads(line)
        assert code == 0 and "1 finding" in err
        assert found["graph6"] == to_graph6(path_graph(6)) and found["comparison"] == "tmc<=mvc"
        assert (found["tmc"], found["other"]) == (3, 3)

    def test_hunt_conjecture_target(self, capsys):
        code, out, err = run_cli(capsys, "hunt", "--target", "tmc_le_mc", "--corpus", "builtin:4")
        assert code == 0 and out.strip() == ""
