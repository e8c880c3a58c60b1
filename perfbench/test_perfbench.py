"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    # every labelled connected graph with n <= 4, so paths, stars and C_4 occur
    "sweep6": bench.Sweep(max_n=4, count=44),
    "dense9": bench.Dense(n=6, p=0.7, count=2),
    "survey12": bench.Survey(n=12, p=0.5, count=5),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, wl in TINY.items():
        monkeypatch.setitem(bench.WORKLOADS, name, wl)


def run_main(capsys, *args):
    code = bench.main(list(args))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]), out


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(tiny, capsys, workload):
    code, result, lines = run_main(capsys, "--workload", workload, "--seed", "3",
                                   "--seconds", "0", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY[workload].count
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("properties:") for line in lines)


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_reports_every_layer_metric_and_same_digest(tiny, capsys, workload):
    code, result, lines = run_main(capsys, "--workload", workload, "--seed", "3",
                                   "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    traced = json.loads(next(l for l in lines if l.startswith("deterministic:")).split(": ", 1)[1])
    code, _, lines = run_main(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "0", "--trace", "0")
    plain = json.loads(next(l for l in lines if l.startswith("deterministic:")).split(": ", 1)[1])
    assert traced["digest"] == plain["digest"]


def test_deterministic_fields_repeat_for_one_seed():
    wl = TINY["sweep6"]
    first = bench.run_traced(wl, 5)[2]["deterministic"]
    second = bench.run_traced(wl, 5)[2]["deterministic"]
    assert first == second
    assert first["solvers.tmc.calls"] == wl.count
    assert bench.run_traced(wl, 6)[2]["deterministic"]["digest"] != first["digest"]


def test_sweep_layers_are_traced():
    _, metrics, info = bench.run_traced(TINY["sweep6"], 1)
    for name in ("solvers.mc.calls", "solvers.tmc.calls", "coloring.verify.calls"):
        assert metrics[name][0] > 0
    assert metrics["harness.check_all.self_s"][0] > 0
    assert metrics["maxleaf.calls_per_input"][0] > 1.5
    assert info["absent_spans"] == []


def test_corrupted_witness_counts_as_failed(monkeypatch, capsys, tiny):
    real_load = bench.load_monoconn

    def load_with_corrupt_tmc_witness():
        mods = real_load()
        check = mods.harness.check_all_detailed

        def corrupted(g):
            record, reports = check(g)
            w = reports["tmc"].witness
            one_color = dataclasses.replace(
                w, vertex_color=(0,) * g.n, edge_color={e: 0 for e in w.edge_color})
            reports["tmc"] = dataclasses.replace(reports["tmc"], witness=one_color)
            return record, reports

        mods.harness.check_all_detailed = corrupted
        return mods

    monkeypatch.setattr(bench, "load_monoconn", load_with_corrupt_tmc_witness)
    code, result, lines = run_main(capsys, "--workload", "sweep6", "--seed", "1",
                                   "--seconds", "0", "--trace", "0")
    assert code == 1
    assert not result["correct"]
    # only K_1 has tmc = 1, so every other one-colour witness is wrong; the
    # tiny sweep holds K_1 once, and every pass counts its failures
    assert result["attempted"] == bench.MIN_PASSES * TINY["sweep6"].count
    assert result["failed"] == result["attempted"] - bench.MIN_PASSES
    frac = next(l for l in lines if l.startswith("failed_frac"))
    assert float(frac.split()[1]) > 0
    wl = bench.Sweep(max_n=4, count=10)
    probe = bench.SpeedProbe()
    with probe.running():
        measured = bench.measure(wl, 1, 0.0, probe, min_passes=3)
    assert measured.passes == 3 and measured.attempted == len(measured.seconds) == 30
    assert len(measured.outcomes) == 10
    assert measured.failed >= 27


def test_passes_keep_every_time_and_fail_on_changed_values():
    out = bench.Pass()
    one = bench.Outcome([], ("K2", 1), None)
    other = bench.Outcome([], ("K2", 2), None)
    out.add([3.0, 1.0], [one, one])
    out.add([2.0, 4.0], [one, other])
    assert out.passes == 2
    assert out.seconds == [3.0, 1.0, 2.0, 4.0]
    assert out.outcomes == [one, one]
    assert out.failed == 1 and "differ from the first pass" in out.errors[0]


def test_each_pass_starts_from_a_fresh_import(monkeypatch):
    real_load = bench.load_monoconn
    loads = []

    def counting_load():
        loads.append(1)
        return real_load()

    monkeypatch.setattr(bench, "load_monoconn", counting_load)
    probe = bench.SpeedProbe()
    with probe.running():
        measured = bench.measure(TINY["survey12"], 2, 0.0, probe, min_passes=3)
    assert len(loads) == measured.passes == 3
    assert measured.failed == 0


def test_unexpected_violation_counts_as_failed():
    mods = bench.load_monoconn()
    g = mods.graphs.complete_graph(4)
    wl = TINY["sweep6"]
    record, reports, verified = wl.run(mods, g)
    assert not wl.judge(mods, g, (record, reports, verified)).problems
    record.verdicts["sum_upper_bound"] = "violated"
    assert wl.judge(mods, g, (record, reports, verified)).problems
    path = mods.graphs.path_graph(4)
    result = wl.run(mods, path)
    assert result[0].verdicts["size_condition_tmc_gt_mvc"] == "violated"
    assert not wl.judge(mods, path, result).problems


def test_missing_function_is_reported_absent():
    mods = bench.load_monoconn()
    original = mods.graphs.vertex_connectivity
    del mods.graphs.vertex_connectivity
    tracer = bench.Tracer()
    try:
        tracer.install(mods)
        tracer.uninstall()
    finally:
        mods.graphs.vertex_connectivity = original
    assert tracer.absent == ["graphs.vertex_connectivity"]
    assert mods.harness.tmc_exact.__module__ == "monoconn.solvers"


def test_independent_helpers():
    mods = bench.load_monoconn()
    for n in range(5, 9):
        for seed in range(5):
            g = mods.graphs.random_gnp(n, 0.6, seed)
            for k in (1, 2, 3, 4):
                assert bench.kappa_at_least(n, g.adj, k) == (mods.graphs.vertex_connectivity(g) >= k)
    c5 = mods.graphs.cycle_graph(5)
    relabelled = mods.graphs.from_edge_list(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert bench.canonical_key(5, c5.adj) == bench.canonical_key(5, relabelled.adj)
    assert bench.canonical_key(5, c5.adj) != bench.canonical_key(5, mods.graphs.path_graph(5).adj)


@pytest.mark.parametrize("workload, module, attr, replacement", [
    ("survey12", "harness", "survey_random", "raise"),
    ("dense9", "solvers", "mc_exact", "none"),
])
def test_raising_or_malformed_result_counts_as_failed(
        monkeypatch, capsys, tiny, workload, module, attr, replacement):
    real_load = bench.load_monoconn

    def broken(*args, **kwargs):
        if replacement == "raise":
            raise RuntimeError("broken on purpose")
        return None

    def load_broken():
        mods = real_load()
        setattr(getattr(mods, module), attr, broken)
        return mods

    monkeypatch.setattr(bench, "load_monoconn", load_broken)
    code, result, _ = run_main(capsys, "--workload", workload, "--seed", "1",
                               "--seconds", "0", "--trace", "0")
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] == bench.MIN_PASSES * TINY[workload].count


def test_speed_probe_samples_and_leaves_its_time_out():
    import signal
    import time

    assert bench.kappa_at_least(12, bench._REFERENCE_ADJ, 6)
    assert not bench.kappa_at_least(12, bench._REFERENCE_ADJ, 7)
    probe = bench.SpeedProbe()
    with probe.running():
        busy0, t0, w0 = probe.busy, probe.now(), time.perf_counter()
        while time.perf_counter() - w0 < 4 * bench.PROBE_INTERVAL_S:
            pass
        t1, w1, busy1 = probe.now(), time.perf_counter(), probe.busy
    assert busy1 > busy0  # the timer took samples while the loop spun
    assert abs((t1 - t0) - ((w1 - w0) - (busy1 - busy0))) < 0.002
    assert probe.times == sorted(probe.times)
    # the entry sample and those during the stretch set its speed
    scale = bench.REFERENCE_S * len(probe.samples) / sum(probe.samples)
    assert probe.nominal(t0, t1) == pytest.approx((t1 - t0) * scale)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
