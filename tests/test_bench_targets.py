"""The benchmark's per-layer trace wraps library attributes by name; a
refactor that drops one (say, an import of ``tmc_exact`` into ``harness``)
would silently empty that layer's metrics, so every name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_trace_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    assert bench.TRACE_TARGETS
    absent = [
        f"{module}.{attr}" for _, module, attr in bench.TRACE_TARGETS
        if not hasattr(importlib.import_module(f"monoconn.{module}"), attr)
    ]
    assert absent == []
