"""Benchmark for monoconn: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep6 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched,
over repeated passes of the workload's fixed inputs, with every time scaled
to nominal machine speed (see ``SpeedProbe``).  ``--trace 1`` makes two
passes, untraced and then with the library's public functions wrapped by
this file, and reports the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are the human-readable report.  Exit code 0 means every input was correct, 1
means some input failed, 2 means the library could not be imported.

The benchmark imports ``monoconn`` from ``src/`` next to this directory and
nothing else outside the standard library.  See ``perfbench/README.md`` for
the meaning of every metric and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import inspect
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import islice, permutations, product
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graphs", "maxleaf", "coloring", "solvers", "harness")
# setup_s is the median over SETUPS set-ups before the passes and the set-up
# that starts each pass
SETUPS = 5
MIN_PASSES = 2  # passes over the fixed inputs in an untraced run, at least
PROBE_INTERVAL_S = 0.05  # wall time between two reference samples
REFERENCE_S = 0.001  # one reference sample at nominal machine speed
RECENT_SAMPLES = 10  # samples before a timed stretch that also set its speed
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def load_monoconn() -> SimpleNamespace:
    """Import monoconn from this checkout's ``src/`` afresh, as a new process
    would, and return its layer modules.  Raises ImportError when the
    package is missing or would come from anywhere else."""
    for name in [m for m in sys.modules if m == "monoconn" or m.startswith("monoconn.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("monoconn")
    if Path(pkg.__file__).resolve().parent != (SRC / "monoconn").resolve():
        raise ImportError(f"monoconn imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"monoconn.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# Independent graph helpers (bitset adjacency, no library code)
# ---------------------------------------------------------------------------

def _popcount(x: int) -> int:
    return bin(x).count("1")


def _reach(adj, start: int, allowed: int) -> int:
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def connected_within(adj, allowed: int) -> bool:
    if not allowed:
        return True
    start = (allowed & -allowed).bit_length() - 1
    return _reach(adj, start, allowed) == allowed


def complement_adj(n: int, adj) -> list[int]:
    full = (1 << n) - 1
    return [full & ~adj[v] & ~(1 << v) for v in range(n)]


def kappa_at_least(n: int, adj, k: int) -> bool:
    """Vertex connectivity >= k, by deleting every vertex set of size < k."""
    full = (1 << n) - 1
    if all(_popcount(adj[v]) == n - 1 for v in range(n)):
        return n - 1 >= k
    for size in range(k):
        for removed in _subsets(n, size):
            if not connected_within(adj, full & ~removed):
                return False
    return True


def _subsets(n: int, size: int):
    if size == 0:
        yield 0
        return
    for first in range(n):
        for rest in _subsets(first, size - 1):
            yield rest | (1 << first)


def diameter_at_most_2(n: int, adj) -> bool:
    full = (1 << n) - 1
    for v in range(n):
        ball = (1 << v) | adj[v]
        two = ball
        mm = adj[v]
        while mm:
            b = mm & -mm
            two |= adj[b.bit_length() - 1]
            mm ^= b
        if two != full:
            return False
    return True


def is_path(g) -> bool:
    return g.n >= 2 and g.m == g.n - 1 and max(g.degrees()) <= 2 and connected_within(g.adj, (1 << g.n) - 1)


def is_c4(g) -> bool:
    return g.n == 4 and g.m == 4 and g.degrees() == [2, 2, 2, 2]


def is_star(g) -> bool:
    degs = sorted(g.degrees())
    return g.n >= 3 and degs[-1] == g.n - 1 and degs[:-1] == [1] * (g.n - 1)


#: the strict tmc > mvc claims fail on these equality families (tmc = mvc)
KNOWN_VIOLATIONS = {
    "size_condition_tmc_gt_mvc": lambda g: is_path(g) or is_c4(g),
    "degree_condition_tmc_gt_mvc": is_star,
}


def canonical_key(n: int, adj) -> tuple:
    """Isomorphism-class key: the least upper-triangle adjacency code over
    all vertex orders that list vertices by ascending degree (exact)."""
    degs = [_popcount(a) for a in adj]
    groups = [[v for v in range(n) if degs[v] == d] for d in sorted(set(degs))]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = None
    for choice in product(*(permutations(grp) for grp in groups)):
        order = [v for grp in choice for v in grp]
        code = 0
        for bit, (i, j) in enumerate(pairs):
            if (adj[order[i]] >> order[j]) & 1:
                code |= 1 << bit
        if best is None or code < best:
            best = code
    return (n, best)


def degree_key(n: int, adj) -> tuple:
    """Isomorphism invariant; equal keys over-count repeated classes."""
    return (n, tuple(sorted(_popcount(a) for a in adj)))


def spanning_tree_leaves(g, tree) -> int | None:
    """Leaf count of ``tree`` when it is a spanning tree of g, else None."""
    if len(tree) != g.n - 1:
        return None
    adj = [0] * g.n
    deg = [0] * g.n
    for u, v in tree:
        if not g.has_edge(u, v):
            return None
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    if not connected_within(adj, (1 << g.n) - 1):
        return None
    return sum(1 for d in deg if d == 1)


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: C_12 with chords to the 2nd and 3rd neighbours: 6-regular and 6-connected,
#: so the reference check below tries every vertex set of size < 4
_REFERENCE_ADJ = [
    sum(1 << ((v + d) % 12) for d in (-3, -2, -1, 1, 2, 3)) for v in range(12)
]
_REFERENCE_C5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]


def reference_work() -> None:
    """A fixed piece of pure-Python work, independent of the library."""
    kappa_at_least(12, _REFERENCE_ADJ, 4)
    canonical_key(5, _REFERENCE_C5)


class SpeedProbe:
    """Measures how fast the machine runs while the benchmark runs.

    On a shared host the same code runs up to 1.7x slower from one stretch
    of seconds or minutes to the next.  While ``running``, a wall-clock timer
    interrupts the process every ``PROBE_INTERVAL_S`` and times one
    ``reference_work`` sample.  ``now`` is a clock that leaves out the time
    spent in samples, so that they add to no measured time, and ``nominal``
    scales a stretch of that clock to nominal speed (one sample in
    ``REFERENCE_S``) by the samples taken around it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # durations
        self.times: list[float] = []  # when each sample ended, on ``now``
        self.busy = 0.0

    def now(self) -> float:
        while True:
            busy = self.busy
            t = time.perf_counter()
            if busy == self.busy:  # no sample ran in between
                return t - busy

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.busy += t1 - t0
        self.samples.append(t1 - t0)
        self.times.append(t1 - self.busy)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()  # so that every stretch inside has a sample before it
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, t0: float, t1: float) -> float:
        """The stretch from ``t0`` to ``t1`` on ``now``, at nominal speed: its
        speed is the mean of the samples taken during it and of up to
        ``RECENT_SAMPLES`` taken just before it."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        window = self.samples[max(0, lo - RECENT_SAMPLES):hi]
        return (t1 - t0) * REFERENCE_S / statistics.fmean(window)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one input produced, judged outside the timed region."""

    problems: list[str]
    row: tuple  # (graph6, tmc, mc, mvc, l, verdicts) for the digest
    graph: object  # the input graph, for the property report


class Sweep:
    """``check_all_detailed`` plus ``reverify`` of the three witnesses on
    ``count`` labelled connected graphs with n <= max_n, drawn in a seeded
    random order (the user's ``check --corpus builtin:6``)."""

    collect_garbage = False

    def __init__(self, max_n: int = 6, count: int = 3000):
        self.max_n = max_n
        self.count = count

    def make_inputs(self, mods, seed: int):
        corpus = list(mods.harness.builtin_corpus(self.max_n))
        return list(islice(_shuffled_forever(corpus, random.Random(seed)), self.count))

    def run(self, mods, g):
        record, reports = mods.harness.check_all_detailed(g)
        verified = {k: mods.solvers.reverify(g, r) for k, r in reports.items()}
        return record, reports, verified

    def judge(self, mods, g, result) -> Outcome:
        record, reports, verified = result
        problems = [f"{k} witness fails reverify" for k, ok in verified.items() if not ok]
        if set(reports) != {"tmc", "mc", "mvc"}:
            problems.append(f"reports for {sorted(reports)} only")
        for key in ("tmc", "mc", "mvc"):
            if key in reports and reports[key].value != getattr(record, key):
                problems.append(f"{key} record {getattr(record, key)} != report {reports[key].value}")
        for key, verdict in record.verdicts.items():
            if verdict == "violated" and not KNOWN_VIOLATIONS.get(key, lambda _: False)(g):
                problems.append(f"unexpected violated verdict {key}")
        row = (record.graph6, record.tmc, record.mc, record.mvc, record.l,
               sorted(record.verdicts.items()))
        return Outcome(problems, row, g)


class Dense:
    """tmc, mc, mvc and l with ``reverify`` of each witness on a fixed batch
    of connected G(n, p) graphs (the user's ``compute --invariant all
    --witness`` followed by ``verify``)."""

    collect_garbage = True
    batch_seed = 0  # the batch's graphs are fixed; --seed sets their order

    def __init__(self, n: int = 9, p: float = 0.7, count: int = 4):
        self.n = n
        self.p = p
        self.count = count

    def make_inputs(self, mods, seed: int):
        rng = random.Random(self.batch_seed)
        graphs = []
        while len(graphs) < self.count:
            g = mods.graphs.random_gnp(self.n, self.p, rng.randrange(2**31))
            if connected_within(g.adj, (1 << g.n) - 1):
                graphs.append(g)
        random.Random(seed).shuffle(graphs)
        return graphs

    def run(self, mods, g):
        ml = mods.maxleaf.max_leaf_exact(g)
        reports = {
            "tmc": mods.solvers.tmc_exact(g),
            "mc": mods.solvers.mc_exact(g),
            "mvc": mods.solvers.mvc_exact(g),
        }
        verified = {k: mods.solvers.reverify(g, r) for k, r in reports.items()}
        return ml, reports, verified

    def judge(self, mods, g, result) -> Outcome:
        ml, reports, verified = result
        problems = [f"{k} witness fails reverify" for k, ok in verified.items() if not ok]
        l = ml.leaf_count
        if spanning_tree_leaves(g, ml.tree) != l:
            problems.append("max-leaf witness is not a spanning tree with l leaves")
        tmc, mc, mvc = (reports[k].value for k in ("tmc", "mc", "mvc"))
        if tmc < g.m - g.n + 2 + l:
            problems.append("tmc below m - n + 2 + l")
        if mc < g.m - g.n + 2:
            problems.append("mc below m - n + 2")
        if mvc < l + 1:
            problems.append("mvc below l + 1")
        row = (mods.graphs.to_graph6(g), tmc, mc, mvc, l, None)
        return Outcome(problems, row, g)


class Survey:
    """``survey_random`` on G(n, p), one sample per call, for ``count``
    seeded sample seeds."""

    collect_garbage = False

    def __init__(self, n: int = 12, p: float = 0.5, count: int = 1000):
        self.n = n
        self.p = p
        self.count = count

    def make_inputs(self, mods, seed: int):
        rng = random.Random(seed)
        return [rng.randrange(2**31) for _ in range(self.count)]

    def run(self, mods, sample_seed):
        return mods.harness.survey_random(self.n, self.p, 1, sample_seed)

    def judge(self, mods, sample_seed, rec) -> Outcome:
        # survey_random draws sample i from random_gnp(n, p, seed * 1_000_003 + i)
        g = mods.graphs.random_gnp(self.n, self.p, sample_seed * 1_000_003)
        full = (1 << g.n) - 1
        connected = connected_within(g.adj, full)
        certified = connected and kappa_at_least(g.n, complement_adj(g.n, g.adj), 4)
        limit = mods.solvers.max_exact_n()
        expected = {
            "connected_samples": int(connected),
            "disconnected_discarded": int(not connected),
            "complement_4_connected": int(certified),
        }
        if self.n > limit:
            expected["identity_confirmed"] = int(certified)
            expected["identity_undecided"] = int(connected and not certified)
        problems = [
            f"{k} = {getattr(rec, k)}, expected {v}"
            for k, v in expected.items() if getattr(rec, k) != v
        ]
        verdicts = [(k, getattr(rec, k)) for k in sorted(expected)]
        row = (mods.graphs.to_graph6(g), None, None, None, None, verdicts)
        return Outcome(problems, row, g)


def _shuffled_forever(items, rng):
    """Endless stream over ``items``: one seeded permutation after another."""
    while True:
        order = list(range(len(items)))
        rng.shuffle(order)
        for i in order:
            yield items[i]


WORKLOADS = {
    "sweep6": Sweep(),
    "dense9": Dense(),
    "survey12": Survey(),
}


# ---------------------------------------------------------------------------
# Tracing: spans around the library's public functions
# ---------------------------------------------------------------------------

#: (span name, module, attribute): each attribute is where a caller looks up
#: the function, so wrapping it there records every call from that caller
TRACE_TARGETS = (
    ("harness.check_all", "harness", "check_all_detailed"),
    ("harness.survey", "harness", "survey_random"),
    ("solvers.tmc", "harness", "tmc_exact"),
    ("solvers.tmc", "solvers", "tmc_exact"),
    ("solvers.mc", "harness", "mc_exact"),
    ("solvers.mc", "solvers", "mc_exact"),
    ("solvers.mvc", "harness", "mvc_exact"),
    ("solvers.mvc", "solvers", "mvc_exact"),
    ("maxleaf", "harness", "max_leaf_exact"),
    ("maxleaf", "solvers", "max_leaf_exact"),
    ("maxleaf", "maxleaf", "max_leaf_exact"),
    ("graphs.identity_conditions", "harness", "tmc_identity_conditions"),
    ("graphs.kappa", "harness", "vertex_connectivity"),
    ("graphs.kappa", "graphs", "vertex_connectivity"),
    ("graphs.corpus", "harness", "connected_labeled_graphs"),
    ("graphs.random_gnp", "harness", "random_gnp"),
    ("graphs.random_gnp", "graphs", "random_gnp"),
    ("coloring.verify", "solvers", "verify_tmc"),
    ("coloring.verify", "solvers", "verify_mc"),
    ("coloring.verify", "solvers", "verify_mvc"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    input_id: int | None
    start: float
    end: float = 0.0
    graph: object = None
    value: object = None  # fields of the returned report, when it has them
    method: object = None
    nodes: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Wraps module attributes, keeps spans in memory, restores on exit."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    input_id: int | None = None
    enabled: bool = True
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple] = field(default_factory=list)

    def install(self, mods) -> None:
        for span_name, module, attr in TRACE_TARGETS:
            mod = getattr(mods, module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _open(self, name: str, args) -> Span:
        span = Span(
            name=name,
            parent=self._stack[-1] if self._stack else None,
            input_id=self.input_id,
            start=self.clock(),
            graph=args[0] if args else None,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                # time spent inside the generator only, not in its consumer
                it = fn(*args, **kwargs)
                busy = 0.0
                while True:
                    t0 = self.clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        busy += self.clock() - t0
                    yield item
                if self.enabled:
                    span = Span(name, self._stack[-1] if self._stack else None,
                                self.input_id, 0.0, busy)
                    self.spans.append(span)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.value = getattr(result, "value", None)
            span.method = getattr(result, "method", None)
            span.nodes = getattr(result, "nodes_explored", None)
            return result
        return wrapper


def layer_metrics(tracer: Tracer, inputs: int, leaves: dict[int, int]) -> dict[str, tuple]:
    """Per-layer (value, unit) metrics from the spans of one traced pass.
    ``leaves`` maps the id of each input that completed to l(G), for the
    improved-incumbent ratios."""
    by_name: dict[str, list[Span]] = {}
    child_seconds = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds

    def seconds(name: str) -> float:
        return sum((s.seconds for s in by_name.get(name, ())), 0.0)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_seconds(name: str) -> float:
        return sum((s.seconds - child_seconds[i]
                    for i, s in enumerate(tracer.spans) if s.name == name), 0.0)

    def nodes(name: str) -> int:
        spans = by_name.get(name, ())
        if any(s.nodes is None for s in spans):
            tracer.absent.append(f"{name}.nodes")
            return 0
        return sum(s.nodes for s in spans)

    def improved_frac(name: str, incumbent) -> float:
        searched = [s for s in by_name.get(name, ())
                    if s.input_id in leaves and not s.graph.is_complete()]
        better = sum(1 for s in searched if s.value > incumbent(s))
        return better / len(searched) if searched else 0.0

    mvc = by_name.get("solvers.mvc", ())
    shortcut = sum(1 for s in mvc if s.method == "shortcut")
    return {
        "solvers.mc.s": (seconds("solvers.mc"), "s"),
        "solvers.mc.nodes": (nodes("solvers.mc"), "count"),
        "solvers.mc.calls": (calls("solvers.mc"), "count"),
        "solvers.tmc.s": (seconds("solvers.tmc"), "s"),
        "solvers.tmc.nodes": (nodes("solvers.tmc"), "count"),
        "solvers.tmc.calls": (calls("solvers.tmc"), "count"),
        "solvers.mvc.s": (seconds("solvers.mvc"), "s"),
        "solvers.mvc.nodes": (nodes("solvers.mvc"), "count"),
        "solvers.mvc.shortcut_frac": (shortcut / len(mvc) if mvc else 0.0, "frac"),
        "solvers.tmc.improved_frac": (improved_frac(
            "solvers.tmc", lambda s: s.graph.m - s.graph.n + 2 + leaves[s.input_id]), "frac"),
        "solvers.mc.improved_frac": (improved_frac(
            "solvers.mc", lambda s: s.graph.m - s.graph.n + 2), "frac"),
        "maxleaf.s": (seconds("maxleaf"), "s"),
        "maxleaf.calls_per_input": (calls("maxleaf") / inputs, "calls/input"),
        "graphs.kappa.s": (seconds("graphs.kappa"), "s"),
        "graphs.kappa.calls": (calls("graphs.kappa"), "count"),
        "graphs.identity_conditions.s": (seconds("graphs.identity_conditions"), "s"),
        "graphs.corpus.s": (seconds("graphs.corpus"), "s"),
        "graphs.random_gnp.s": (seconds("graphs.random_gnp"), "s"),
        "coloring.verify.s": (seconds("coloring.verify"), "s"),
        "coloring.verify.calls": (calls("coloring.verify"), "count"),
        "harness.check_all.self_s": (self_seconds("harness.check_all"), "s"),
        "harness.survey.self_s": (self_seconds("harness.survey"), "s"),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """Passes over a workload's fixed inputs: the time of every input in
    every pass, the outcomes of the first pass (None where the library
    raised), and every failure of every pass."""

    seconds: list[float] = field(default_factory=list)
    outcomes: list[Outcome | None] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    unscaled: float = 0.0  # the library's time over all passes, as measured
    setup_seconds: list[float] = field(default_factory=list)  # one per pass
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"pass {self.passes} input {i}: {why}")

    def add(self, seconds: list[float], outcomes: list[Outcome | None]) -> None:
        """Fold in one pass; an input whose values or verdicts differ from
        the first pass fails."""
        self.seconds += seconds
        if self.passes == 0:
            self.outcomes = outcomes
        else:
            for i, (a, b) in enumerate(zip(self.outcomes, outcomes)):
                if a is not None and b is not None and a.row != b.row:
                    self.fail(i, "values or verdicts differ from the first pass")
        self.passes += 1


def setup(wl, seed: int, probe: SpeedProbe, tracer: Tracer | None = None):
    """Import the library afresh and generate the inputs; return
    (modules, inputs, seconds taken at nominal speed)."""
    t0 = probe.now()
    mods = load_monoconn()
    if tracer is not None:
        tracer.install(mods)
    inputs = wl.make_inputs(mods, seed)
    return mods, inputs, probe.nominal(t0, probe.now())


def run_pass(wl, mods, inputs, out: Pass, probe: SpeedProbe,
             tracer: Tracer | None = None) -> float:
    """One pass over ``inputs``: closed loop, one input in flight.  Each
    input is timed alone and judged outside the timed region.  Returns the
    pass's time in the library at nominal speed."""
    seconds, outcomes = [], []
    for i, item in enumerate(inputs):
        if wl.collect_garbage:
            # few large inputs: start each from a collected heap, so that the
            # peak RSS does not depend on the seeded order of the batch
            gc.collect()
        if tracer is not None:
            tracer.input_id = i
        t0 = probe.now()
        try:
            result = wl.run(mods, item)
        except Exception as exc:  # a raising input is a failed input
            result = exc
        t1 = probe.now()
        seconds.append(probe.nominal(t0, t1))
        out.unscaled += t1 - t0
        out.attempted += 1
        outcome = None
        if isinstance(result, Exception):
            out.fail(i, f"{type(result).__name__}: {result}")
        else:
            try:
                with tracer.paused() if tracer is not None else nullcontext():
                    outcome = wl.judge(mods, item, result)
            except Exception as exc:  # a result the gate cannot read
                out.fail(i, f"malformed result: {type(exc).__name__}: {exc}")
            else:
                if outcome.problems:
                    out.fail(i, "; ".join(outcome.problems))
        outcomes.append(outcome)
    out.add(seconds, outcomes)
    return sum(seconds)


def measure(wl, seed: int, seconds: float, probe: SpeedProbe,
            min_passes: int = MIN_PASSES) -> Pass:
    """Passes over the same inputs until at least ``min_passes`` are done
    and ``seconds`` of wall time have passed.  Each pass starts from a fresh
    import, as a new process would, so that nothing the library keeps
    between calls carries over from one pass to the next."""
    out = Pass()
    t_start = time.perf_counter()
    while out.passes < min_passes or time.perf_counter() - t_start < seconds:
        mods, inputs, setup_s = setup(wl, seed, probe)
        out.setup_seconds.append(setup_s)
        run_pass(wl, mods, inputs, out, probe)
    return out


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        row = None if o is None else o.row
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def input_properties(outcomes) -> dict:
    graphs = [o.graph for o in outcomes if o is not None]
    if not graphs:
        return {}
    exact = all(g.n <= 6 for g in graphs)
    key = canonical_key if exact else degree_key
    seen = set()
    repeats = 0
    for g in graphs:
        k = key(g.n, g.adj)
        repeats += k in seen
        seen.add(k)
    return {
        "inputs": len(graphs),
        "class_repeat_share": repeats / len(graphs),
        "class_repeat_share_kind": "exact" if exact else "upper_bound_degree_sequence",
        "diameter_le_2_share": sum(
            1 for g in graphs
            if connected_within(g.adj, (1 << g.n) - 1) and diameter_at_most_2(g.n, g.adj)
        ) / len(graphs),
        "mean_nonadjacent_pairs": statistics.fmean(
            g.n * (g.n - 1) // 2 - g.m for g in graphs),
    }


def tail(seconds: list[float]):
    """(percentile, value, samples beyond) for the highest percentile with
    at least ten samples beyond it, or None."""
    ordered = sorted(seconds)
    for pct in TAIL_PERCENTILES:
        beyond = int(len(ordered) * (100.0 - pct) / 100.0)
        if beyond >= 10:
            return pct, ordered[len(ordered) - beyond - 1], beyond
    return None


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(name: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "fixed_inputs": {k: w.count for k, w in WORKLOADS.items()},
    }


def run_untraced(wl, seed: int, seconds: float, setups: int = SETUPS):
    """Set-ups, then passes; every time is scaled to nominal machine speed."""
    probe = SpeedProbe()
    with probe.running():
        setup_times = [setup(wl, seed, probe)[2] for _ in range(setups)]
        measured = measure(wl, seed, seconds, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = measured.seconds
    metrics = {
        "setup_s": (statistics.median(setup_times + measured.setup_seconds), "s"),
        "graphs_per_s": (len(done) / sum(done), "1/s"),
        "graph_p50_ms": (statistics.median(done) * 1000.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "machine_speed": {"passes": sum(done) / measured.unscaled,
                          "graphs_per_s_unscaled": len(done) / measured.unscaled},
        "failed_frac": measured.failed / measured.attempted,
        "graph_tail_ms": tail(done),
        "deterministic": {"digest": digest(measured.outcomes), "inputs": len(measured.outcomes)},
        "properties": input_properties(measured.outcomes),
    }
    return measured, metrics, info


def run_traced(wl, seed: int):
    """Two passes over the fixed inputs, untraced and then traced, each from
    a fresh import; an input whose values or verdicts differ between the two
    fails."""
    both = Pass()
    probe = SpeedProbe()
    tracer = Tracer(clock=probe.now)
    with probe.running():
        mods, inputs, _ = setup(wl, seed, probe)
        plain_s = run_pass(wl, mods, inputs, both, probe)
        mods, inputs, _ = setup(wl, seed, probe, tracer)
        try:
            traced_s = run_pass(wl, mods, inputs, both, probe, tracer)
        finally:
            tracer.uninstall()
    leaves = {i: o.row[4] for i, o in enumerate(both.outcomes) if o is not None}
    metrics = layer_metrics(tracer, len(both.outcomes), leaves)
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")
    counters = {k: v for k, (v, unit) in metrics.items()
                if unit != "s" and k != "trace.overhead_frac"}
    info = {
        "failed_frac": both.failed / both.attempted,
        "deterministic": {"digest": digest(both.outcomes), "inputs": len(both.outcomes),
                          **counters},
        "absent_spans": sorted(set(tracer.absent)),
    }
    return both, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_monoconn()
    except ImportError as exc:
        print(f"perfbench: cannot import monoconn from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    print("# " + json.dumps(header(args.workload, args.seed, args.seconds, args.trace)))
    if args.trace:
        measured, metrics, info = run_traced(wl, args.seed)
    else:
        measured, metrics, info = run_untraced(wl, args.seed, args.seconds)
    for line in measured.errors:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6f} {unit}")
    print(f"{'failed_frac':32s} {info['failed_frac']:>16.6f} frac")
    print(f"{'passes':32s} {measured.passes:>16d} over {len(measured.outcomes)} inputs")
    if "graph_tail_ms" in info:
        t = info["graph_tail_ms"]
        if t is None:
            print(f"{'graph_tail_ms':32s} {'omitted':>16s} (fewer than 10 samples beyond p90)")
        else:
            pct, value, beyond = t
            print(f"{'graph_tail_ms':32s} {value * 1000.0:>16.6f} ms "
                  f"(p{pct:g}, {beyond} of {len(measured.seconds)} samples beyond)")
    for key in ("machine_speed", "deterministic", "properties", "absent_spans"):
        if key in info:
            print(f"{key}: {json.dumps(info[key], sort_keys=True)}")
    correct = measured.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
