"""Batch verification over graph corpora, random-graph surveys and hunts.

``check_all`` evaluates every applicable claim about one graph and returns a
record of values and verdicts, solving each isomorphism class once; a corpus
sweep with zero "violated" verdicts is the library's regression gate.
Verdicts test hypotheses before conclusions, so inapplicable claims report
"not_applicable" rather than passing silently, and graphs beyond the
exact-solver guard report "skipped".
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .coloring import Edge, EdgeColoring, TotalColoring, VertexColoring
from .graphs import (
    Graph,
    _complement_4_connected,
    _reach,
    canonical_order,
    connected_labeled_graphs,
    diameter,
    is_connected,
    max_degree,
    random_gnp,
    relabel,
    tmc_identity_conditions,
    to_graph6,
    vertex_connectivity,  # not called here; the benchmark's trace names harness.vertex_connectivity
)
from .maxleaf import max_leaf_exact
from .solvers import (
    SolverReport,
    _beyond_guard,
    _guard_exact,
    mc_exact,
    mvc_exact,
    tmc_exact,
)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"
SKIPPED = "skipped"

#: verdict keys produced by check_all, in report order
CHECK_KEYS = (
    "tmc_lower_bound",            # tmc >= m - n + 2 + l
    "identity_conditions",        # any of the five conditions => equality above
    "size_condition_tmc_gt_mvc",  # m >= 2n - d - 2 => tmc > mvc
    "degree_condition_tmc_gt_mvc",  # d = 2 and 2*max_degree >= n + 1 => tmc > mvc
    "sum_upper_bound",            # tmc <= mc + mvc
    "sum_equality_iff_complete",  # equality above holds exactly for complete graphs
    "tree_formula",               # trees: tmc = l + 1; if n >= 3, mc = 1 and mvc = l + 1
    "wheel_formula",              # wheels of order >= 5: tmc = m + 1
    "multipartite_formula",       # complete multipartite: tmc = m + r - t
    "diameter2_size_bound",       # diameter-2 minimum size in terms of max degree
    "internal_vertex_audit",      # tmc witness: vertices colored like an edge (sum of q_i) >= q(G)
)


def is_star(g: Graph) -> bool:
    """K_{1,n-1} detected by degree sequence (one hub, n-1 leaves)."""
    if g.n < 3:
        return g.n == 2 and g.m == 1
    degs = sorted(g.degrees())
    return degs[-1] == g.n - 1 and degs[:-1] == [1] * (g.n - 1)


def wheel_order(g: Graph) -> int | None:
    """Order of g when it is a wheel on >= 5 vertices, else None."""
    n, degs = g.n, g.degrees()
    if n < 5 or sorted(degs) != [3] * (n - 1) + [n - 1]:
        return None
    # the rim is then 2-regular, so it is one cycle exactly when connected
    hub = degs.index(n - 1)
    rim_mask = ((1 << n) - 1) & ~(1 << hub)
    return n if _reach(g.adj, (hub + 1) % n, rim_mask) == rim_mask else None


def multipartite_sizes(g: Graph) -> list[int] | None:
    """Class sizes (descending) when g is complete multipartite, else None.

    A graph is complete multipartite exactly when the sets V - N(v)
    partition V, and then they are its classes.  Each holds its own v, so
    they cover V, and they are disjoint exactly when their sizes sum to n.
    """
    full = (1 << g.n) - 1
    sizes = [c.bit_count() for c in {full & ~a for a in g.adj}]
    return sorted(sizes, reverse=True) if sum(sizes) == g.n else None


def diameter2_size_bound(g: Graph) -> tuple[str, int | None]:
    """Diameter-2 minimum-size check: with (n+1)/2 <= max degree <= n-2 the
    edge count must reach the case bound of _diameter2_case_bound."""
    n = g.n
    if n < 2 or not is_connected(g) or diameter(g) != 2:
        return NOT_APPLICABLE, None
    bound = _diameter2_case_bound(n, max_degree(g))
    if bound is None:
        return NOT_APPLICABLE, None
    return (HOLDS if g.m >= bound else VIOLATED), bound


def _diameter2_case_bound(n: int, delta: int) -> int | None:
    """The case bound on the edge count of a diameter-2 graph of order n
    and max degree delta, selected by the printed ranges of delta compared
    in integers; None outside (n+1)/2 <= delta <= n-2."""
    if not (2 * delta >= n + 1 and delta <= n - 2):
        return None
    # past delta = n - 4 every case has delta <= n - 5 and below the previous
    # case's lower end, so only the lower ends are tested, times their
    # denominators; the last case is what remains of (n + 1)/2 <= delta
    if delta in (n - 2, n - 3):
        return n + delta - 2
    if delta == n - 4:
        return 2 * n - 5
    if 3 * delta >= 2 * n - 2:
        return 2 * n - 4
    if 5 * delta >= 3 * n - 3:
        return 3 * n - delta - 6
    if 9 * delta >= 5 * n - 3:
        return 5 * n - 4 * delta - 10
    return 4 * n - 2 * delta - 11


@dataclass
class TheoremCheckRecord:
    graph6: str
    n: int
    m: int
    l: int | None
    diameter: int
    max_degree: int
    tmc: int | None
    mc: int | None
    mvc: int | None
    condition_flags: dict[str, bool] | None
    verdicts: dict[str, str]
    elapsed_ms: float

    def violated(self) -> list[str]:
        return [k for k, v in self.verdicts.items() if v == VIOLATED]

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TheoremCheckRecord":
        return cls(**json.loads(text))


def check_all(g: Graph) -> TheoremCheckRecord:
    """Evaluate every applicable claim for one connected graph."""
    record, _, _, _, ms = _check(g)
    return _fresh(record, g, ms)


def _fresh(r: TheoremCheckRecord, g: Graph, ms: float) -> TheoremCheckRecord:
    """The caller's own copy of a memo record: g's graph6, ``elapsed_ms``
    ms and fresh flag and verdict dicts."""
    flags = r.condition_flags
    return TheoremCheckRecord(
        graph6=to_graph6(g), n=r.n, m=r.m, l=r.l, diameter=r.diameter, max_degree=r.max_degree,
        tmc=r.tmc, mc=r.mc, mvc=r.mvc, condition_flags=None if flags is None else dict(flags),
        verdicts=dict(r.verdicts), elapsed_ms=ms,
    )


#: isomorphism classes whose results check_all_detailed keeps; past this
#: many the oldest is dropped
MEMO_CAP = 4096
#: a class's record, its reports on the canonical relabelling and the
#: _color_table of each edge-colored witness
_Entry = tuple[TheoremCheckRecord, dict[str, SolverReport], dict[str, list[int | None]]]
_memo: dict[tuple[int, int], _Entry] = {}  # keyed by (n, canonical code)


def check_all_detailed(g: Graph):
    """As check_all, but also return the solver reports keyed by invariant
    so callers can audit the witnesses without re-solving.

    Every value and verdict is unchanged by relabelling the vertices, so
    the claims are evaluated once per isomorphism class: on the canonical
    relabelling of g (``canonical_order``), kept in a memo keyed by the
    canonical code, and the witnesses are mapped back onto g's vertices.
    The result is therefore the same whatever was checked before.
    """
    record, reports, tables, order, ms = _check(g)
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    back = [pos[u] * n + pos[v] for u, v in g.edges]
    return _fresh(record, g, ms), {
        key: _relabel_report(rep, tables.get(key), g, pos, back) for key, rep in reports.items()
    }


def _check(g: Graph) -> tuple[
    TheoremCheckRecord, dict[str, SolverReport], dict[str, list[int | None]], Sequence[int], float
]:
    """The memo's record (``graph6`` empty; shared, so never handed out),
    its reports on the canonical relabelling and their color tables, that
    relabelling's order (a fresh skipped record, no reports and the
    identity order past the solvers' guard), and the milliseconds the
    guard, the labelling and the memo read took; a memo miss solves the
    class."""
    _require_solvable(g)
    t0 = time.perf_counter()
    # decide the solvers' refusal before any exponential work
    if _beyond_guard(g):
        r, reports, tables, order = TheoremCheckRecord(
            graph6="", n=g.n, m=g.m, l=None, diameter=diameter(g), max_degree=max_degree(g),
            tmc=None, mc=None, mvc=None, condition_flags=None,
            verdicts=dict.fromkeys(CHECK_KEYS, SKIPPED), elapsed_ms=0.0,
        ), {}, {}, range(g.n)
    else:
        code, order = canonical_order(g)
        known = _memo.get((g.n, code))
        if known is None:
            known = _memo[g.n, code] = _check_canonical(relabel(g, order))
            if len(_memo) > MEMO_CAP:
                del _memo[next(iter(_memo))]
        r, reports, tables = known
    return r, reports, tables, order, (time.perf_counter() - t0) * 1000.0


def _require_solvable(g: Graph) -> None:
    """Refuse, naming it by its graph6, a graph the solvers do not take:
    one with no vertices or a disconnected one."""
    if g.n == 0:
        raise ValueError(f"graph {to_graph6(g)!r} has no vertices")
    if not is_connected(g):
        raise ValueError(f"graph {to_graph6(g)!r} is disconnected")


def _color_table(n: int, ecol: dict[Edge, int]) -> list[int | None]:
    """The colors of ``ecol`` as a symmetric n x n table: the color of edge
    (u, v) at u*n + v and at v*n + u, None off the edges."""
    table: list[int | None] = [None] * (n * n)
    for (u, v), c in ecol.items():
        table[u * n + v] = table[v * n + u] = c
    return table


def _relabel_report(
    rep: SolverReport, table: list[int | None] | None, g: Graph, pos: Sequence[int],
    back: Sequence[int],
) -> SolverReport:
    """A copy of a report on g's canonical relabelling with its witness
    moved onto g's vertices: g's vertex v is canonical vertex pos[v],
    ``table`` is the witness's _color_table (None for a vertex coloring) and
    ``back`` lists the table index of each edge of g.edges, in order."""
    w = rep.witness
    if isinstance(w, VertexColoring):
        witness = VertexColoring(tuple(map(w.vertex_color.__getitem__, pos)))
    else:
        ecol = dict(zip(g.edges, map(table.__getitem__, back)))
        if isinstance(w, EdgeColoring):
            witness = EdgeColoring(ecol)
        else:
            witness = TotalColoring(tuple(map(w.vertex_color.__getitem__, pos)), ecol)
    return SolverReport(
        value=rep.value, witness=witness, nodes_explored=rep.nodes_explored,
        method=rep.method, bounds_used=dict(rep.bounds_used),
    )


def _check_canonical(g: Graph) -> _Entry:
    """The memo entry of a graph within the solvers' range: check_all_detailed's
    record (``graph6`` left empty and ``elapsed_ms`` 0, for ``_fresh`` to
    fill), its reports, and the _color_table of the tmc and mc witnesses."""
    n, m = g.n, g.m
    d = diameter(g)
    delta = max_degree(g)
    complete = g.is_complete()
    ml = max_leaf_exact(g)
    l, q = ml.leaf_count, ml.internal_count
    rep_tmc = tmc_exact(g)
    rep_mc = mc_exact(g)
    rep_mvc = mvc_exact(g)
    tmc, mc, mvc = rep_tmc.value, rep_mc.value, rep_mvc.value
    # the witness colors its trees' internal vertices, and no other vertex,
    # like some edge (SolverReport)
    tree_colors = set(rep_tmc.witness.edge_color.values())
    internal = sum(c in tree_colors for c in rep_tmc.witness.vertex_color)
    identity = m - n + 2 + l

    conditions = tmc_identity_conditions(g) if n > 3 else None
    sizes = multipartite_sizes(g) or []
    r, t = len(sizes), sum(1 for s in sizes if s >= 2)
    diameter2 = diameter2_size_bound(g)[0]
    table = (  # (key, hypothesis applies, conclusion holds), in CHECK_KEYS order
        ("tmc_lower_bound", True, tmc >= identity),
        ("identity_conditions", conditions is not None and conditions.any_holds(), tmc == identity),
        ("size_condition_tmc_gt_mvc", n >= 2 and m >= 2 * n - d - 2, tmc > mvc),
        ("degree_condition_tmc_gt_mvc", n >= 2 and d == 2 and 2 * delta >= n + 1, tmc > mvc),
        ("sum_upper_bound", True, tmc <= mc + mvc),
        ("sum_equality_iff_complete", True, (tmc == mc + mvc) == complete),
        ("tree_formula", m == n - 1 and n >= 2,
         tmc == l + 1 and (n < 3 or mc == 1 and mvc == l + 1)),
        ("wheel_formula", wheel_order(g) is not None, tmc == m + 1),
        ("multipartite_formula", r >= 2, tmc == m + r - t),
        ("diameter2_size_bound", diameter2 != NOT_APPLICABLE, diameter2 == HOLDS),
        ("internal_vertex_audit", not complete, internal >= q),
    )
    verdicts = {
        key: (HOLDS if holds else VIOLATED) if applies else NOT_APPLICABLE
        for key, applies, holds in table
    }

    record = TheoremCheckRecord(
        graph6="", n=n, m=m, l=l, diameter=d, max_degree=delta,
        tmc=tmc, mc=mc, mvc=mvc,
        condition_flags=conditions.flags() if conditions is not None else None,
        verdicts=verdicts, elapsed_ms=0.0,
    )
    tables = {
        "tmc": _color_table(n, rep_tmc.witness.edge_color),
        "mc": _color_table(n, rep_mc.witness.edge_color),
    }
    return record, {"tmc": rep_tmc, "mc": rep_mc, "mvc": rep_mvc}, tables


def builtin_corpus(max_n: int) -> Iterator[Graph]:
    """All labeled connected graphs with 1 <= n <= max_n (1 <= max_n <= 6);
    a max_n out of range raises at the call, before any graph."""
    if max_n < 1:
        raise ValueError(f"builtin corpus needs max_n >= 1, got {max_n}")
    if max_n > 6:
        raise ValueError(
            "builtin corpus is capped at n <= 6; supply an external graph6 list for larger n"
        )
    return (g for n in range(1, max_n + 1) for g in connected_labeled_graphs(n))


# ---------------------------------------------------------------------------
# Random-graph survey
# ---------------------------------------------------------------------------

@dataclass
class SurveyRecord:
    """Deterministic G(n,p) survey of the identity tmc = m - n + 2 + l.

    A sample is *decided* when the identity is settled either by the
    complement-4-connected certificate or, within the exact-solver guard, by
    solving outright; fractions are over decided samples and the certificate
    coverage is reported separately.
    """

    n: int
    p: float
    trials: int
    seed: int
    connected_samples: int = 0
    disconnected_discarded: int = 0
    identity_confirmed: int = 0
    identity_refuted: int = 0
    identity_undecided: int = 0
    mc_identity_confirmed: int = 0
    mc_identity_refuted: int = 0
    mc_identity_undecided: int = 0
    complement_4_connected: int = 0
    fraction_identity: float = 0.0
    fraction_complement_4_connected: float = 0.0
    fraction_mc_identity: float = 0.0

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def survey_random(n: int, p: float, trials: int, seed: int) -> SurveyRecord:
    """Sample G(n,p) ``trials`` times (deterministic in ``seed``) and measure
    how often tmc = m - n + 2 + l and mc = m - n + 2 hold."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rec = SurveyRecord(n=n, p=p, trials=trials, seed=seed)
    for i in range(trials):
        g = random_gnp(n, p, seed=(seed * 1_000_003 + i))
        if not is_connected(g):
            rec.disconnected_discarded += 1
            continue
        rec.connected_samples += 1
        if _complement_4_connected(g):
            rec.complement_4_connected += 1
            rec.identity_confirmed += 1
            rec.mc_identity_confirmed += 1
        elif not _beyond_guard(g):
            l = max_leaf_exact(g).leaf_count
            if tmc_exact(g).value == g.m - g.n + 2 + l:
                rec.identity_confirmed += 1
            else:
                rec.identity_refuted += 1
            if mc_exact(g).value == g.m - g.n + 2:
                rec.mc_identity_confirmed += 1
            else:
                rec.mc_identity_refuted += 1
        else:
            rec.identity_undecided += 1
            rec.mc_identity_undecided += 1
    decided = rec.identity_confirmed + rec.identity_refuted
    rec.fraction_identity = rec.identity_confirmed / decided if decided else 0.0
    mc_decided = rec.mc_identity_confirmed + rec.mc_identity_refuted
    rec.fraction_mc_identity = rec.mc_identity_confirmed / mc_decided if mc_decided else 0.0
    if rec.connected_samples:
        rec.fraction_complement_4_connected = (
            rec.complement_4_connected / rec.connected_samples
        )
    return rec


# ---------------------------------------------------------------------------
# Hunts for open questions (reported, never asserted)
# ---------------------------------------------------------------------------

@dataclass
class Finding:
    graph6: str
    n: int
    m: int
    tmc: int
    other: int
    comparison: str

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def _hunt(graphs: Iterable[Graph], wanted: Callable[[Graph], bool], other: str) -> list[Finding]:
    """Findings, in input order, for the graphs ``wanted`` accepts whose
    tmc is at most their ``other`` ("mc" or "mvc"), both read from the
    memo record that check_all copies (graph6 is encoded for findings
    only): a graph it skips is refused, naming the hunt, and each
    isomorphism class is solved at most once across hunts and checks."""
    findings = []
    for g in graphs:
        if not wanted(g):
            continue
        record = _check(g)[0]
        if record.tmc is None:
            _guard_exact(g, f"hunt_tmc_le_{other}")
        tmc, value = record.tmc, getattr(record, other)
        if tmc <= value:
            findings.append(
                Finding(
                    graph6=to_graph6(g), n=g.n, m=g.m, tmc=tmc, other=value,
                    comparison=f"tmc<={other}",
                )
            )
    return findings


def hunt_tmc_le_mvc(graphs: Iterable[Graph]) -> list[Finding]:
    """Non-star connected graphs on n >= 6 vertices with tmc <= mvc."""
    return _hunt(graphs, lambda g: g.n >= 6 and not is_star(g) and is_connected(g), "mvc")


def hunt_tmc_le_mc(graphs: Iterable[Graph]) -> list[Finding]:
    """Connected graphs with tmc <= mc (expected none)."""
    return _hunt(graphs, is_connected, "mc")


HUNT_TARGETS = {
    "tmc_le_mvc": hunt_tmc_le_mvc,
    "tmc_le_mc": hunt_tmc_le_mc,
}


# ---------------------------------------------------------------------------
# Report serialization helpers
# ---------------------------------------------------------------------------

def records_to_csv(records: Iterable[TheoremCheckRecord]) -> str:
    records = list(records)
    if not records:
        return ""
    flag_keys = sorted({k for r in records if r.condition_flags for k in r.condition_flags})
    values = ["graph6", "n", "m", "l", "diameter", "max_degree", "tmc", "mc", "mvc"]
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(
        values + [f"cond_{k}" for k in flag_keys] + [f"verdict_{k}" for k in CHECK_KEYS] + ["elapsed_ms"]
    )
    for r in records:
        flags = r.condition_flags or {}
        w.writerow(
            [getattr(r, f) for f in values]
            + [flags.get(k, "") for k in flag_keys]
            + [r.verdicts.get(k, "") for k in CHECK_KEYS]
            + [f"{r.elapsed_ms:.3f}"]
        )
    return out.getvalue()
