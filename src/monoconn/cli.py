"""Command-line interface: compute, verify, construct, check, survey, hunt.

Output is JSON lines (one record per graph).  Exit status is 0 on success,
1 when a corpus check produced a "violated" verdict, 2 on malformed input or
an unreadable path.
The MONO_MAX_EXACT_N environment variable overrides the exact-solver guard.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterable

from .coloring import (
    EdgeColoring,
    TotalColoring,
    coloring_from_json,
    coloring_to_json,
    verify_mc,
    verify_mvc,
    verify_tmc,
)
from .constructions import (
    complete_tmc_coloring,
    max_leaf_tmc_coloring,
    multipartite_tmc_coloring,
    wheel_tmc_coloring,
)
from .graphs import (
    Graph,
    GraphFormatError,
    parse_graph6,
    parse_graphs,
    to_graph6,
)
from .harness import (
    HUNT_TARGETS,
    _require_solvable,
    builtin_corpus,
    check_all,
    records_to_csv,
    survey_random,
)
from .maxleaf import max_leaf_exact
from .solvers import SolverRangeError, mc_exact, mvc_exact, tmc_exact


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def _load_graphs(spec: str, literal: bool) -> Iterable[Graph]:
    """The graphs of a path or '-' (``graphs.parse_graphs``), or the one
    literal graph6 string."""
    return [parse_graph6(spec)] if literal else parse_graphs(_read_text(spec))


def _corpus(spec: str) -> Iterable[Graph]:
    if spec.startswith("builtin:"):
        arg = spec.split(":", 1)[1]
        arg = arg.replace("n<=", "").replace("n=", "").strip()
        if not arg.lstrip("-").isdigit():
            raise ValueError(f"bad corpus {spec!r}: builtin:N needs an integer N, got {arg!r}")
        try:
            return builtin_corpus(int(arg))
        except ValueError as exc:
            raise ValueError(f"bad corpus {spec!r}: {exc}") from None
    return _load_graphs(spec, literal=False)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


SOLVERS = {"tmc": tmc_exact, "mc": mc_exact, "mvc": mvc_exact}


def cmd_compute(args: argparse.Namespace) -> int:
    for g in _load_graphs(args.input, args.literal):
        _require_solvable(g)
        rec: dict = {"graph6": to_graph6(g), "n": g.n, "m": g.m}
        wanted = ["l", *SOLVERS] if args.invariant == "all" else [args.invariant]
        for inv in wanted:
            if inv == "l":
                ml = max_leaf_exact(g)
                rec["l"] = ml.leaf_count
                if args.witness:
                    rec["l_tree"] = [list(e) for e in ml.tree]
                continue
            rep = SOLVERS[inv](g)
            rec[inv] = rep.value
            rec[f"{inv}_method"] = rep.method
            if args.witness:
                rec[f"{inv}_witness"] = json.loads(coloring_to_json(rep.witness))
        _emit(rec)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph == args.coloring == "-" and not args.literal:
        raise ValueError("verify reads only one of the graph and --coloring from stdin ('-')")
    coloring = coloring_from_json(_read_text(args.coloring))
    for g in _load_graphs(args.graph, args.literal):
        if isinstance(coloring, TotalColoring):
            kind, (ok, pair) = "tmc", verify_tmc(g, coloring)
        elif isinstance(coloring, EdgeColoring):
            kind, (ok, pair) = "mc", verify_mc(g, coloring)
        else:
            kind, (ok, pair) = "mvc", verify_mvc(g, coloring)
        _emit(
            {
                "graph6": to_graph6(g),
                "kind": kind,
                "valid": ok,
                "uncovered_pair": list(pair) if pair else None,
                "colors": coloring.color_count,
            }
        )
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    flag = {"wheel": "order", "complete": "order", "multipartite": "sizes", "tree": "graph"}
    if getattr(args, flag[args.family]) is None:
        raise ValueError(f"construct --family {args.family} needs --{flag[args.family]}")
    if args.family == "wheel":
        g, tc = wheel_tmc_coloring(args.order)
    elif args.family == "complete":
        g, tc = complete_tmc_coloring(args.order)
    elif args.family == "multipartite":
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError:
            raise ValueError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
        g, tc = multipartite_tmc_coloring(sizes)
    else:  # tree
        graphs = list(_load_graphs(args.graph, args.literal))
        if len(graphs) != 1:
            raise GraphFormatError("construct --family tree needs exactly one input graph")
        g = graphs[0]
        _require_solvable(g)
        tc = max_leaf_tmc_coloring(g)
    _emit(
        {
            "graph6": to_graph6(g),
            "n": g.n,
            "m": g.m,
            "colors": tc.color_count,
            "coloring": json.loads(coloring_to_json(tc)),
        }
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    checked = violations = 0
    records = [] if args.csv else None  # kept only for the CSV report
    graphs = _corpus(args.corpus)
    # open the report once the corpus is resolved, so a bad corpus leaves it
    # untouched and an unwritable path is refused before the sweep, but empty
    # it only once the sweep has finished; a sweep that stops removes a
    # report it created
    fresh = args.csv and not os.path.exists(args.csv)
    try:
        with open(args.csv, "a", encoding="ascii") if args.csv else contextlib.nullcontext() as fh:
            for g in graphs:
                rec = check_all(g)
                checked += 1
                if records is not None:
                    records.append(rec)
                if rec.violated():
                    violations += 1
                sys.stdout.write(rec.to_json() + "\n")
            if records is not None:
                fh.truncate(0)
                fh.write(records_to_csv(records))
    except BaseException:
        if fresh and os.path.exists(args.csv):
            os.remove(args.csv)
        raise
    sys.stderr.write(f"checked {checked} graphs, {violations} with violated verdicts\n")
    return 1 if violations else 0


def cmd_survey(args: argparse.Namespace) -> int:
    rec = survey_random(args.n, args.p, args.trials, args.seed)
    sys.stdout.write(rec.to_json() + "\n")
    return 0


def cmd_hunt(args: argparse.Namespace) -> int:
    hunter = HUNT_TARGETS[args.target]
    findings = hunter(_corpus(args.corpus))
    for f in findings:
        sys.stdout.write(f.to_json() + "\n")
    sys.stderr.write(f"{len(findings)} finding(s) for target {args.target}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monoconn",
        description="Monochromatic connectivity invariants: solvers, colorings, corpus checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute invariants of input graphs")
    p.add_argument("input", help="path to a graph6/edge-list file, or '-' for stdin")
    p.add_argument("--literal", action="store_true", help="treat INPUT as one literal graph6 string")
    p.add_argument("--invariant", choices=["tmc", "mc", "mvc", "l", "all"], default="all")
    p.add_argument("--witness", action="store_true", help="include witness colorings")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="verify a coloring JSON against a graph")
    p.add_argument("graph")
    p.add_argument("--literal", action="store_true")
    p.add_argument("--coloring", required=True, help="path to coloring JSON ('-' for stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="emit an extremal/lower-bound coloring")
    p.add_argument("--family", choices=["wheel", "multipartite", "tree", "complete"], required=True)
    p.add_argument("--order", type=int, help="order for wheel/complete")
    p.add_argument("--sizes", help="comma-separated class sizes for multipartite")
    p.add_argument("--graph", help="input graph for --family tree")
    p.add_argument("--literal", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="run every claim check over a corpus")
    p.add_argument(
        "--corpus", required=True, help="graph6 file, edge-list file, or builtin:N (1 <= N <= 6)"
    )
    p.add_argument("--csv", help="also write a CSV report to this path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("survey", help="random-graph identity survey")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("hunt", help="scan a corpus for open-question examples")
    p.add_argument("--target", choices=sorted(HUNT_TARGETS), required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_hunt)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, SolverRangeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
