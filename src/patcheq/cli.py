"""Command-line interface: summarize, check, impact, corpus.

Options follow the subcommand and may also come from PATCHEQ_ environment
variables (PATCHEQ_SOLVER_CMD, PATCHEQ_QUERY_TIMEOUT_MS, PATCHEQ_BUDGET_MS,
PATCHEQ_ALGORITHM, PATCHEQ_DEPTH_LIMIT, PATCHEQ_FORMAT, PATCHEQ_JOBS,
PATCHEQ_STABLE, PATCHEQ_PERCENT_PLACES).  Exit status: 0 success, 1 expectation or analysis failure,
2 infrastructure error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from .classifier import Verdict, eq_check
from .formula import pretty, serialize
from .minilang import MiniLangError
from .oracle import (
    Budget, SolverConfig, SolverConfigError, default_solver_command, split_command,
)
from .rangesearch import RangeSearch
from .report import (
    ALL_METHODS, AnalysisError, ImpactReport, ManifestError, analyze_pair,
    check_expectations, fraction_decimal, load_case, load_function, load_pair,
    summarize_function,
)
from .summarizer import DEFAULT_UNROLL_LIMIT

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INFRA = 2


def _env(name: str, default):
    return os.environ.get(f"PATCHEQ_{name}", default)


def _at_least(lo: int, what: str):
    """An argparse type: an int no less than ``lo``, called ``what`` when it is."""

    def parse(text: str) -> int:
        if int(text) < lo:
            below = "negative" if lo == 0 else f"below {lo}"
            raise argparse.ArgumentTypeError(f"{what} {text} is {below}")
        return int(text)

    parse.__name__ = "int"  # argparse's "invalid int value" for text that is no int
    return parse


class _AfterSubcommand(argparse.Action):
    """A common flag given before the subcommand, where none is read."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} must come after the subcommand: "
                     f"patcheq COMMAND {option_string} ...")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--solver-cmd", default=_env("SOLVER_CMD", None),
                        help="solver command line (default: z3 -in if present, else bundled)")
    common.add_argument("--query-timeout-ms", type=int,
                        default=_env("QUERY_TIMEOUT_MS", "10000"))
    common.add_argument("--budget-ms", type=int, default=_env("BUDGET_MS", "120000"))
    common.add_argument("--depth-limit", type=_at_least(0, "depth limit"),
                        default=_env("DEPTH_LIMIT", None),
                        help="range-search depth limit (default 8 single-var, 4 multi-var)")
    common.add_argument("--algorithm", choices=ALL_METHODS,
                        default=_env("ALGORITHM", None))
    common.add_argument("--format", choices=("json", "text"),
                        default=_env("FORMAT", "text"))
    common.add_argument("--jobs", type=_at_least(1, "jobs"), default=_env("JOBS", "1"))
    common.add_argument("--stable", action="store_true",
                        default=str(_env("STABLE", "")).lower() in ("1", "true"),
                        help="omit timing fields for byte-identical reports")
    common.add_argument("--unroll-limit", type=_at_least(1, "unroll limit"),
                        default=DEFAULT_UNROLL_LIMIT)
    common.add_argument("--percent-places", type=_at_least(0, "percent places"),
                        default=_env("PERCENT_PLACES", "2"),
                        help="decimal places for rendered percentages")

    parser = argparse.ArgumentParser(
        prog="patcheq",
        description="Quantitative patch impact analysis for numeric programs.",
    )
    for action in common._actions:
        parser.add_argument(*action.option_strings, action=_AfterSubcommand, nargs="?",
                            default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", parents=[common],
                           help="print a function's symbolic summary")
    p_sum.add_argument("file")

    p_check = sub.add_parser("check", parents=[common],
                             help="classify a pair: equivalent / total / partial")
    p_check.add_argument("original")
    p_check.add_argument("patched")

    p_impact = sub.add_parser("impact", parents=[common],
                              help="quantify the patch impact surface of a pair")
    p_impact.add_argument("original")
    p_impact.add_argument("patched")

    p_corpus = sub.add_parser("corpus", parents=[common],
                              help="run every .case manifest in a directory")
    p_corpus.add_argument("directory")
    return parser


def make_config(args) -> SolverConfig:
    return SolverConfig(
        solver_cmd=split_command(args.solver_cmd) if args.solver_cmd else default_solver_command(),
        query_timeout_ms=args.query_timeout_ms,
        budget_ms=args.budget_ms,
    )


def cmd_summarize(args, cfg) -> int:
    fn = load_function(args.file)
    summary = summarize_function(fn, args.unroll_limit)
    if args.format == "json":
        print(json.dumps({
            "function": fn.name,
            "path_count": summary.path_count,
            "inputs": [v.name for v in summary.inputs],
            "output": summary.output.name,
            "smtlib": serialize(summary.decls, summary.formula),
        }, indent=2, sort_keys=True))
    else:
        print(f"function {fn.name}: {summary.path_count} path(s)")
        print(serialize(summary.decls, summary.formula), end="")
    return EXIT_OK


def cmd_check(args, cfg) -> int:
    budget = Budget(cfg.budget_ms)
    s1, s2 = load_pair(args.original, args.patched, args.unroll_limit, budget)
    with RangeSearch(s1, s2, cfg, budget) as search:
        result = eq_check(s1, s2, cfg, search=search)
    if args.format == "json":
        print(json.dumps({
            "verdict": result.kind.value,
            "witness": result.witness,
            "solver_calls": result.solver_calls,
        }, indent=2, sort_keys=True))
    else:
        print(f"verdict: {result.kind.value}")
        if result.witness:
            print(f"diverging input: {result.witness}")
    if result.kind is Verdict.UNKNOWN:
        return EXIT_FAILED
    return EXIT_OK


def _impact_text(report: ImpactReport, places: int = 2) -> str:
    """Impact percentage with the diverging-input count, which rounding cannot hide."""
    diverging = report.domain_size - report.eq_lower_bound
    impact = fraction_decimal(report.impact_percent, places, report.toward(1))
    return (f"{'=' if report.exact else '<='} {impact}%"
            f" ({diverging} of {report.domain_size} inputs)")


def _render_text(report: ImpactReport, places: int = 2) -> str:
    lines = [
        f"pair:        {report.name}",
        f"verdict:     {report.verdict.value}",
        f"algorithm:   {report.method}",
        f"eq count:    {'=' if report.exact else '>='} {report.eq_lower_bound} of {report.domain_size}",
        f"eq percent:  {'=' if report.exact else '>='} "
        f"{fraction_decimal(report.eq_percent, places, report.toward(-1))}",
        f"impact:      {_impact_text(report, places)}",
        f"condition:   {pretty(report.condition)}",
        f"impact cond: {pretty(report.impact_condition)}",
        f"solver calls: {report.solver_calls}",
    ]
    if report.witness:
        lines.insert(2, f"witness:     {report.witness}")
    if report.enum_case is not None:
        lines.append(f"enum case:   {report.enum_case.name.lower()}"
                     f" (eq inputs {report.eq_model_count},"
                     f" neq inputs {report.neq_model_count})")
    if report.incomplete:
        lines.append("incomplete:  budget or timeout cut the analysis short")
    return "\n".join(lines)


def cmd_impact(args, cfg) -> int:
    method = args.algorithm or "combined"
    report = analyze_pair(
        Path(args.original).stem, args.original, args.patched, method, cfg,
        depth_limit=args.depth_limit,
        unroll_limit=args.unroll_limit,
    )
    if args.format == "json":
        print(json.dumps(report.to_json(stable=args.stable, places=args.percent_places),
                         indent=2, sort_keys=True))
    else:
        print(_render_text(report, args.percent_places))
    return EXIT_OK if report.verdict is not Verdict.UNKNOWN else EXIT_FAILED


def cmd_corpus(args, cfg) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    manifests = sorted(directory.rglob("*.case"))
    if not manifests:
        raise FileNotFoundError(f"no *.case manifest under {directory}")
    cases = [load_case(m) for m in manifests]
    results: list[tuple] = [None] * len(cases)

    def run_one(index: int):
        case = cases[index]
        method = args.algorithm or case.method
        depth = case.depth_limit if args.depth_limit is None else args.depth_limit
        try:
            report = analyze_pair(case.name, case.original, case.patched, method,
                                  cfg, depth_limit=depth, unroll_limit=args.unroll_limit)
            failures = check_expectations(case, report, bool(args.algorithm))
        except (AnalysisError, MiniLangError) as err:
            report = None
            failures = [f"error: {err}"]
        results[index] = (case, report, failures)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            list(pool.map(run_one, range(len(cases))))
    else:
        for i in range(len(cases)):
            run_one(i)

    verdict_counts: dict[str, int] = {}
    impacts: list[Fraction] = []
    failed = 0
    for case, report, failures in results:
        if report is not None:
            verdict_counts[report.verdict.name] = verdict_counts.get(report.verdict.name, 0) + 1
            if report.verdict in (Verdict.P_EQ, Verdict.T_EQ, Verdict.T_NEQ):
                impacts.append(report.impact_percent)
        if failures:
            failed += 1

    mean_impact = sum(impacts, Fraction(0)) / len(impacts) if impacts else Fraction(0)
    if args.format == "json":
        print(json.dumps({
            "cases": [
                {
                    "name": case.name,
                    "ok": not failures,
                    "failures": failures,
                    "report": report.to_json(stable=args.stable, places=args.percent_places)
                    if report else None,
                }
                for case, report, failures in results
            ],
            "aggregate": {
                "total": len(results),
                "failed": failed,
                "verdicts": verdict_counts,
                "mean_impact_percent": fraction_decimal(mean_impact, args.percent_places),
            },
        }, indent=2, sort_keys=True))
    else:
        name_w = max([len(c.name) for c, _, _ in results] + [4])
        impacts_text = [_impact_text(report, args.percent_places) if report else "-"
                        for _, report, _ in results]
        impact_w = max([len(text) for text in impacts_text] + [6])
        print(f"{'case'.ljust(name_w)}  {'verdict'.ljust(24)}  {'impact'.ljust(impact_w)}  status")
        for (case, report, failures), impact in zip(results, impacts_text):
            verdict = report.verdict.value if report else "error"
            status = "ok" if not failures else "; ".join(failures)
            print(f"{case.name.ljust(name_w)}  {verdict.ljust(24)}  {impact.ljust(impact_w)}  {status}")
        print(f"\n{len(results)} case(s), {failed} failed; verdicts {verdict_counts}; "
              f"mean impact {fraction_decimal(mean_impact, args.percent_places)}%")
    return EXIT_FAILED if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
    except SolverConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_INFRA
    handlers = {
        "summarize": cmd_summarize,
        "check": cmd_check,
        "impact": cmd_impact,
        "corpus": cmd_corpus,
    }
    try:
        return handlers[args.command](args, cfg)
    except (AnalysisError, ManifestError, MiniLangError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILED if isinstance(err, AnalysisError) else EXIT_INFRA
    except (SolverConfigError, OSError) as err:  # a missing or unreadable path, too
        print(f"infrastructure error: {err}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
