"""Command line front end for anytime analysis under resource budgets.

``python -m repro.runtime FILE [FILE ...] [--analysis NAME] [--deadline S]
[--max-tasks N] [--max-answers N] [--table-bytes N] [--depth K]
[--no-degrade]``

Runs the chosen analysis under the requested budget.  When a budget
trips, the driver walks the degradation ladder (widen -> reduce-k ->
all-top) and the report is marked with the completeness stage that
produced it; ``--no-degrade`` turns the ladder off, so a trip exits
with status 3 instead.  ``.eq`` files get the strictness analysis by
default; everything else gets groundness.
"""

from __future__ import annotations

import argparse
import sys

from repro.runtime.budget import Budget, ResourceExhausted

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Anytime program analysis under resource budgets: "
        "groundness/depth-k for Prolog sources, strictness for .eq "
        "functional sources.  Budget trips degrade gracefully to a "
        "sound, less precise result unless --no-degrade is given.",
    )
    parser.add_argument("files", nargs="+", help="source files (.pl or .eq)")
    parser.add_argument(
        "--analysis",
        "-a",
        choices=["auto", "groundness", "depthk", "strictness"],
        default="auto",
        help="analysis to run (default: by file extension)",
    )
    parser.add_argument("--deadline", type=float, metavar="SECONDS",
                        help="wall-clock budget")
    parser.add_argument("--max-tasks", type=int, metavar="N",
                        help="tabled-engine task budget")
    parser.add_argument("--max-answers", type=int, metavar="N",
                        help="total recorded-answer budget")
    parser.add_argument("--table-bytes", type=int, metavar="N",
                        help="table-space byte cap")
    parser.add_argument("--depth", "-k", type=int, default=2, metavar="K",
                        help="depth bound for depthk (default 2)")
    parser.add_argument("--no-degrade", action="store_true",
                        help="fail on budget trip instead of degrading")
    return parser


def _pick_analysis(requested: str, path: str) -> str:
    if requested != "auto":
        return requested
    return "strictness" if path.endswith(".eq") else "groundness"


def _budget(args) -> Budget | None:
    limits = {
        "deadline": args.deadline,
        "tasks": args.max_tasks,
        "answers": args.max_answers,
        "table_bytes": args.table_bytes,
    }
    if all(v is None for v in limits.values()):
        return None
    return Budget(**limits)


def _report_header(path: str, analysis: str, result, out) -> None:
    line = f"{path}: {analysis}: completeness={result.completeness}"
    if getattr(result, "effective_depth", None) is not None:
        line += f" effective-depth={result.effective_depth}"
    line += f" table-space={result.table_space}B"
    print(line, file=out)
    for event in result.events:
        print(f"  degraded after {event.stage}: {event.kind} "
              f"(spent {event.spent} of {event.limit})", file=out)


def _describe(analysis: str, result, pred) -> str:
    """One predicate's groundness or depth-k report; a predicate the
    entry goals do not reach
    (:meth:`~repro.runtime.degrade.AnalysisResult.reached`) gets none."""
    if not result.reached(pred):
        return "not reached"
    succ = "".join("g" if g else "?" for g in pred.ground_on_success)
    if analysis == "depthk":
        return f"ground-on-success={succ} shapes={len(pred.answers)}"
    call = "".join("g" if g else "?" for g in pred.ground_at_call)
    return f"ground-on-success={succ} ground-at-call={call}"


def _run_one(path: str, analysis: str, args, out) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"{path}: cannot read: {exc}", file=out)
        return EXIT_USAGE
    budget = _budget(args)
    degrade = not args.no_degrade
    try:
        if analysis == "strictness":
            from repro.core.strictness import analyze_strictness
            from repro.funlang.parser import parse_fun_program

            result = analyze_strictness(
                parse_fun_program(source), budget=budget, degrade=degrade
            )
            _report_header(path, analysis, result, out)
            for (name, arity), fn in sorted(result.functions.items()):
                strict = [str(i) for i in range(arity) if fn.is_strict(i)]
                print(f"  {name}/{arity}: strict in "
                      f"{{{', '.join(strict) or '-'}}} "
                      f"e-demands={''.join(fn.demand_e)} "
                      f"d-demands={''.join(fn.demand_d)}", file=out)
        else:
            from repro.prolog.program import load_program

            program = load_program(source)
            if analysis == "depthk":
                from repro.core.depthk import analyze_depthk

                result = analyze_depthk(
                    program, depth=args.depth, budget=budget, degrade=degrade
                )
            else:
                from repro.core.groundness import analyze_groundness

                result = analyze_groundness(program, budget=budget, degrade=degrade)
            _report_header(path, analysis, result, out)
            for (name, arity), pred in sorted(result.predicates.items()):
                print(f"  {name}/{arity}: {_describe(analysis, result, pred)}",
                      file=out)
    except ResourceExhausted as exc:
        print(f"{path}: resource exhausted: {exc}", file=out)
        return EXIT_EXHAUSTED
    except Exception as exc:  # parse errors etc.
        print(f"{path}: {type(exc).__name__}: {exc}", file=out)
        return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_arg_parser().parse_args(argv)
    exit_code = EXIT_OK
    for path in args.files:
        analysis = _pick_analysis(args.analysis, path)
        code = _run_one(path, analysis, args, out)
        if code != EXIT_OK:
            exit_code = code
    return exit_code
