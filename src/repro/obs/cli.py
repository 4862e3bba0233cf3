"""``python -m repro.obs`` — the observability command line.

Four subcommands:

``explain FILE GOAL``
    Evaluate ``GOAL`` over ``FILE`` on a provenance-recording tabled
    engine and print the derivation tree of every matching answer.
    With ``--groundness``, ``FILE`` is first abstract-compiled
    (Figure 1) and ``GOAL`` names a source predicate as ``name/arity``
    (or a call pattern like ``app(g,g,f)`` — ``g`` marks arguments
    ground at call); the trees then explain *why a groundness fact
    holds*.  With ``--failcheck``, ``GOAL`` is a ``name/arity``
    indicator (the witness the ``dead-predicate`` lint rows carry) and
    the output is the *failure proof*: the reduce-pass culprit chain
    or the empty depth-k abstract success set — or, for a live
    predicate, its abstract answers as counter-evidence.

``report OLD.json NEW.json``
    Diff two bench-emitter files; exit 1 when any row regressed past
    ``--threshold`` percent (time) / ``--space-threshold`` (bytes) /
    10 percent engine tasks (rows recording them on both sides) — or,
    with ``--p95-threshold``, when a latency histogram's p95 grew past
    it — 2 on malformed input.

``top HOST:PORT``
    One live snapshot of a running analysis daemon (a ``stats`` admin
    request over TCP): pool/breaker/in-flight state, request outcome
    tallies, latency percentiles, recent requests.  ``--watch N``
    refreshes every N seconds.

``tail LOG.jsonl``
    Pretty-print the daemon's structured access log, newest last;
    filter with ``--trace-id`` / ``--outcome``, raw lines with
    ``--json``.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_REGRESSIONS = 1
EXIT_USAGE = 2


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tools: answer provenance and "
        "perf-trajectory regression reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser(
        "explain", help="print derivation trees for tabled answers"
    )
    explain.add_argument("file", help="Prolog source file")
    explain.add_argument(
        "goal",
        help="goal to explain, e.g. 'path(a, X)'; with --groundness a "
        "predicate 'name/arity' or call pattern 'name(g,f)'",
    )
    explain.add_argument(
        "--groundness",
        action="store_true",
        help="abstract-compile first and explain gp$ groundness answers",
    )
    explain.add_argument(
        "--failcheck",
        action="store_true",
        help="render the failure proof for GOAL given as 'name/arity' "
        "(the witness of a dead-predicate lint diagnostic)",
    )
    explain.add_argument(
        "--depth",
        type=int,
        default=2,
        metavar="K",
        help="depth bound of the failcheck abstraction (default 2)",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit derivation trees as JSON instead of text",
    )
    explain.add_argument(
        "--max-answers",
        type=int,
        default=10,
        metavar="N",
        help="explain at most N matching answers (default 10)",
    )
    explain.add_argument(
        "--trace-out",
        metavar="PATH",
        help="also export the evaluation's JSONL trace to PATH",
    )

    report = sub.add_parser(
        "report", help="diff two BENCH_*.json files and flag regressions"
    )
    report.add_argument("old", help="baseline bench JSON")
    report.add_argument("new", help="candidate bench JSON")
    report.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="flag rows whose total time grew more than PCT%% (default 25)",
    )
    report.add_argument(
        "--space-threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="table-space growth threshold (default: same as --threshold)",
    )
    report.add_argument(
        "--p95-threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="flag latency histograms whose p95 grew more than PCT%% "
        "(default: off)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the diff as JSON instead of a table",
    )

    top = sub.add_parser(
        "top", help="live snapshot of a running analysis daemon"
    )
    top.add_argument("address", metavar="HOST:PORT",
                     help="TCP address of a running repro.serve daemon")
    top.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                     help="refresh every SECONDS (default: one snapshot)")
    top.add_argument("--recent", type=int, default=5, metavar="N",
                     help="show the N most recent requests (default 5)")
    top.add_argument("--json", action="store_true",
                     help="emit the raw stats payload as JSON")

    tail = sub.add_parser(
        "tail", help="pretty-print and filter a daemon access log"
    )
    tail.add_argument("log", metavar="LOG.jsonl",
                      help="the --access-log file a daemon is writing")
    tail.add_argument("--trace-id", metavar="ID",
                      help="show only the line(s) for this trace id")
    tail.add_argument("--outcome", choices=("ok", "degraded", "error"),
                      help="show only lines with this outcome")
    tail.add_argument("--limit", type=int, default=None, metavar="N",
                      help="show at most the last N matching lines")
    tail.add_argument("--json", action="store_true",
                      help="emit matching lines as raw JSONL")
    return parser


# ----------------------------------------------------------------------
# explain


def _parse_explain_goal(args, program):
    """The goal to evaluate and the goal to explain (may differ)."""
    from repro.core.groundness import gp_name
    from repro.prolog.lexer import PrologSyntaxError
    from repro.prolog.parser import parse_term
    from repro.prolog.program import open_goal
    from repro.terms.term import Struct, fresh_var

    if not args.groundness:
        try:
            return parse_term(args.goal), None
        except PrologSyntaxError as exc:
            raise SystemExit(f"cannot parse goal {args.goal!r}: {exc}")

    text = args.goal.strip()
    if "/" in text and "(" not in text:
        name, _, arity_text = text.partition("/")
        try:
            arity = int(arity_text)
        except ValueError:
            raise SystemExit(f"bad predicate indicator {text!r}")
        return open_goal(gp_name(name), arity), None
    try:
        pattern = parse_term(text)
    except PrologSyntaxError as exc:
        raise SystemExit(f"cannot parse goal {text!r}: {exc}")
    if isinstance(pattern, str):
        return gp_name(pattern), None
    args_abstract = tuple(
        "true" if a == "g" else fresh_var() for a in pattern.args
    )
    return Struct(gp_name(pattern.functor), args_abstract), None


def run_explain(args, out) -> int:
    import json as json_module

    from repro.core.groundness import abstract_program
    from repro.engine.tabling import TabledEngine
    from repro.obs.observer import Observer, use_observer
    from repro.obs.provenance import explain, render_derivation
    from repro.prolog.lexer import PrologSyntaxError
    from repro.prolog.program import load_program
    from repro.terms.term import term_to_str

    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"{args.file}: cannot read: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = load_program(source)
    except PrologSyntaxError as exc:
        print(f"{args.file}:{exc.line}: syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.failcheck:
        return _explain_failcheck(args, program, out)
    if args.groundness:
        program, _info = abstract_program(program)
    goal, _ = _parse_explain_goal(args, program)

    observer = Observer(provenance=True)
    with use_observer(observer):
        engine = TabledEngine(program, table_all=True)
        engine.solve(goal)
        trees = explain(engine, goal)

    if args.trace_out:
        observer.tracer.export_jsonl(args.trace_out)

    if not trees:
        print(f"no recorded answers match {term_to_str(goal)}", file=out)
        return EXIT_OK
    shown = trees[: args.max_answers]
    if args.json:
        print(
            json_module.dumps([t.to_dict() for t in shown], indent=2), file=out
        )
    else:
        print(
            f"{len(trees)} answer(s) match {term_to_str(goal)}"
            + (f"; showing {len(shown)}" if len(shown) < len(trees) else ""),
            file=out,
        )
        for tree in shown:
            print(file=out)
            print(render_derivation(tree), file=out)
    return EXIT_OK


def _explain_failcheck(args, program, out) -> int:
    """Render a failure proof (or counter-evidence) for one predicate.

    ``GOAL`` is a ``name/arity`` indicator — exactly the witness string
    the ``dead-predicate`` lint diagnostics carry — or a concrete query
    term, in which case the query-directed proof
    (:func:`repro.analysis.failcheck.prove_query_failure`) runs too.
    """
    from repro.analysis.failcheck import (
        failcheck_program,
        parse_indicator,
        prove_query_failure,
        render_failure,
    )
    from repro.prolog.lexer import PrologSyntaxError
    from repro.prolog.parser import parse_term
    from repro.terms.term import Struct

    text = args.goal.strip()
    indicator = None
    query = None
    if "/" in text and "(" not in text:
        indicator = parse_indicator(text)
        if indicator is None:
            print(f"bad predicate indicator {text!r}", file=sys.stderr)
            return EXIT_USAGE
    else:
        try:
            query = parse_term(text)
        except PrologSyntaxError as exc:
            print(f"cannot parse goal {text!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(query, Struct):
            indicator = query.indicator
        elif isinstance(query, str):
            indicator = (query, 0)
        else:
            print(f"not a callable goal: {text!r}", file=sys.stderr)
            return EXIT_USAGE

    report = failcheck_program(program, depth=args.depth)
    print(render_failure(program, report, indicator), file=out)
    if query is not None and not report.is_dead(indicator):
        proof = prove_query_failure(program, query, depth=args.depth)
        if proof is not None:
            print(proof.format(), file=out)
        else:
            print(
                f"no failure proof for query `{text}` (it may succeed)",
                file=out,
            )
    return EXIT_OK


# ----------------------------------------------------------------------
# report


def run_report(args, out) -> int:
    import json as json_module

    from repro.obs.bench import (
        BenchFormatError,
        diff_benches,
        format_report,
        load_bench_file,
    )

    try:
        old = load_bench_file(args.old)
        new = load_bench_file(args.new)
    except (OSError, ValueError, BenchFormatError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    diff = diff_benches(
        old, new, threshold_pct=args.threshold,
        space_threshold_pct=args.space_threshold,
        p95_threshold_pct=args.p95_threshold,
    )
    verdict = EXIT_REGRESSIONS if diff["regressions"] else EXIT_OK
    if args.json:
        text = json_module.dumps(diff, indent=2, sort_keys=True)
    else:
        text = format_report(diff)
    try:
        print(text, file=out, flush=True)
    except BrokenPipeError:
        # the reader stopped early (``report OLD NEW | head -1``): keep
        # the verdict, and point stdout at devnull so the interpreter's
        # final flush cannot fail and exit 120 instead
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return verdict


# ----------------------------------------------------------------------
# top / tail — live daemon telemetry


def daemon_request(host: str, port: int, data: dict,
                   timeout: float = 10.0) -> dict:
    """One JSONL request/reply round trip against a daemon TCP frontend."""
    import json as json_module
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write(json_module.dumps(data) + "\n")
        stream.flush()
        line = stream.readline()
    if not line:
        raise OSError("daemon closed the connection without a reply")
    return json_module.loads(line)


def _parse_address(text: str):
    host, _, port_text = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port_text)
    except ValueError:
        return None


def format_stats(stats: dict, recent: int = 5) -> str:
    """Human-readable daemon snapshot (the ``top`` display)."""
    metrics = stats.get("metrics") or {}
    counters = metrics.get("counters") or {}
    lines = [
        f"pool: size={stats.get('pool', {}).get('size')} "
        f"respawns={stats.get('pool', {}).get('respawns')}  "
        f"breaker: {stats.get('breaker')}  "
        f"inflight: {stats.get('inflight')}  "
        f"quarantined: {stats.get('quarantined')}  "
        f"tracing: {'on' if stats.get('tracing') else 'off'}",
        f"requests: {counters.get('serve.requests', 0)} "
        f"(ok={counters.get('serve.replies.ok', 0)} "
        f"degraded={counters.get('serve.replies.degraded', 0)} "
        f"error={counters.get('serve.replies.error', 0)} "
        f"shed={counters.get('serve.replies.shed', 0)})  "
        f"cache hits: {counters.get('serve.cache.hits', 0)}  "
        f"retries: {counters.get('serve.retries', 0)}",
        f"traces stored: {stats.get('traces', {}).get('stored')} "
        f"(evicted {stats.get('traces', {}).get('evicted')})  "
        f"access log: {stats.get('access_log', {}).get('logged')} line(s), "
        f"outcomes={stats.get('access_log', {}).get('outcomes')}",
    ]
    histogram = (metrics.get("histograms") or {}).get(
        "serve.request_latency_seconds")
    if histogram:
        lines.append(
            "latency: "
            + "  ".join(
                f"{q}={_latency_ms(histogram.get(q))}"
                for q in ("p50", "p95", "p99")
            )
            + f"  mean={_latency_ms(histogram.get('mean'))}"
            + f"  n={histogram.get('count')}"
        )
    entries = (stats.get("recent") or [])[-recent:]
    if entries:
        lines.append(f"last {len(entries)} request(s):")
        lines.extend("  " + format_access_entry(entry) for entry in entries)
    return "\n".join(lines)


def _latency_ms(seconds) -> str:
    return "n/a" if seconds is None else f"{seconds * 1000:.2f}ms"


def format_access_entry(entry: dict) -> str:
    """One access-log line, human-readable."""
    outcome = entry.get("outcome", "?")
    code = entry.get("code")
    phases = entry.get("phases") or {}
    phase_text = " ".join(
        f"{name}={seconds * 1000:.1f}ms"
        for name, seconds in sorted(phases.items()) if seconds
    )
    parts = [
        f"{entry.get('trace_id', '?'):32s}",
        f"{str(entry.get('task')):10s}",
        f"{outcome}{f'[{code}]' if code else ''}",
        f"{(entry.get('seconds') or 0) * 1000:8.1f}ms",
    ]
    if entry.get("cached"):
        parts.append("cached")
    if entry.get("attempts", 0) > 1:
        parts.append(f"attempts={entry['attempts']}")
    if phase_text:
        parts.append(phase_text)
    return " ".join(parts)


def run_top(args, out) -> int:
    import time as time_module

    address = _parse_address(args.address)
    if address is None:
        print(f"top expects HOST:PORT, got {args.address!r}", file=sys.stderr)
        return EXIT_USAGE
    host, port = address
    while True:
        try:
            reply = daemon_request(host, port, {
                "id": "obs-top", "task": "stats",
                "options": {"recent": max(args.recent, 0)},
            })
        except OSError as exc:
            print(f"top: cannot reach daemon at {host}:{port}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        if not reply.get("ok"):
            print(f"top: daemon refused stats: {reply.get('error')}",
                  file=sys.stderr)
            return EXIT_REGRESSIONS
        if args.json:
            import json as json_module

            print(json_module.dumps(reply["payload"], indent=2,
                                    sort_keys=True, default=str), file=out)
        else:
            print(format_stats(reply["payload"], recent=args.recent),
                  file=out)
        if args.watch is None:
            return EXIT_OK
        out.flush()
        time_module.sleep(max(args.watch, 0.1))
        print(file=out)


def run_tail(args, out) -> int:
    import json as json_module

    try:
        with open(args.log, encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        print(f"tail: cannot read {args.log}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    matched = []
    for number, line in enumerate(raw_lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json_module.loads(line)
        except json_module.JSONDecodeError:
            print(f"tail: {args.log}:{number}: not valid JSON, skipped",
                  file=sys.stderr)
            continue
        if args.trace_id and entry.get("trace_id") != args.trace_id:
            continue
        if args.outcome and entry.get("outcome") != args.outcome:
            continue
        matched.append(entry)
    if args.limit is not None:
        matched = matched[-max(args.limit, 0):]
    for entry in matched:
        if args.json:
            print(json_module.dumps(entry, sort_keys=True, default=str),
                  file=out)
        else:
            print(format_access_entry(entry), file=out)
    return EXIT_OK


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_arg_parser().parse_args(argv)
    if args.command == "explain":
        return run_explain(args, out)
    if args.command == "top":
        return run_top(args, out)
    if args.command == "tail":
        return run_tail(args, out)
    return run_report(args, out)
