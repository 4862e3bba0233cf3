"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload groundness-t1 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (host-normalised, see
``gauge.py``); ``--trace 1`` is a separate traced run that wraps the
program's public functions in spans and reports per-layer metrics,
writing its spans to ``perfbench/out/``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit
status is 0 when the run completed, whatever its checks found.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import gauge
from common import END_TO_END, OUT, PER_LAYER, ROOT, WORKLOADS, peak_rss_mb

#: gauge samples at process start, before the ticks begin
START_SAMPLES = 3
#: exponent on the host speed when set-up is normalised.  Set-up (mostly
#: compiling and importing modules) slows by about the square root of
#: what the kernel slows by: the slope of log set-up CPU time against log
#: kernel CPU time was 0.45-0.59 in four samples of 30-60 set-ups, and
#: the full speed ratio over-corrected (spreads of 10-20% against 6-10%).
SETUP_SPEED_EXPONENT = 0.5

#: span name -> per-layer time metric it feeds (self time)
SPAN_LAYERS = {
    "prolog.parse": "prolog.parse_s",
    "funlang.parse": "funlang.parse_s",
    "core.groundness.compile": "core.groundness.compile_s",
    "core.strictness.compile": "core.strictness.compile_s",
    "magic.supptab": "magic.supptab_s",
    "core.depthk.compile": "core.depthk.compile_s",
    "engine.clausedb.build": "engine.clausedb.build_s",
    "engine.tabling.solve": "engine.tabling.solve_s",
    "bdd.from_answers": "bdd.from_answers_s",
}

#: compile-phase spans, compared with ``result.times["preprocess"]``
COMPILE_SPANS = (
    "core.groundness.compile", "core.strictness.compile", "magic.supptab",
    "core.depthk.compile", "engine.clausedb.build",
)
#: the traced-run cross-check tolerance: relative, plus an absolute slack
#: for the microseconds of bookkeeping between the phase clocks and spans
CROSS_CHECK_REL = 0.10
CROSS_CHECK_ABS_S = 0.003


class Run:
    """State shared by a run: arguments, the gauge, and the set-up clock."""

    def __init__(self, args, speed: gauge.SpeedGauge):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.gauge = speed

    def setup_seconds(self, end_index: int) -> float:
        """Normalised set-up time, from process start to the sample ``end_index``.

        Set-up is charged the CPU time of this process and its children
        (the daemon's worker), less the gauge's own samples, scaled by the
        speed the kernel's CPU time showed over those samples, raised to
        :data:`SETUP_SPEED_EXPONENT`.  Time the host gave to other
        processes and time spent waiting are left out: a short set-up has
        too few samples to see either.
        """
        samples_cpu = sum(sample[4] for sample in self.gauge.samples[:end_index + 1])
        cpu = gauge.tree_cpu_seconds() - samples_cpu
        return cpu * self.gauge.cpu_speed(0, end_index) ** SETUP_SPEED_EXPONENT

    def span_file(self) -> Path:
        OUT.mkdir(exist_ok=True)
        return OUT / f"spans-{self.workload}-seed{self.seed}.jsonl"


# ----------------------------------------------------------------------
# the paper-table workloads


def run_analysis(run: Run) -> dict:
    import analysis

    workload = analysis.WORKLOADS[run.workload](run.seed)
    recorder = None
    if run.trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

        def traced_unit(index):
            program = workload.parse(workload.sources[index])
            with recorder.span("analysis.run"):
                return program, workload.analyse(program)
    measure = run.gauge.measure
    setup_end = run.gauge.sample()
    setup_s = run.setup_seconds(setup_end)
    deadline = time.perf_counter() + run.seconds

    first_pass: list = []     # (name, program, result) of pass 1, for the checks
    digests: list = []        # per pass: digest of every unit's result
    pass_times: list = []     # per pass: normalised seconds
    unit_times: list = []     # every unit: normalised seconds
    paired = [0.0, 0.0]       # traced / untraced normalised time of twinned units
    degradations = 0
    while True:
        digest, pass_time = [], 0.0
        for index, name in enumerate(workload.names):
            if recorder is not None:
                recorder.group = f"pass{len(digests) + 1}:{name}"
            unit = traced_unit if recorder is not None else workload.unit
            (program, result), _, seconds = measure(lambda: unit(index))
            pass_time += seconds
            unit_times.append(seconds)
            degradations += len(result.events)
            digest.append(workload.digest(result))
            if not digests:
                first_pass.append((name, program, result))
            if recorder is not None:
                recorder.uninstall()
                _, _, twin = measure(lambda: workload.unit(index))
                recorder.install()
                paired[0] += seconds
                paired[1] += twin
        digests.append(digest)
        pass_times.append(pass_time)
        if time.perf_counter() >= deadline:
            break
    peak = peak_rss_mb()
    if recorder is not None:
        recorder.uninstall()

    problems, failed_programs = [], set()
    for (name, program, result) in first_pass:
        found, counts = workload.check(name, program, result)
        if found and workload.known_fault(found, counts):
            failed_programs.add(name)
        else:
            problems.extend(f"{name}: {p}" for p in found)
    for number, digest in enumerate(digests[1:], start=2):
        for name, a, b in zip(workload.names, digests[0], digest):
            if a != b:
                problems.append(f"{name}: pass {number} differs from pass 1")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    passes = len(pass_times)
    report = {
        "correct": not problems,
        "attempted": passes * len(workload.names),
        "failed": passes * len(failed_programs),
    }
    if recorder is None:
        report["metrics"] = {
            "setup_s": setup_s,
            "pass_s": statistics.median(pass_times),
            "peak_rss_mb": peak,
            "requests_per_s": len(unit_times) / sum(unit_times),
        }
        return report

    recorder.write_jsonl(run.span_file())
    cross = cross_check(recorder, first_pass)
    if cross:
        report["correct"] = False
        for problem in cross:
            print(f"CROSS-CHECK FAILED {problem}", file=sys.stderr)
    layers = layer_metrics(recorder, passes, sum(pass_times))
    layers["runtime.degradations"] = degradations / passes
    layers["trace.overhead_pct"] = 100 * (paired[0] / paired[1] - 1) if paired[1] else 0.0
    report["metrics"] = layers
    return report


def layer_metrics(recorder, passes: int, normalised_total: float) -> dict:
    """Per-pass layer figures from the spans of the traced passes."""
    from repro.bdd.propfn import global_manager

    spans = recorder.spans
    traced_total = sum(
        s["end"] - s["start"] for s in spans if s["parent"] is None
    )
    # spans are raw wall time; scale them by the run's normalisation
    factor = normalised_total / traced_total if traced_total else 1.0
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, seconds in recorder.self_times().items():
        if name in SPAN_LAYERS:
            metrics[SPAN_LAYERS[name]] += seconds * factor / passes
    solves = [s for s in spans if s["name"] == "engine.tabling.solve"]
    for counter in ("tasks", "tables", "answers", "duplicate_answers", "resumptions"):
        metrics[f"engine.tabling.{counter}"] = sum(s[counter] for s in solves) / passes
    metrics["engine.tabling.solves"] = len(solves) / passes
    metrics["engine.tabling.table_space_kb"] = (
        sum(s["table_bytes"] for s in solves) / 1024 / passes
    )
    produced = metrics["engine.tabling.answers"] + metrics["engine.tabling.duplicate_answers"]
    metrics["engine.tabling.answer_yield"] = (
        metrics["engine.tabling.answers"] / produced if produced else 0.0
    )
    manager = global_manager()
    lookups = manager.apply_cache_hits + manager.apply_cache_misses
    metrics["bdd.nodes"] = manager.node_count()
    metrics["bdd.apply_cache_hit_ratio"] = (
        manager.apply_cache_hits / lookups if lookups else 0.0
    )
    return metrics


def cross_check(recorder, first_pass) -> list[str]:
    """Span totals against each program's own phase clocks (pass 1).

    Compilation spans must agree with ``times["preprocess"]`` and
    ``TabledEngine.solve`` spans with ``times["analysis"]``, within
    :data:`CROSS_CHECK_REL` plus :data:`CROSS_CHECK_ABS_S`.  The stretch
    from the last solve to the end of the analysis call must contain
    ``times["collection"]``; it is longer by the freeing of the tables
    when the call returns, which no phase clock covers.
    """
    groups = recorder.by_group()
    problems = []

    def disagree(spanned, clocked):
        return abs(spanned - clocked) > CROSS_CHECK_REL * max(spanned, clocked) + CROSS_CHECK_ABS_S

    for name, _, result in first_pass:
        spans = groups.get(f"pass1:{name}", [])
        (outer,) = [s for s in spans if s["name"] == "analysis.run"]
        inner = [s for s in spans if s["parent"] == outer["id"]]
        solves = [s for s in inner if s["name"] == "engine.tabling.solve"]
        figures = {
            "preprocess": sum(
                s["end"] - s["start"] for s in inner if s["name"] in COMPILE_SPANS
            ),
            "analysis": sum(s["end"] - s["start"] for s in solves),
        }
        for phase, spanned in figures.items():
            if disagree(spanned, result.times[phase]):
                problems.append(
                    f"{name} {phase}: spans {spanned:.4f}s, "
                    f"phase clock {result.times[phase]:.4f}s"
                )
        after_solves = outer["end"] - max(s["end"] for s in solves)
        if after_solves + CROSS_CHECK_ABS_S < result.times["collection"]:
            problems.append(
                f"{name} collection: {after_solves:.4f}s after the last solve, "
                f"phase clock {result.times['collection']:.4f}s"
            )
    return problems


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwind, so that the daemon's worker is stopped on the way out: a
    # worker whose daemon exits without closing the pool waits forever
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    speed = gauge.SpeedGauge()
    for _ in range(START_SAMPLES):
        speed.sample()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    gauge.pin_to_one_cpu()
    signal.signal(signal.SIGTERM, _terminate)
    speed.start_ticking()
    try:
        run = Run(args, speed)
        if args.workload == "serve-edits":
            import serve_edits

            report = serve_edits.run_serve(run)
        else:
            report = run_analysis(run)
    finally:
        speed.stop_ticking()
    names = PER_LAYER if run.trace else END_TO_END
    report["metrics"] = {
        name: {"value": report["metrics"][name], "unit": unit}
        for name, unit in names.items()
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
