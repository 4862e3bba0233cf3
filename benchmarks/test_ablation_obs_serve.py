"""E14 — daemon telemetry-overhead ablation.

The distributed-tracing layer promises that per-request telemetry
(request/cache/dispatch spans, trace stitching, the access-log line,
the latency histogram sample) costs a small constant on the daemon's
hot path.  The cheapest requests the daemon serves are warm cache hits
— no pool round-trip, no worker — so they put the *largest* relative
telemetry cost under the microscope: two otherwise-identical daemons
(``tracing=True`` vs ``tracing=False``) serve the same warmed corpus
in :data:`WARM_ROUNDS` rounds.  In each round the two daemons answer
every file back to back, taking turns at going first, so each traced
request is paired with a plain one a few milliseconds apart.  A
sweep's overhead is the median extra time of a traced request, per
file, summed over the corpus: pairing cancels the load drift of a busy
host, which can halve or double whole sweeps, and the median drops the
pairs a preemption split.

``overhead_pct`` lands in ``extra_info`` and in the
``BENCH_tableobsserve.json`` rows so the trajectory of the overhead is
tracked across runs; the traced daemon's registry snapshot (including
the ``serve.request_latency_seconds`` histogram) is folded into the
session registry, which is what lets ``python -m repro.obs report
--p95-threshold`` gate tail-latency regressions against the committed
baseline.  The hard assertion here is deliberately generous (25%,
against a ~5% target) — CI machines are noisy and the trajectory file
is the real instrument.
"""

import statistics
import time
from pathlib import Path

import pytest

import repro.benchdata as benchdata
from repro.serve import AnalysisDaemon, check_reply

CORPUS_DIR = Path(benchdata.__file__).parent / "prolog"

ROUNDS = 3
#: rounds of paired warm hits per file in the tracing-overhead check
WARM_ROUNDS = 25


def _corpus_paths():
    return sorted(str(p) for p in CORPUS_DIR.glob("*.pl"))


def _lines(paths):
    return sum(len(Path(p).read_text().splitlines()) for p in paths)


def _row(name, lines, seconds, extra):
    return {
        "name": name,
        "lines": lines,
        "preprocess": 0.0,
        "analysis": seconds,
        "collection": 0.0,
        "total": seconds,
        "table_space": 0,
        "extra": extra,
    }


def _warm(daemon, paths, base_id):
    for index, path in enumerate(paths):
        reply = daemon.handle({"id": base_id + index, "task": "groundness",
                               "path": path, "deadline": 60})
        assert check_reply(reply) == "ok"


def _hit(daemon, path, request_id):
    """Seconds to serve one warmed request, which must hit the cache."""
    started = time.perf_counter()
    reply = daemon.handle({"id": request_id, "task": "groundness",
                           "path": path, "deadline": 60})
    elapsed = time.perf_counter() - started
    assert check_reply(reply) == "ok"
    assert reply["cached"]
    assert reply["trace_id"]
    return elapsed


@pytest.mark.table("obsserve")
def test_daemon_tracing_overhead_on_warm_cache(benchmark, bench_observer,
                                               bench_record):
    paths = _corpus_paths()
    lines = _lines(paths)
    # per file: the plain hit's seconds, and the traced hit's extra seconds
    plain_times = {path: [] for path in paths}
    extra_times = {path: [] for path in paths}
    with AnalysisDaemon(pool_size=2, queue_limit=16, tracing=True) as traced, \
            AnalysisDaemon(pool_size=2, queue_limit=16,
                           tracing=False) as plain:
        _warm(traced, paths, base_id=0)
        _warm(plain, paths, base_id=0)

        def interleaved():
            for round_index in range(WARM_ROUNDS):
                for index, path in enumerate(paths):
                    request_id = 1000 * (round_index + 1) + index
                    if (round_index + index) % 2 == 0:
                        off = _hit(plain, path, request_id)
                        on = _hit(traced, path, request_id)
                    else:
                        on = _hit(traced, path, request_id)
                        off = _hit(plain, path, request_id)
                    plain_times[path].append(off)
                    extra_times[path].append(on - off)
            return extra_times

        benchmark.pedantic(interleaved, rounds=1, iterations=1)
        # warm hits still leave full telemetry behind on the traced side
        assert len(traced.traces) > 0
        assert len(traced.access_log) >= len(paths) * (WARM_ROUNDS + 1)
        assert len(plain.traces) == 0
        # fold the traced daemon's metrics (histograms included) into
        # the session registry so the BENCH file carries the latency
        # shape the report's --p95-threshold gate compares
        bench_observer.registry.merge_snapshot(
            traced.observer.registry.snapshot())
    t_off = sum(statistics.median(times) for times in plain_times.values())
    t_on = t_off + sum(
        statistics.median(times) for times in extra_times.values())
    overhead_pct = 100.0 * (t_on - t_off) / t_off if t_off else 0.0
    requests = len(paths)
    benchmark.extra_info.update({
        "tracing_on_ms": round(t_on * 1000, 3),
        "tracing_off_ms": round(t_off * 1000, 3),
        "overhead_pct": round(overhead_pct, 2),
        "requests_per_sweep": requests,
    })
    bench_record("obsserve", _row(
        "warm_tracing_on", lines, t_on,
        {"requests": requests, "rounds": WARM_ROUNDS,
         "per_request_ms": round(t_on * 1000 / requests, 4),
         "overhead_pct": round(overhead_pct, 2)},
    ))
    bench_record("obsserve", _row(
        "warm_tracing_off", lines, t_off,
        {"requests": requests, "rounds": WARM_ROUNDS,
         "per_request_ms": round(t_off * 1000 / requests, 4)},
    ))
    # generous bound: the target is ~5%, but CI timing noise on
    # sub-millisecond cache hits makes a tight gate flaky — the BENCH
    # trajectory is the precise instrument
    assert overhead_pct < 25.0, (
        f"tracing overhead {overhead_pct:.1f}% on warm-cache requests"
    )


@pytest.mark.table("obsserve")
def test_daemon_stitched_trace_cost(benchmark, bench_record):
    """One cold traced request end to end: spans shipped, stitched, stored."""
    path = str(CORPUS_DIR / "qsort.pl")
    lines = _lines([path])
    samples = []
    span_counts = []
    with AnalysisDaemon(pool_size=1, queue_limit=4) as daemon:
        def cold_traced(index):
            started = time.perf_counter()
            reply = daemon.handle({
                "id": index, "task": "groundness", "path": path,
                "deadline": 60, "options": {"uncache": index},
            })
            elapsed = time.perf_counter() - started
            assert check_reply(reply) == "ok"
            assert not reply["cached"]
            spans = daemon.traces.get(reply["trace_id"])
            assert spans, "traced request left no stitched trace"
            span_counts.append(len(spans))
            return elapsed

        def run():
            for index in range(ROUNDS):
                samples.append(cold_traced(index))
            return samples

        benchmark.pedantic(run, rounds=1, iterations=1)
    t_med = statistics.median(samples)
    benchmark.extra_info.update({
        "cold_traced_ms": round(t_med * 1000, 2),
        "spans_per_trace": span_counts[0],
    })
    bench_record("obsserve", _row(
        "cold_traced_request", lines, t_med,
        {"requests": len(samples), "spans_per_trace": span_counts[0]},
    ))
    # worker spans crossed the pickle boundary into the stitched trace
    assert span_counts[0] >= 4
