"""The ``serve-edits`` workload: one closed-loop client against the daemon.

The client is a lint-on-save caller: it writes a file, sends one
``lint`` request for it to :class:`repro.serve.AnalysisDaemon` and waits
for the reply before the next save.  The daemon runs with one worker
process and a summary store in a fresh directory.  First a *cold pass*
lints every file of the generated corpus once against the empty store
(:data:`COLD_PASSES` of them, each against a daemon of its own);
then one unmeasured warm-up round, then the seeded stream of
:mod:`corpus.generate` runs whole blocks of rounds until the requested
time is used and at least :data:`MIN_EDITS` requests that follow a real
edit have been served.

The daemon and its worker are pinned to one CPU (``run.py``), so the
gauge's samples, taken in the daemon's main thread while it waits for
the worker, measure the CPU the worker runs on.  A request is charged
the CPU time of the daemon, its worker and their descendants (see
:meth:`Client.batch`); time a request spends blocked is not charged,
and shows only in the per-layer ``serve.wall_requests_per_s``.

The stream's mix of request kinds is an assumption (see
:mod:`corpus.generate`), so ``requests_per_s`` is the geometric mean of
the per-kind rates: the share of a kind in the stream does not weight it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import time

from common import OUT, PER_LAYER, peak_rss_mb
from corpus import generate
from gauge import tree_cpu_seconds

#: edits the stream must carry, so that its 95th percentile has at
#: least ten samples beyond it
MIN_EDITS = 200
#: whole-program lint (no summary store) re-checks this many replies
WHOLE_PROGRAM_SAMPLE = 1
#: per-request deadline: generous, so no reply is ever degraded by time
DEADLINE_S = 120.0
#: cold passes per run, each against a fresh daemon, worker and store;
#: ``pass_s`` is their median, since one pass (~3 s) spread 8% over runs
COLD_PASSES = 3


class Client:
    """The corpus on disk, the daemon, and every exchange made."""

    def __init__(self, run, workdir):
        from repro.serve.daemon import AnalysisDaemon

        self.run = run
        self.files = os.path.join(workdir, "files")
        os.makedirs(self.files)
        self.access_log = os.path.join(workdir, "access.jsonl")
        self.corpus = generate.make_corpus(run.seed)
        self.paths = [
            os.path.join(self.files, f"{name}.pl") for name in self.corpus.names
        ]
        self.daemon = AnalysisDaemon(
            pool_size=1,
            summaries_dir=os.path.join(workdir, "store"),
            access_log=self.access_log,
            default_deadline=DEADLINE_S,
        )
        #: (kind, path, text, expected cached, reply, normalised CPU
        #: seconds, normalised wall seconds)
        self.exchanges: list = []
        self._next_id = 0

    def send(self, index: int, kind: str) -> tuple[float, float, float]:
        """Save file ``index`` in its current state and lint it; returns
        the request's start and end on the ``perf_counter`` clock and the
        CPU time the daemon, its worker and their descendants spent on it."""
        text = self.corpus.render(index)
        path = self.paths[index]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self._next_id += 1
        request = {"id": self._next_id, "task": "lint", "path": path,
                   "deadline": DEADLINE_S}
        cpu = tree_cpu_seconds()
        start = time.perf_counter()
        reply = self.daemon.handle(request)
        end = time.perf_counter()
        cpu = tree_cpu_seconds() - cpu
        self.exchanges.append(
            [kind, path, text, kind in generate.HIT_KINDS, reply, 0.0, 0.0]
        )
        return start, end, cpu

    def batch(self, requests) -> float:
        """Serve ``(file, kind)`` pairs as one gauge unit; returns the
        summed normalised latency.

        The daemon's worker shares its CPU with other tenants' processes,
        and the wall time of a request includes the time the worker
        waited for that CPU: a figure of the neighbours, which no gauge
        in this process can see.  A request is therefore charged the CPU
        time the daemon, the worker and their descendants spent on it
        (every thread), less the gauge's own ticks, at the speed the
        gauge's kernel ran at while it ran (its CPU time, so that
        preemption is left out of the speed too).  Time the request
        spent blocked is not charged.  Its wall time less the ticks, at
        the same speed, is kept beside it, so that waits stay visible per
        layer.  (The kernel's wall time is no measure here: while the
        worker runs, a tick shares the one CPU with it.)
        """
        gauge = self.run.gauge
        first = gauge.sample()
        spans = [(len(self.exchanges), self.send(index, kind)) for index, kind in requests]
        last = gauge.sample()
        speed = gauge.cpu_speed(first, last)
        ticks = gauge.samples[first + 1:last]
        total = 0.0
        for position, (start, end, cpu) in spans:
            # on the one CPU, a tick delays the request by its CPU time
            inside = sum(t[4] for t in ticks if t[0] >= start and t[1] <= end)
            latency = (cpu - inside) * speed
            self.exchanges[position][5] = latency
            self.exchanges[position][6] = (end - start - inside) * speed
            total += latency
        return total

    def worker_pids(self) -> list[int]:
        return [worker.process.pid for worker in self.daemon.pool._workers]

    def counters(self) -> dict:
        reply = self.daemon.handle({"id": 0, "task": "stats"})
        return reply["payload"]["metrics"]["counters"]


def run_serve(run) -> dict:
    workdir = OUT / f"serve-seed{run.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        client = Client(run, str(workdir))
        try:
            return _serve(run, client)
        finally:
            client.daemon.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _serve(run, client: Client) -> dict:
    recorder = None
    if run.trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder()  # installed per traced round below
    setup_s = run.setup_seconds(run.gauge.sample())

    cold = [client.batch((index, "cold") for index in range(len(client.paths)))]
    for number in range(1, COLD_PASSES):
        fresh = Client(run, os.path.join(os.path.dirname(client.files), f"cold{number}"))
        try:
            cold.append(fresh.batch((index, "cold") for index in range(len(fresh.paths))))
        finally:
            fresh.daemon.close()
        client.exchanges.extend(fresh.exchanges)
    stream_source = generate.Stream(run.seed)
    client.batch(_applied(client, stream_source.next_round()))  # warm-up
    warm = len(client.exchanges)
    counters_before = client.counters()
    deadline = time.perf_counter() + run.seconds
    rounds = edits = 0
    traced_rounds: list[int] = []
    while rounds % generate.BLOCK or (
        time.perf_counter() < deadline or edits < MIN_EDITS
    ):
        traced = recorder is not None and rounds % 2 == 0
        if traced:
            recorder.install()
            recorder.group = f"round{rounds}"
            traced_rounds.append(len(client.exchanges))
        round_requests = stream_source.next_round()
        client.batch(_applied(client, round_requests))
        edits += sum(r.kind not in generate.HIT_KINDS for r in round_requests)
        if traced:
            recorder.uninstall()
            traced_rounds.append(len(client.exchanges))
        rounds += 1
    counters_after = client.counters()
    peak = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in client.worker_pids())
    client.daemon.close()

    stream = client.exchanges[warm:]
    problems = check_replies(client)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    report = {
        "correct": not problems,
        "attempted": len(client.exchanges),
        "failed": 0,
    }
    if recorder is None:
        report["metrics"] = {
            "setup_s": setup_s,
            "pass_s": statistics.median(cold),
            "peak_rss_mb": peak,
            "requests_per_s": statistics.geometric_mean(kind_rates(stream).values()),
        }
        return report
    report["metrics"] = layer_metrics(
        client, recorder, stream, traced_rounds,
        {k: counters_after.get(k, 0) - counters_before.get(k, 0)
         for k in counters_after},
    )
    return report


def kind_rates(exchanges, field: int = 5) -> dict:
    """Requests per second of each kind group, from the latencies held
    in ``field`` of the exchanges (5: CPU-charged, 6: wall-clock)."""
    totals: dict = {}
    for exchange in exchanges:
        kind = generate.group(exchange[0])
        count, seconds = totals.get(kind, (0, 0.0))
        totals[kind] = (count + 1, seconds + exchange[field])
    return {kind: count / seconds for kind, (count, seconds) in totals.items()}


def _applied(client: Client, requests):
    """Yield ``(file, kind)`` for each request, moving its file's state first."""
    for request in requests:
        generate.apply(client.corpus, request)
        yield request.file, request.kind


# ----------------------------------------------------------------------
# checks


def check_replies(client: Client) -> list[str]:
    """Every reply ok, cached exactly on unchanged clauses, and equal to
    lint run outside the daemon."""
    from repro.analysis.cli import lint_payload

    problems = []
    check_store = os.path.join(os.path.dirname(client.files), "check-store")
    linted: dict = {}
    for number, (kind, path, text, expected, reply, *_) in enumerate(client.exchanges):
        where = f"request {number + 1} ({kind}, {os.path.basename(path)})"
        if not reply.get("ok") or reply.get("degraded"):
            problems.append(f"{where}: not ok: {reply.get('error')}")
            continue
        if bool(reply.get("cached")) != expected:
            problems.append(f"{where}: cached={reply.get('cached')}, expected {expected}")
        key = (path, text)
        if key not in linted:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            linted[key] = lint_payload(path, None, summaries=check_store)
        if diagnostics(reply["payload"]) != diagnostics(linted[key]):
            problems.append(f"{where}: diagnostics differ from an in-process lint")
    rng = random.Random(client.run.seed)
    for number in rng.sample(range(len(client.exchanges)), WHOLE_PROGRAM_SAMPLE):
        kind, path, text, _, reply, *_ = client.exchanges[number]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        if reply.get("ok") and diagnostics(reply["payload"]) != diagnostics(
            lint_payload(path, None)
        ):
            problems.append(
                f"request {number + 1} ({kind}): differs from whole-program lint"
            )
    return problems


def diagnostics(payload: dict) -> tuple:
    return json.dumps(payload.get("rows")), tuple(payload.get("texts") or ())


# ----------------------------------------------------------------------
# per-layer figures


def layer_metrics(client, recorder, stream, traced_rounds, counters) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    hits = [e[5] for e in stream if e[3]]
    edits = [e[5] for e in stream if not e[3]]
    metrics["serve.hit_p50_ms"] = 1000 * statistics.median(hits)
    metrics["serve.edit_p50_ms"] = 1000 * statistics.median(edits)
    metrics["serve.edit_p95_ms"] = 1000 * statistics.quantiles(
        edits, n=20, method="inclusive")[18]

    # supervisor-side spans of the traced rounds
    probes = [s for s in recorder.spans if s["name"] == "serve.cache.probe"]
    traced_requests = sum(
        traced_rounds[i + 1] - traced_rounds[i] for i in range(0, len(traced_rounds), 2)
    )
    self_times = recorder.self_times()
    metrics["prolog.parse_s"] = self_times.get("prolog.parse", 0.0) / traced_requests
    metrics["serve.cache.probe_ms"] = (
        1000 * sum(s["end"] - s["start"] for s in probes) / len(probes)
    )
    cache_hits = sum(1 for e in stream if e[4].get("cached"))
    metrics["serve.cache.hit_ratio"] = cache_hits / len(stream)
    dispatched = [e for e in stream if not e[4].get("cached")]
    metrics["serve.cache.dirty_components"] = (
        counters.get("serve.cache.invalidated_components", 0) / len(dispatched)
    )

    # worker side: the reply timings and summary-store deltas
    for field, name in (("modecheck", "analysis.modecheck_s"),
                        ("failcheck", "analysis.failcheck_s")):
        metrics[name] = statistics.mean(
            e[4]["payload"]["timings"].get(field, 0.0) for e in dispatched
        )
    for field in ("hits", "misses", "stores"):
        metrics[f"analysis.summaries.{field}"] = statistics.mean(
            e[4]["payload"].get("summaries", {}).get(field, 0) for e in dispatched
        )
    looked_up = metrics["analysis.summaries.hits"] + metrics["analysis.summaries.misses"]
    metrics["analysis.summaries.hit_ratio"] = (
        metrics["analysis.summaries.hits"] / looked_up if looked_up else 0.0
    )
    for counter, name in (("tasks", "tasks"), ("answers", "answers"),
                          ("answer_dedup_hits", "duplicate_answers"),
                          ("resumptions", "resumptions")):
        metrics[f"engine.tabling.{name}"] = (
            counters.get(f"engine.tabled.{counter}", 0) / len(dispatched)
        )
    produced = metrics["engine.tabling.answers"] + metrics["engine.tabling.duplicate_answers"]
    metrics["engine.tabling.answer_yield"] = (
        metrics["engine.tabling.answers"] / produced if produced else 0.0
    )

    # the daemon's access log: per-phase latency of dispatched requests
    with open(client.access_log, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    by_id = {line["id"]: line for line in lines if line.get("task") == "lint"}
    for phase in ("queue", "dispatch", "worker"):
        metrics[f"serve.{phase}_ms"] = 1000 * statistics.mean(
            by_id[e[4]["id"]]["phases"].get(phase, 0.0) for e in dispatched
        )
    metrics["runtime.degradations"] = sum(1 for e in stream if e[4].get("degraded"))

    # rates per kind, from the untraced rounds
    offset = len(client.exchanges) - len(stream)
    traced_index = set()
    for i in range(0, len(traced_rounds), 2):
        traced_index.update(range(traced_rounds[i] - offset, traced_rounds[i + 1] - offset))
    untraced = [e for index, e in enumerate(stream) if index not in traced_index]
    for kind, rate in kind_rates(untraced).items():
        metrics[f"serve.{kind.replace('-', '_')}_per_s"] = rate
    metrics["serve.wall_requests_per_s"] = statistics.geometric_mean(
        kind_rates(untraced, field=6).values())
    metrics["trace.overhead_pct"] = overhead_pct(stream, traced_index)
    return metrics


def overhead_pct(stream, traced_index) -> float:
    """Traced against untraced rounds, kind by kind (median latencies)."""
    by_kind: dict = {}
    for index, exchange in enumerate(stream):
        by_kind.setdefault(exchange[0], ([], []))[index not in traced_index].append(exchange[5])
    traced = untraced = 0.0
    for kind, (on, off) in by_kind.items():
        if on and off:
            weight = len(on) + len(off)
            traced += weight * statistics.median(on)
            untraced += weight * statistics.median(off)
    return 100 * (traced / untraced - 1) if untraced else 0.0
