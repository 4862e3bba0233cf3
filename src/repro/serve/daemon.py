"""The analysis daemon: supervised dispatch with a degrade-don't-crash path.

:class:`AnalysisDaemon` owns the full request path the ISSUE's chaos
suite exercises::

    request -> validate -> quarantine check -> warm cache probe
            -> [breaker closed]  pool dispatch with deadline,
                                 bounded retry + backoff on worker faults
               [breaker open]    in-process degraded serving
            -> reply (ok | degraded | structured error)

Every hazard has one owner:

* a **bad request** is answered with ``bad-request``/``unknown-task``
  before it touches any state;
* a **worker fault** (crash / hang / corrupt reply) is retried with
  exponential backoff while the request's deadline allows — each fault
  already cost one worker, killed and respawned by the pool;
* a **poison request** — one that keeps killing fresh workers — is
  quarantined after ``poison_threshold`` kills and answered
  ``poisoned`` forever after, so it can never grind the pool down;
* a **flapping pool** trips the circuit breaker, and requests are
  served *in-process degraded*: the analysis runs under a tight
  :class:`~repro.runtime.budget.Budget` and the
  :mod:`repro.runtime.degrade` ladder, so the answer is still a sound
  over-approximation, just less precise — degraded, never wrong;
* **overload** is shed at the door (``overloaded``) by a bounded
  in-flight limit, and **shutdown** drains: in-flight requests finish,
  new ones get ``shutting-down``, the pool exits cleanly.

Latency, cache, retry and breaker health are all exported through the
:mod:`repro.obs` metrics registry (``serve.*`` instruments), and every
request is covered end to end by observability plumbing:

* a **distributed trace**: the request gets a ``trace_id`` (adopted
  from the client's ``trace`` field when sent), the supervisor's spans
  (request, cache probe, dispatch attempts) and the worker's spans are
  stitched into one tree (:mod:`repro.obs.distributed`), kills
  included — a deadline-killed worker leaves a marked *partial* span,
  and the :class:`~repro.serve.pool.WorkerFailure` unwinding through
  the dispatch span reuses the budget-trip flush machinery to mark it
  ``exhausted``;
* an **access log** line (:class:`~repro.serve.telemetry.AccessLog`):
  trace id, outcome, cache/breaker/retry disposition and the per-phase
  latency breakdown (queue / cache / dispatch / worker / retry-sleep);
* a **latency histogram** (``serve.request_latency_seconds``) with
  p50/p95/p99 in every snapshot, and ``stats`` / ``trace`` /
  ``metrics`` admin requests served supervisor-side for live
  inspection (``python -m repro.obs top``).
"""

from __future__ import annotations

import json
import threading
import time

from repro.obs import Observer
from repro.obs.distributed import process_label
from repro.parallel.corpus import TASKS
from repro.serve.breaker import STATE_GAUGE, CircuitBreaker
from repro.serve.cache import ResultCache
from repro.serve.pool import WorkerFailure, WorkerPool
from repro.serve.protocol import (
    DEFAULT_DEADLINE,
    ProtocolError,
    Request,
    error_reply,
    ok_reply,
    parse_request,
    parse_request_line,
)
from repro.serve.retry import RetryPolicy
from repro.serve.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    AccessLog,
    RequestTelemetry,
    TraceStore,
    render_prometheus,
)

#: budget applied to in-process degraded serving (cooperative; the
#: degradation ladder inside the analyses turns trips into ⊤-ward
#: precision loss rather than failures)
DEGRADED_BUDGET = {"deadline": 2.0, "tasks": 20000}


class AnalysisDaemon:
    """A long-lived, fault-isolated analysis service."""

    def __init__(
        self,
        pool_size: int = 2,
        queue_limit: int = 8,
        default_deadline: float = DEFAULT_DEADLINE,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        cache: ResultCache | None = None,
        poison_threshold: int = 2,
        observer: Observer | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        summaries_dir: str | None = None,
        tracing: bool = True,
        access_log: AccessLog | str | None = None,
        trace_capacity: int = 256,
    ):
        self.observer = observer if observer is not None else Observer()
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache = cache if cache is not None else ResultCache()
        self.default_deadline = default_deadline
        self.poison_threshold = poison_threshold
        self.summaries_dir = summaries_dir
        self.clock = clock
        self.sleep = sleep
        #: per-request distributed tracing + trace storage switch; the
        #: access log and counters stay on either way
        self.tracing = tracing
        self.access_log = (
            access_log if isinstance(access_log, AccessLog)
            else AccessLog(access_log)
        )
        self.traces = TraceStore(capacity=trace_capacity)
        self.pool = WorkerPool(size=pool_size, observer=self.observer)
        self._quarantine: dict = {}        # request key -> reason
        self._worker_kills: dict = {}      # request key -> fresh workers killed
        self._seq = 0
        self._lock = threading.Lock()      # breaker + quarantine transitions
        self._inflight = threading.BoundedSemaphore(queue_limit)
        self._inflight_count = 0
        self._draining = threading.Event()
        self._drained = threading.Event()

    # ------------------------------------------------------------------
    # metrics helpers

    def _count(self, name: str, amount: int = 1) -> None:
        self.observer.registry.counter(name).inc(amount)

    def _gauges(self) -> None:
        registry = self.observer.registry
        registry.gauge("serve.breaker.state").set(STATE_GAUGE[self.breaker.state])
        registry.gauge("serve.inflight").set(self._inflight_count)
        registry.gauge("serve.quarantine.size").set(len(self._quarantine))

    # ------------------------------------------------------------------
    # entry points

    def handle_line(self, line: str) -> dict:
        """One JSONL request line -> one reply dict."""
        try:
            request = parse_request_line(line, TASKS)
        except ProtocolError as exc:
            # salvage the id (and any trace context) if the line was at
            # least JSON, so the client can correlate the error
            request_id, trace = None, None
            try:
                data = json.loads(line)
                if isinstance(data, dict):
                    request_id = data.get("id")
                    trace = data.get("trace")
            except (json.JSONDecodeError, TypeError):
                pass
            return self._reject(request_id, exc.code, str(exc), trace=trace)
        return self.handle(request)

    def handle(self, request: Request | dict) -> dict:
        """Serve one request end to end (thread-safe)."""
        if isinstance(request, dict):
            try:
                request = parse_request(request, TASKS)
            except ProtocolError as exc:
                return self._reject(request.get("id"), exc.code, str(exc),
                                    trace=request.get("trace")
                                    if isinstance(request.get("trace"), dict)
                                    else None)
        if request.is_admin:
            return self._handle_admin(request)
        if self._draining.is_set():
            self._count("serve.replies.shed")
            reply = error_reply(request.id, "shutting-down",
                                "daemon is draining; no new requests accepted")
            return self._finish_unserved(request, reply)
        if not self._inflight.acquire(blocking=False):
            self._count("serve.replies.shed")
            reply = error_reply(request.id, "overloaded",
                                "request queue is full; retry later")
            return self._finish_unserved(request, reply)
        with self._lock:
            self._inflight_count += 1
        started = self.clock()
        telemetry = RequestTelemetry(enabled=self.tracing,
                                     trace=request.trace)
        root_attrs = {"task": request.task, "path": request.path,
                      "id": request.id, "process": process_label()}
        if telemetry.parent_span_id is not None:
            # the client's span under which it will stitch this trace
            root_attrs["remote_parent"] = telemetry.parent_span_id
        try:
            try:
                with telemetry.span("serve.request", **root_attrs):
                    reply = self._serve(request, started, telemetry)
            except Exception as exc:  # noqa: BLE001 — supervisor must not leak raw errors
                reply = error_reply(request.id, "internal",
                                    f"{type(exc).__name__}: {exc}")
        finally:
            with self._lock:
                self._inflight_count -= 1
            self._inflight.release()
        reply["seconds"] = round(self.clock() - started, 6)
        reply["trace_id"] = telemetry.trace_id
        self._count("serve.requests")
        if reply["ok"]:
            self._count("serve.replies.degraded" if reply["degraded"]
                        else "serve.replies.ok")
        else:
            self._count("serve.replies.error")
        registry = self.observer.registry
        registry.timer("serve.request_seconds").observe(reply["seconds"])
        registry.histogram("serve.request_latency_seconds").observe(
            reply["seconds"])
        if telemetry.enabled:
            spans = telemetry.stitched_spans()
            if spans:
                self.traces.put(telemetry.trace_id, spans)
        self._log_access(request, reply, telemetry)
        self._gauges()
        return reply

    # ------------------------------------------------------------------
    # telemetry plumbing

    def _reject(self, request_id, code: str, message: str,
                trace: dict | None = None) -> dict:
        """A pre-dispatch rejection: still traced, still logged."""
        self._count("serve.replies.error")
        telemetry = RequestTelemetry(enabled=False, trace=trace)
        reply = error_reply(request_id, code, message)
        reply["trace_id"] = telemetry.trace_id
        self.access_log.log({
            "trace_id": telemetry.trace_id,
            "id": request_id,
            "task": None,
            "path": None,
            "outcome": "error",
            "code": code,
            "cached": False,
            "degraded": False,
            "attempts": 0,
            "seconds": 0.0,
            "breaker": self.breaker.state,
            "phases": {},
        })
        return reply

    def _finish_unserved(self, request: Request, reply: dict) -> dict:
        """Stamp + log a shed reply (drain / overload): no dispatch ran."""
        telemetry = RequestTelemetry(enabled=False, trace=request.trace)
        reply["trace_id"] = telemetry.trace_id
        self._log_access(request, reply, telemetry)
        return reply

    def _log_access(self, request: Request, reply: dict,
                    telemetry: RequestTelemetry) -> None:
        error = reply.get("error") or {}
        self.access_log.log({
            "trace_id": telemetry.trace_id,
            "id": request.id,
            "task": request.task,
            "path": request.path,
            "outcome": ("degraded" if reply.get("degraded") else "ok")
            if reply.get("ok") else "error",
            "code": error.get("code"),
            "fault": error.get("fault"),
            "cached": reply.get("cached", False),
            "degraded": reply.get("degraded", False),
            "attempts": reply.get("attempts", 0),
            "seconds": reply.get("seconds", 0.0),
            "breaker": self.breaker.state,
            "phases": telemetry.rounded_phases(),
        })

    # ------------------------------------------------------------------
    # admin requests (supervisor-side; no pool, cache or quarantine)

    def _handle_admin(self, request: Request) -> dict:
        telemetry = RequestTelemetry(enabled=False, trace=request.trace)
        self._count("serve.admin.requests")
        self._gauges()
        if request.task == "stats":
            reply = ok_reply(request.id, self.stats(
                recent=int(request.options.get("recent", 10) or 0)))
        elif request.task == "metrics":
            snapshot = self.observer.registry.snapshot()
            reply = ok_reply(request.id, {
                "content_type": PROMETHEUS_CONTENT_TYPE,
                "text": render_prometheus(snapshot),
            })
        else:  # "trace"
            trace_id = request.options.get("trace_id") or request.path
            spans = self.traces.get(trace_id) if trace_id else None
            if spans is None:
                reply = error_reply(
                    request.id, "not-found",
                    f"no stored trace with id {trace_id!r}")
            else:
                reply = ok_reply(request.id,
                                 {"trace_id": trace_id, "spans": spans})
        reply["trace_id"] = telemetry.trace_id
        self._log_access(request, reply, telemetry)
        return reply

    def stats(self, recent: int = 10) -> dict:
        """The live snapshot behind the ``stats`` admin request."""
        with self._lock:
            inflight = self._inflight_count
            quarantined = len(self._quarantine)
        return {
            "pool": {"size": self.pool.size, "respawns": self.pool.respawns},
            "breaker": self.breaker.state,
            "inflight": inflight,
            "quarantined": quarantined,
            "tracing": self.tracing,
            "traces": {"stored": len(self.traces),
                       "evicted": self.traces.evicted},
            "access_log": self.access_log.stats(),
            "recent": self.access_log.recent(limit=recent) if recent else [],
            "metrics": self.observer.registry.snapshot(),
        }

    # ------------------------------------------------------------------
    # the dispatch path

    def _serve(self, request: Request, started: float,
               telemetry: RequestTelemetry) -> dict:
        key = request.key
        with self._lock:
            reason = self._quarantine.get(key)
        if reason is not None:
            self._count("serve.replies.poisoned")
            telemetry.event("quarantine.hit")
            return error_reply(request.id, "poisoned", reason)

        # a request carrying an injected fault must actually reach a
        # worker — chaos schedules are only deterministic if the cache
        # cannot absorb them
        probe = None
        if request.inject is None:
            with telemetry.phase("cache", span_name="serve.cache.probe"):
                probe = self._probe_cache(request)
        if probe is not None and probe.hit:
            self._count("serve.cache.hits")
            telemetry.event("cache.hit")
            return ok_reply(request.id, probe.payload, cached=True)
        self._count("serve.cache.misses")

        with self._lock:
            pool_allowed = self.breaker.allow()
        if not pool_allowed:
            self._count("serve.replies.degraded_served")
            telemetry.event("breaker.open")
            with telemetry.span("serve.degraded", task=request.task):
                return self._serve_degraded(request)

        reply = self._dispatch_with_retry(request, started, telemetry)
        if reply["ok"] and not reply["degraded"] and probe is not None:
            self.cache.store(request.key, probe, reply["payload"])
        return reply

    #: tasks whose corpus implementations accept a summary store
    _SUMMARY_TASKS = ("lint", "failcheck")

    def _task_options(self, request: Request) -> dict:
        """The request's options, plus the daemon's summary store.

        The store directory is merged at dispatch time only — never
        into ``request.key`` — so caching and quarantine behave
        identically with and without a store, and a client-supplied
        ``summaries`` option still wins.
        """
        options = dict(request.options)
        if (
            self.summaries_dir is not None
            and request.task in self._SUMMARY_TASKS
            and "summaries" not in options
        ):
            options["summaries"] = self.summaries_dir
        return options

    def _probe_cache(self, request: Request):
        """Parse the file and probe the warm cache (None = uncacheable)."""
        try:
            from repro.prolog.program import load_program

            with open(request.path, encoding="utf-8") as handle:
                program = load_program(handle.read())
        except Exception:  # noqa: BLE001 — unreadable/unparsable: worker decides
            return None
        try:
            return self.cache.probe(request.key, program)
        except Exception:  # noqa: BLE001 — cache trouble must not fail requests
            return None

    def _dispatch_with_retry(self, request: Request, started: float,
                             telemetry: RequestTelemetry) -> dict:
        """Pool dispatch under the retry session and the breaker."""
        with self._lock:
            self._seq += 1
            seq = self._seq

        def traced_sleep(seconds: float) -> None:
            # satellite instrumentation: every backoff sleep becomes a
            # timing sample and an explicit event on the request span
            sleep_started = time.perf_counter()
            self.sleep(seconds)
            slept = time.perf_counter() - sleep_started
            self.observer.registry.timer(
                "serve.retry.sleep_seconds").observe(slept)
            telemetry.add_phase("retry_sleep", slept)
            telemetry.event("retry.sleep", seconds=round(slept, 6),
                            attempt=session.attempt)

        session = self.retry.session(
            budget_seconds=request.deadline, seed=seq,
            clock=self.clock, sleep=traced_sleep,
        )
        last_failure: WorkerFailure | None = None
        while True:
            remaining = session.remaining()
            if remaining is not None and remaining <= 0:
                break
            # an injected fault models a transient worker fault and fires
            # once per request, so retry recovers — unless the spec says
            # {"every": true}, which models a poison request that kills
            # every fresh worker it reaches
            inject = request.inject
            if inject is not None and session.attempt > 1 and not inject.get("every"):
                inject = None
            attempt_started = time.perf_counter()
            dispatch_span_id = None
            try:
                # the WorkerFailure raised on a kill carries a ``kind``
                # attribute, so unwinding through this span reuses the
                # budget-trip flush machinery: the dispatch span is
                # closed "exhausted" with a resource_exhausted event,
                # and the trace survives the kill well-formed
                with telemetry.span("serve.dispatch", seq=seq,
                                    attempt=session.attempt) as span:
                    if span is not None:
                        dispatch_span_id = span.span_id
                    record = self.pool.submit(
                        seq, request.task, request.path,
                        self._task_options(request),
                        remaining if remaining is not None else request.deadline,
                        inject,
                        trace=telemetry.wire_context()
                        if telemetry.enabled else None,
                    )
                    telemetry.adopt_worker_spans(record.get("spans"))
            except WorkerFailure as failure:
                queue_seconds = getattr(failure, "queue_seconds", 0.0)
                telemetry.add_phase("queue", queue_seconds)
                telemetry.add_phase("dispatch", max(
                    0.0, time.perf_counter() - attempt_started - queue_seconds))
                telemetry.worker_lost(
                    failure.kind, attempt_started + queue_seconds,
                    time.perf_counter(), session.attempt,
                    parent_id=dispatch_span_id)
                last_failure = failure
                self._record_worker_failure(request, failure)
                if self._poisoned(request):
                    self._count("serve.replies.poisoned")
                    return error_reply(
                        request.id, "poisoned",
                        f"request killed {self.poison_threshold} fresh "
                        f"worker(s) and was quarantined ({failure.kind})",
                        attempts=session.attempt,
                    )
                self._count("serve.retries")
                if not session.backoff():
                    break
                continue
            queue_seconds = record.get("queue_seconds", 0.0)
            worker_seconds = record.get("seconds", 0.0)
            telemetry.add_phase("queue", queue_seconds)
            telemetry.add_phase("worker", worker_seconds)
            telemetry.add_phase("dispatch", max(
                0.0, time.perf_counter() - attempt_started
                - queue_seconds - worker_seconds))
            with self._lock:
                self.breaker.record_success()
                # the request completed, so it is demonstrably not poison:
                # forget its worker kills, or transient crashes on a
                # popular key would accumulate into a false quarantine
                self._worker_kills.pop(request.key, None)
            self.observer.registry.merge_snapshot(record.get("metrics", {}))
            if record["error"] is not None:
                # deterministic analysis failure: structured, not retried
                return error_reply(request.id, "analysis-error",
                                   record["error"], attempts=session.attempt)
            return ok_reply(request.id, record["payload"],
                            attempts=session.attempt)
        # retries exhausted (attempts or deadline)
        if last_failure is None:
            return error_reply(request.id, "deadline",
                               "request deadline exhausted before dispatch",
                               attempts=session.attempt)
        code = {
            "hang": "deadline",
            "crash": "worker-crash",
            "corrupt": "worker-corrupt",
        }.get(last_failure.kind, "worker-crash")
        return error_reply(
            request.id, code,
            f"gave up after {session.attempt} attempt(s): {last_failure}",
            attempts=session.attempt, fault=last_failure.kind,
        )

    def _record_worker_failure(self, request: Request, failure: WorkerFailure) -> None:
        self._count(f"serve.pool.faults.{failure.kind}")
        with self._lock:
            self.breaker.record_failure()
            if failure.kind in ("crash", "hang"):
                count = self._worker_kills.get(request.key, 0) + 1
                self._worker_kills[request.key] = count
                if count >= self.poison_threshold:
                    self._quarantine[request.key] = (
                        f"quarantined: killed {count} fresh worker(s) "
                        f"(last fault: {failure.kind})"
                    )

    def _poisoned(self, request: Request) -> bool:
        with self._lock:
            return request.key in self._quarantine

    # ------------------------------------------------------------------
    # degraded serving (breaker open)

    def _serve_degraded(self, request: Request) -> dict:
        """In-process, tightly budgeted, ladder-degraded serving.

        Only reachable for requests that are *not* quarantined, so a
        known worker-killer can never run inside the daemon process.
        Injected process faults are deliberately ignored here: they
        model worker-side faults, and this path has no worker.
        """
        options = self._task_options(request)
        options["deadline"] = min(
            DEGRADED_BUDGET["deadline"],
            options.get("deadline") or request.deadline,
        )
        started = time.perf_counter()
        try:
            payload = TASKS[request.task](request.path, options)
        except Exception as exc:  # noqa: BLE001 — structured, not raised
            return error_reply(request.id, "analysis-error",
                               f"{type(exc).__name__}: {exc} (degraded mode)")
        reply = ok_reply(request.id, payload, degraded=True)
        reply["seconds"] = time.perf_counter() - started
        return reply

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop intake, wait for in-flight work, stop the pool.

        Returns True on a clean drain within ``timeout``.
        """
        self._draining.set()
        deadline_at = time.monotonic() + timeout
        clean = True
        while True:
            with self._lock:
                if self._inflight_count == 0:
                    break
            if time.monotonic() >= deadline_at:
                clean = False
                break
            time.sleep(0.01)
        self.pool.close()
        self._drained.set()
        return clean

    def close(self) -> None:
        if not self._drained.is_set():
            self.drain()
        self.access_log.close()

    def __enter__(self) -> "AnalysisDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
