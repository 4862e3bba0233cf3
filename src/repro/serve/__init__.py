"""``repro.serve`` — the fault-isolated analysis daemon.

A long-lived service front end over the corpus analysis tasks
(:data:`repro.parallel.corpus.TASKS`): requests come in as JSONL (over
stdin or TCP), run in a supervised pool of worker processes, and come
back as structured replies that are *correct*, *soundly degraded*, or
*clean errors* — never a crash, never a hang past the deadline.

The pieces, each independently testable:

* :mod:`~repro.serve.protocol` — request/reply shapes and error codes;
* :mod:`~repro.serve.pool` — the supervision tree: per-worker pipes,
  deadline kills, respawn;
* :mod:`~repro.serve.retry` / :mod:`~repro.serve.breaker` — bounded
  backoff and the circuit breaker, pure state machines;
* :mod:`~repro.serve.cache` — warm results keyed by the parsed file up
  to variable renaming;
* :mod:`~repro.serve.daemon` — the dispatch path tying them together;
* :mod:`~repro.serve.telemetry` — live telemetry: the structured
  access log, the stitched-trace store, per-request tracing plumbing
  and the Prometheus text exposition;
* :mod:`~repro.serve.chaos` — the seeded chaos harness enforcing the
  service contract end to end.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ResultCache, fingerprint_program
from repro.serve.chaos import ChaosReport, run_chaos
from repro.serve.daemon import AnalysisDaemon
from repro.serve.pool import (
    WorkerCorrupt,
    WorkerCrashed,
    WorkerFailure,
    WorkerHung,
    WorkerPool,
)
from repro.serve.protocol import (
    ADMIN_TASKS,
    ERROR_CODES,
    ProtocolError,
    Request,
    check_reply,
    error_reply,
    ok_reply,
    parse_request,
    parse_request_line,
)
from repro.serve.retry import RetryPolicy, RetrySession
from repro.serve.telemetry import (
    AccessLog,
    RequestTelemetry,
    TraceStore,
    render_prometheus,
)

__all__ = [
    "ADMIN_TASKS",
    "AccessLog",
    "AnalysisDaemon",
    "ChaosReport",
    "CircuitBreaker",
    "ERROR_CODES",
    "ProtocolError",
    "Request",
    "RequestTelemetry",
    "ResultCache",
    "RetryPolicy",
    "RetrySession",
    "TraceStore",
    "WorkerCorrupt",
    "WorkerCrashed",
    "WorkerFailure",
    "WorkerHung",
    "WorkerPool",
    "check_reply",
    "error_reply",
    "fingerprint_program",
    "ok_reply",
    "parse_request",
    "parse_request_line",
    "render_prometheus",
    "run_chaos",
]
