"""The supervised worker pool: fault-isolated analysis processes.

The daemon never runs untrusted analysis work in its own process (a
pathological input must not take the service down), and it cannot use
:class:`concurrent.futures.ProcessPoolExecutor` either — a hung worker
is invisible to an executor (no per-worker kill), and a hard death
(``os._exit``, OOM kill) breaks the *whole* executor.  So the pool here
is a small explicit supervision tree:

* each :class:`_Worker` is one ``multiprocessing.Process`` with a
  duplex pipe; the child loops ``recv -> run task -> send reply``;
* :meth:`WorkerPool.submit` checks a worker out, enforces the request
  deadline with ``Connection.poll(timeout)``, and on any fault —
  closed pipe (crash), poll timeout (hang), malformed reply (corrupt)
  — **kills and respawns just that worker**, then raises a typed
  :class:`WorkerFailure` for the daemon's retry/breaker machinery;
* worker replies carry the worker's private metrics snapshot, folded
  into the supervisor's registry exactly as :func:`map_corpus` does.

Tasks are the corpus tasks (:data:`repro.parallel.corpus.TASKS`) run
under a :class:`~repro.runtime.budget.Budget` whose deadline mirrors
the request deadline — cooperative degradation inside the worker, hard
kill from outside it, in that order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import time


class WorkerFailure(Exception):
    """A worker-side fault the supervisor recovered from (retryable)."""

    kind = "worker-failure"
    #: checkout wait before the fault (set by :meth:`WorkerPool.submit`)
    queue_seconds = 0.0


class WorkerCrashed(WorkerFailure):
    """The worker process died while holding the request."""

    kind = "crash"


class WorkerHung(WorkerFailure):
    """No reply within the request deadline; the worker was killed."""

    kind = "hang"


class WorkerCorrupt(WorkerFailure):
    """The worker replied with a malformed object; it was killed."""

    kind = "corrupt"


#: most-recent worker spans shipped per reply (bounds the pickle size)
WORKER_SPAN_LIMIT = 512


def _worker_main(conn, supervisor_conn) -> None:
    """Child process loop: execute one task per message until EOF/None.

    ``supervisor_conn`` is the supervisor's end of this worker's pipe,
    which a forked child inherits.  It is closed first thing, so that
    ``conn.recv`` sees EOF as soon as the supervisor process is gone,
    even when it died without closing the pool.  A worker also holds
    the supervisor ends of the workers forked before it, so after such
    a death the pool unwinds newest first.
    """
    supervisor_conn.close()
    from repro.obs import Observer, Tracer, TraceContext, use_observer
    from repro.obs.distributed import process_label
    from repro.parallel.corpus import TASKS
    from repro.runtime.budget import Budget
    from repro.runtime.faultinject import CORRUPT_REPLY, apply_process_fault

    label = process_label()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        job_id, task, path, options, deadline, inject, trace = message
        # the injected fault fires before any analysis work: abort kills
        # the process here, hang wedges it here, corrupt garbles the
        # reply below — all externally indistinguishable from the real
        # faults they model
        corrupt = apply_process_fault(inject) == CORRUPT_REPLY
        # adopt the supervisor's trace context: the worker's tracer
        # records under the request's trace_id with *local* span ids,
        # remapped into the supervisor's id space at stitch time
        context = TraceContext.from_wire(trace) if trace else None
        tracer = Tracer(capacity=WORKER_SPAN_LIMIT,
                        trace_id=context.trace_id if context else None)
        observer = Observer(tracer=tracer)
        started = time.perf_counter()
        payload, error = None, None
        try:
            options = dict(options or {})
            if deadline is not None:
                # tasks that understand budgets degrade cooperatively
                options.setdefault("deadline", deadline)
            with use_observer(observer):
                with tracer.span("worker.task", task=task, path=path,
                                 process=label):
                    payload = TASKS[task](path, options)
        except Exception as exc:  # noqa: BLE001 — becomes a structured reply
            error = f"{type(exc).__name__}: {exc}"
        reply = {
            "job": job_id,
            "payload": payload,
            "error": error,
            "seconds": time.perf_counter() - started,
            "metrics": observer.registry.snapshot(),
        }
        if context is not None:
            # only ship spans when the supervisor asked for a trace
            reply["spans"] = tracer.export_spans(limit=WORKER_SPAN_LIMIT)
            reply["trace_meta"] = tracer.export_meta()
        try:
            conn.send(["!garbled!"] if corrupt else reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One supervised analysis process."""

    _ids = itertools.count(1)

    def __init__(self, context):
        self.id = next(self._ids)
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child_conn, self.conn), daemon=True,
            name=f"repro-serve-worker-{self.id}",
        )
        self.process.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, graceful: bool = True) -> None:
        """Ask the worker to exit; escalate to SIGKILL if it will not."""
        if graceful and self.alive:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self.process.join(timeout=1.0)
        if self.alive:
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


class WorkerPool:
    """A fixed-size pool of :class:`_Worker` with per-fault respawn.

    ``submit`` is thread-safe (workers are checked out of a queue), so
    concurrent frontend threads share the pool naturally; the checkout
    wait is bounded by the request's own deadline, surfacing as
    :class:`WorkerHung` rather than an unbounded block.
    """

    def __init__(self, size: int = 2, observer=None):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.observer = observer
        self.respawns = 0
        self._context = multiprocessing.get_context()
        self._idle: queue.Queue = queue.Queue()
        self._workers: list[_Worker] = []
        self._closed = False
        for _ in range(size):
            self._spawn()

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        worker = _Worker(self._context)
        self._workers.append(worker)
        self._idle.put(worker)

    def _replace(self, worker: _Worker) -> None:
        """Kill ``worker`` and bring a fresh one up in its place."""
        worker.stop(graceful=False)
        if worker in self._workers:
            self._workers.remove(worker)
        self.respawns += 1
        self._count("serve.pool.respawns")
        if not self._closed:
            self._spawn()

    def _count(self, name: str) -> None:
        obs = self.observer
        if obs is not None and getattr(obs, "enabled", False):
            obs.registry.counter(name).inc()

    # ------------------------------------------------------------------
    def submit(self, job_id, task: str, path: str, options: dict,
               deadline: float, inject: dict | None = None,
               trace: dict | None = None) -> dict:
        """Run one task in a worker; raise :class:`WorkerFailure` on faults.

        ``deadline`` bounds the whole trip: checkout wait + worker time.
        The returned dict is the worker's reply record (``payload`` /
        ``error`` / ``seconds`` / ``metrics``, plus ``spans`` when a
        ``trace`` context was propagated).  Both the reply and any
        raised :class:`WorkerFailure` carry ``queue_seconds`` — the time
        spent waiting for a worker checkout — so the daemon's access
        log can break latency into queue vs. worker time.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        deadline_at = time.monotonic() + deadline
        queue_started = time.perf_counter()
        try:
            worker = self._idle.get(timeout=deadline)
        except queue.Empty:
            failure = WorkerHung(
                f"no worker became available within {deadline:.3f}s"
            )
            failure.queue_seconds = time.perf_counter() - queue_started
            raise failure from None
        queue_seconds = time.perf_counter() - queue_started
        try:
            reply = self._exchange(worker, job_id, task, path, options,
                                   deadline_at, inject, trace)
        except WorkerFailure as failure:
            failure.queue_seconds = queue_seconds
            self._replace(worker)
            raise
        self._idle.put(worker)
        reply["queue_seconds"] = queue_seconds
        return reply

    def _exchange(self, worker, job_id, task, path, options, deadline_at,
                  inject, trace) -> dict:
        try:
            worker.conn.send((job_id, task, path, options,
                              max(0.0, deadline_at - time.monotonic()),
                              inject, trace))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker {worker.id} pipe closed: {exc}") from None
        timeout = max(0.0, deadline_at - time.monotonic())
        if not worker.conn.poll(timeout):
            raise WorkerHung(
                f"worker {worker.id} gave no reply within the deadline"
            )
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            raise WorkerCrashed(
                f"worker {worker.id} died while running {task} on {path}"
            ) from None
        if not isinstance(reply, dict) or reply.get("job") != job_id or \
                "payload" not in reply or "error" not in reply:
            raise WorkerCorrupt(
                f"worker {worker.id} replied with a malformed object"
            )
        return reply

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker (graceful first, then kill)."""
        self._closed = True
        for worker in list(self._workers):
            worker.stop(graceful=True)
        self._workers.clear()
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(size={self.size}, respawns={self.respawns}, "
            f"closed={self._closed})"
        )
