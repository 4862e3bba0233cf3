"""The supervised worker pool: fault-isolated analysis processes.

Analysis work never runs in the process that asked for it (a
pathological input must not take the analysis daemon, or a corpus
sweep, down with it), and it cannot run on a
:class:`concurrent.futures.ProcessPoolExecutor` either — a hung worker
is invisible to an executor (no per-worker kill), and a hard death
(``os._exit``, OOM kill) breaks the *whole* executor.  So the pool here
is a small explicit supervision tree, shared by the daemon and by
:func:`~repro.parallel.corpus.map_corpus`:

* each :class:`_Worker` is one ``multiprocessing.Process`` with a
  duplex pipe; the child loops ``recv -> run task -> send reply``;
* :meth:`WorkerPool.submit` checks a worker out, enforces the request
  deadline (if any) with ``Connection.poll(timeout)``, and on any
  fault — closed pipe (crash), poll timeout (hang), malformed reply
  (corrupt) — **kills and respawns just that worker**, then raises a
  typed :class:`WorkerFailure` for the caller's retry machinery;
* worker replies carry the worker's private metrics snapshot, which
  the caller folds into its own registry.

Tasks are the corpus tasks (:data:`repro.parallel.corpus.TASKS`), each
run by :func:`~repro.parallel.corpus.run_task` under a
:class:`~repro.runtime.budget.Budget` whose deadline mirrors the
request deadline — cooperative degradation inside the worker, hard
kill from outside it, in that order.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import queue
import signal
import threading
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


def _worker_main(conn, supervisor_conn) -> None:
    """Child process loop: execute one task per message until EOF/None.

    ``supervisor_conn`` is the supervisor's end of this worker's pipe,
    which a forked child inherits.  It is closed first thing, so that
    ``conn.recv`` sees EOF as soon as the supervisor process is gone,
    even when it died without closing the pool.  A worker also holds
    the supervisor ends of the workers forked before it, so after such
    a death the pool unwinds newest first.

    SIGINT is ignored: the supervisor owns interrupts, and a worker
    exits on ``None`` or EOF, so a terminal's Ctrl-C, which reaches the
    whole process group, interrupts the supervisor alone.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    supervisor_conn.close()
    from repro.obs import Tracer, TraceContext
    from repro.obs.distributed import process_label
    from repro.parallel.corpus import TASK_SPAN_LIMIT, run_task
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
        tracer = None
        if context is not None:
            tracer = Tracer(capacity=TASK_SPAN_LIMIT,
                            trace_id=context.trace_id)
        options = dict(options or {})
        if deadline is not None:
            # tasks that understand budgets degrade cooperatively
            options.setdefault("deadline", deadline)
        reply = run_task(task, path, options, tracer, process=label)
        reply["job"] = job_id
        if context is None:
            # only ship spans when the supervisor asked for a trace
            del reply["spans"]
        try:
            conn.send(["!garbled!"] if corrupt else reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One supervised analysis process."""

    _ids = itertools.count(1)
    #: held from creating a worker's pipe until the supervisor has closed
    #: the child's end of it: a worker forked by another thread in
    #: between would inherit that end, and the first worker's death would
    #: then never show as EOF to a supervisor waiting on its reply
    _spawn_lock = threading.Lock()

    def __init__(self, context):
        self.id = next(self._ids)
        with self._spawn_lock:
            self.conn, child_conn = context.Pipe(duplex=True)
            self.process = context.Process(
                target=_worker_main, args=(child_conn, self.conn), daemon=True,
                name=f"repro-serve-worker-{self.id}",
            )
            self.process.start()
            child_conn.close()
        self._stop_lock = threading.Lock()
        self._stopped = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def ask_to_exit(self) -> None:
        """Send the exit message; a busy worker reads it after its task."""
        if self.alive:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass

    def stop(self) -> None:
        """Kill the worker unless it has exited, and release its pipe.

        ``close`` and a submitting thread that saw the kill may stop the
        same worker at once, so the first caller does the work and any
        other returns once it is done: a second ``conn.close`` could
        close an fd number a newer pipe already reuses, and a second
        reaper's ``waitpid`` fails with ECHILD, which ``is_alive`` reads
        as "still running".
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            if self.alive:
                self.process.kill()
                self.process.join(timeout=5.0)
            self.conn.close()


class WorkerPool:
    """A fixed-size pool of :class:`_Worker` with per-fault respawn.

    ``submit`` is thread-safe (workers are checked out of a queue), so
    concurrent frontend threads share the pool naturally; the checkout
    wait is bounded by the request's own deadline, surfacing as
    :class:`WorkerHung`, and only a request without one waits unbounded.
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
        #: submitting threads replace dead workers concurrently
        self._respawn_lock = threading.Lock()
        for _ in range(size):
            self._spawn()

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        worker = _Worker(self._context)
        self._workers.append(worker)
        self._idle.put(worker)

    def _replace(self, worker: _Worker) -> None:
        """Kill ``worker`` and bring a fresh one up in its place."""
        worker.stop()
        with contextlib.suppress(ValueError):  # close() may have cleared it
            self._workers.remove(worker)
        with self._respawn_lock:
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
               deadline: float | None, inject: dict | None = None,
               trace: dict | None = None) -> dict:
        """Run one task in a worker; raise :class:`WorkerFailure` on faults.

        ``deadline`` bounds the whole trip: checkout wait + worker time;
        ``None`` waits without a bound (a corpus sweep has no wall-clock
        deadline).  The returned dict is the worker's reply record
        (``payload`` / ``error`` / ``seconds`` / ``metrics``, plus
        ``spans`` when a ``trace`` context was propagated).  Both the
        reply and any raised :class:`WorkerFailure` carry
        ``queue_seconds`` — the time spent waiting for a worker checkout
        — so the daemon's access log can break latency into queue vs.
        worker time.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        queue_started = time.perf_counter()
        try:
            worker = self._idle.get(timeout=deadline)
        except queue.Empty:
            failure = WorkerHung(
                f"no worker became available within {deadline:.3f}s"
            )
            failure.queue_seconds = time.perf_counter() - queue_started
            raise failure from None
        if worker is None:
            self._idle.put(None)  # close() woke this wait: pass it on
            raise RuntimeError("pool is closed")
        queue_seconds = time.perf_counter() - queue_started
        timeout = None if deadline is None else max(0.0, deadline - queue_seconds)
        try:
            reply = self._exchange(worker, job_id, task, path, options,
                                   timeout, inject, trace)
        except WorkerFailure as failure:
            failure.queue_seconds = queue_seconds
            self._replace(worker)
            raise
        self._idle.put(worker)
        reply["queue_seconds"] = queue_seconds
        return reply

    def _exchange(self, worker, job_id, task, path, options, timeout,
                  inject, trace) -> dict:
        try:
            worker.conn.send((job_id, task, path, options, timeout, inject,
                              trace))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker {worker.id} pipe closed: {exc}") from None
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
        """Stop every worker: ask them all to exit, give them one shared
        second to do so, then kill the rest."""
        self._closed = True
        workers = list(self._workers)
        for worker in workers:
            worker.ask_to_exit()
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers:
            worker.stop()
        self._workers.clear()
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        # wake a submit still waiting for a checkout without a deadline
        self._idle.put(None)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(size={self.size}, respawns={self.respawns}, "
            f"closed={self._closed})"
        )
