"""Process-level corpus fan-out: whole-file analyses across cores.

Under the GIL, threads inside one analysis cannot add CPU throughput,
so multi-core throughput on the hot corpus paths (linting a tree of
files, a groundness/strictness/depth-k sweep, the benchmark harness)
comes from here: :func:`map_corpus` runs one whole-file analysis per
task on the daemon's supervised :class:`~repro.serve.pool.WorkerPool`
and returns per-file results *in input order*, so output and exit
codes are identical whatever the worker count.

:func:`run_task` runs each task, in a worker or serially, under a
private :class:`~repro.obs.Observer` and returns the registry snapshot
(plus its trace spans) with the result; the parent folds every
snapshot into the session observer
(:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`) and grafts
the worker spans into the session tracer
(:meth:`~repro.obs.trace.Tracer.graft`), so the merged
counters/timers/events equal a serial run's and traces keep covering
the work — observability stays intact under parallelism.

Task payloads are plain JSON-able dicts (they cross the pickle
boundary), and a task exception becomes the result's ``error`` field
rather than killing the whole sweep; a dead worker costs only its file.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

#: most-recent trace spans a task ships back (bounds the pickle size)
TASK_SPAN_LIMIT = 512


@dataclass
class CorpusResult:
    """One file's outcome: payload or error, plus timing and metrics."""

    path: str
    task: str
    payload: dict | None
    error: str | None
    seconds: float
    metrics: dict = field(default_factory=dict)
    #: the worker's most recent trace spans (grafted into the session
    #: tracer by the parent, ``process: worker`` stamped on)
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


def resolve_jobs(jobs: int | None, limit: int | None = None) -> int:
    """``None``/0 -> one worker per core; negatives/non-integers error.

    ``limit`` (when given) caps the result — pass the corpus size so a
    two-file sweep never forks eight idle workers.
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    elif isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(
            f"jobs must be an integer process count, got {jobs!r}"
        )
    elif jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if limit is not None:
        jobs = max(1, min(jobs, limit))
    return jobs


def map_corpus(
    paths,
    task: str = "lint",
    jobs: int | None = 1,
    options: dict | None = None,
    observer=None,
) -> list[CorpusResult]:
    """Run ``task`` over every file in ``paths``; results in input order.

    ``task`` names a whole-file analysis: ``lint``, ``modecheck``,
    ``groundness``, ``depthk``, ``failcheck`` (Prolog sources) or
    ``strictness`` (functional ``.eq`` sources).  ``jobs`` is the process count
    (``None``/``0`` = one per core); ``jobs=1`` runs in-process with no
    pool, so the serial path has zero fan-out overhead.  ``options``
    is a JSON-able dict forwarded to the task (e.g. ``{"query": ...,
    "deadline": ...}`` for lint).

    Worker metrics snapshots are folded into ``observer`` (default:
    the ambient observer) in input order.

    A worker that dies (``os._exit``, a segfault, the OOM killer) is
    respawned and its file retried once; a second death is that file's
    ``WorkerCrashed`` error, and no other file is re-run.
    ``options["inject"]`` maps a path to a process fault
    (:func:`~repro.runtime.faultinject.apply_process_fault`) that its
    worker exhibits on every attempt; the serial path ignores it.
    """
    from repro.obs.observer import resolve_observer

    if task not in TASKS:
        raise ValueError(f"unknown corpus task {task!r}; have {sorted(TASKS)}")
    paths = [str(path) for path in paths]
    options = options or {}
    observer = resolve_observer(observer)
    jobs = resolve_jobs(jobs, limit=len(paths) or 1)
    if jobs == 1:
        records = [run_task(task, path, options) for path in paths]
    else:
        records = _map_on_pool(paths, task, options, jobs, observer)
    results = [
        CorpusResult(path, task, record["payload"], record["error"],
                     record["seconds"], record.get("metrics", {}),
                     record.get("spans", []))
        for path, record in zip(paths, records)
    ]
    _fold_metrics(results, observer)
    return results


def _map_on_pool(paths, task: str, options: dict, jobs: int,
                 observer) -> list[dict]:
    """Submit every file to a ``jobs``-worker pool from ``jobs`` threads."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.obs.distributed import TraceContext, new_trace_id
    from repro.serve.pool import WorkerFailure, WorkerPool

    trace = None
    if getattr(observer, "enabled", False):
        # workers ship their spans back only under a trace context
        trace_id = observer.tracer.trace_id or new_trace_id()
        trace = TraceContext(trace_id).to_wire()
    inject = options.get("inject") or {}
    # the workers fork before any submitting thread starts; respawns
    # fork from a submitting thread, as the daemon's do
    pool = WorkerPool(size=jobs, observer=observer)

    def run(index: int) -> dict:
        path = paths[index]
        started = time.perf_counter()
        for _attempt in range(2):
            try:
                return pool.submit(index, task, path, options, None,
                                   inject.get(path), trace)
            except WorkerFailure as failure:
                # the pool has already respawned the dead worker
                error = f"{type(failure).__name__}: {failure}"
        return {"payload": None, "error": error,
                "seconds": time.perf_counter() - started}

    threads = ThreadPoolExecutor(max_workers=jobs)
    try:
        return list(threads.map(run, range(len(paths))))
    finally:
        # on an interrupt, queued files are cancelled and closing the
        # pool ends the running ones
        threads.shutdown(wait=False, cancel_futures=True)
        pool.close()


def _fold_metrics(results: list[CorpusResult], observer) -> None:
    if not getattr(observer, "enabled", False):
        return
    registry = observer.registry
    tracer = getattr(observer, "tracer", None)
    for result in results:
        registry.merge_snapshot(result.metrics)
        registry.counter("parallel.corpus.files").inc()
        if result.error is not None:
            registry.counter("parallel.corpus.errors").inc()
        registry.timer("parallel.corpus.file_seconds").observe(result.seconds)
        if result.spans and tracer is not None:
            tracer.graft(result.spans,
                         extra_attrs={"process": "worker",
                                      "path": result.path})


def run_task(task: str, path: str, options: dict, tracer=None,
             **span_attrs) -> dict:
    """Run one task under a private observer, in a ``worker.task`` span.

    The task body of the pool's worker loop and of the serial path.
    Returns ``payload`` / ``error`` / ``seconds`` / ``metrics`` (the
    registry snapshot) / ``spans`` (the finished spans of ``tracer``).
    """
    from repro.obs import Observer, Tracer, use_observer

    if tracer is None:
        tracer = Tracer(capacity=TASK_SPAN_LIMIT)
    observer = Observer(tracer=tracer)
    started = time.perf_counter()
    payload, error = None, None
    try:
        with use_observer(observer), tracer.span(
            "worker.task", task=task, path=path, **span_attrs
        ):
            payload = TASKS[task](path, options)
    except Exception as exc:  # noqa: BLE001 — one bad file must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
    return {
        "payload": payload,
        "error": error,
        "seconds": time.perf_counter() - started,
        "metrics": observer.registry.snapshot(),
        "spans": tracer.export_spans(),
    }


# ----------------------------------------------------------------------
# Tasks.  Each returns a JSON-able dict; deterministic for a given file
# (dict insertion orders are sorted), so serial and parallel sweeps
# compare equal field-for-field (timings aside).


def _load(path: str):
    from repro.prolog.program import load_program

    with open(path, encoding="utf-8") as handle:
        return load_program(handle.read())


def _task_lint(path: str, options: dict) -> dict:
    from repro.analysis.cli import lint_payload

    return lint_payload(
        path,
        options.get("query"),
        modes=options.get("modes", True),
        deadline=options.get("deadline"),
        failcheck=options.get("failcheck", True),
        summaries=options.get("summaries"),
        prop_backend=options.get("prop_backend"),
    )


def _task_modecheck(path: str, options: dict) -> dict:
    from repro.analysis.modecheck import check_modes
    from repro.prolog.parser import parse_term

    program = _load(path)
    query = options.get("query")
    report = check_modes(
        program,
        query=parse_term(query) if query else None,
        prop_backend=options.get("prop_backend"),
    )
    ordered = sorted(report.diagnostics, key=lambda d: (d.line, d.rule, d.message))
    return {
        "rows": [d.with_file(path).to_dict() for d in ordered],
        "texts": [d.with_file(path).format() for d in ordered],
        "timings": dict(report.timings),
    }


def _task_groundness(path: str, options: dict) -> dict:
    from repro.core.groundness import analyze_groundness
    from repro.runtime.budget import Budget

    deadline = options.get("deadline")
    result = analyze_groundness(
        _load(path),
        budget=Budget(deadline=deadline) if deadline is not None else None,
        prop_backend=options.get("prop_backend"),
    )
    predicates = {}
    for (name, arity), info in sorted(result.predicates.items()):
        reached = result.reached(info)
        predicates[f"{name}/{arity}"] = {
            "reached": reached,
            # an unreached predicate has no answers: claim nothing
            "ground_on_success": (list(info.ground_on_success) if reached
                                  else [False] * arity),
            "ground_at_call": list(info.ground_at_call),
            "answers": info.answer_count,
        }
    return {
        "completeness": result.completeness,
        "table_space": result.table_space,
        "predicates": predicates,
    }


def _task_depthk(path: str, options: dict) -> dict:
    from repro.core.depthk import analyze_depthk

    result = analyze_depthk(_load(path), depth=options.get("depth", 2))
    return {
        "completeness": result.completeness,
        "depth": result.depth,
        "table_space": result.table_space,
        "predicates": sorted(
            f"{name}/{arity}" for name, arity in result.predicates
        ),
    }


def _task_failcheck(path: str, options: dict) -> dict:
    from repro.analysis.failcheck import failcheck_program
    from repro.runtime.budget import Budget

    deadline = options.get("deadline")
    store = None
    if options.get("summaries") is not None:
        from repro.analysis.summaries import store_for

        store = store_for(options["summaries"])
    report = failcheck_program(
        _load(path),
        depth=options.get("depth", 2),
        budget=Budget(deadline=deadline) if deadline is not None else None,
        summaries=store,
    )
    ordered = sorted(report.diagnostics, key=lambda d: (d.line, d.rule, d.message))
    return {
        "completeness": report.completeness,
        "dead": sorted(
            f"{name}/{arity} [{method}]"
            for (name, arity), method in report.dead.items()
        ),
        "rows": [d.with_file(path).to_dict() for d in ordered],
        "texts": [d.with_file(path).format() for d in ordered],
        "timings": dict(report.timings),
    }


def _task_strictness(path: str, options: dict) -> dict:
    from repro.core.strictness import analyze_strictness
    from repro.funlang.parser import parse_fun_program

    with open(path, encoding="utf-8") as handle:
        program = parse_fun_program(handle.read())
    result = analyze_strictness(program)
    return {
        "completeness": result.completeness,
        "table_space": result.table_space,
        "functions": sorted(
            f"{name}/{arity}" for name, arity in result.functions
        ),
    }


#: task name -> worker-side implementation
TASKS = {
    "lint": _task_lint,
    "modecheck": _task_modecheck,
    "groundness": _task_groundness,
    "depthk": _task_depthk,
    "failcheck": _task_failcheck,
    "strictness": _task_strictness,
}
