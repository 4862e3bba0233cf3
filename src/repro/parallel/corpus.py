"""Process-level corpus fan-out: whole-file analyses across cores.

Under the GIL, threads inside one analysis cannot add CPU throughput,
so multi-core throughput on the hot corpus paths (linting a tree of
files, a groundness/strictness/depth-k sweep, the benchmark harness)
comes from here: :func:`map_corpus` runs one whole-file
analysis per task in a :class:`~concurrent.futures.ProcessPoolExecutor`
and returns per-file results *in input order*, so output and exit
codes are identical whatever the worker count.

Each worker process runs its task under a private
:class:`~repro.obs.Observer` and ships the registry snapshot (plus its
most recent trace spans) back with the result; the parent folds every
snapshot into the session observer
(:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`) and grafts
the worker spans into the session tracer
(:meth:`~repro.obs.trace.Tracer.graft`), so the merged
counters/timers/events equal a serial run's and traces keep covering
the work — observability stays intact under parallelism.

Task payloads are plain JSON-able dicts (they cross the pickle
boundary), and a worker exception becomes the result's ``error`` field
rather than killing the whole sweep.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field


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

    A *hard* worker death (``os._exit``, a segfault, the OOM killer)
    breaks the whole :class:`ProcessPoolExecutor`; the sweep survives
    it: the pool is respawned, files left unfinished are retried once
    in single-file isolation, and the culprit file — the one that kills
    its worker again — is reported as that file's ``error`` result
    instead of sinking the other files' work.
    """
    if task not in TASKS:
        raise ValueError(f"unknown corpus task {task!r}; have {sorted(TASKS)}")
    items = [(str(path), task, options) for path in paths]
    jobs = resolve_jobs(jobs, limit=len(items) or 1)
    if jobs <= 1 or len(items) <= 1:
        records = [_corpus_worker(item) for item in items]
    else:
        records = _map_with_recovery(items, jobs, observer)
    results = [CorpusResult(**record) for record in records]
    _fold_metrics(results, observer)
    return results


def _map_with_recovery(items, jobs: int, observer) -> list[dict]:
    """Fan ``items`` over a process pool, surviving hard worker deaths."""
    records: list[dict | None] = [None] * len(items)
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_corpus_worker, item) for item in items]
            for index, future in enumerate(futures):
                try:
                    records[index] = future.result()
                except BrokenProcessPool:
                    continue
    except BrokenProcessPool:
        # a worker died so early that submit/shutdown itself broke;
        # whatever is still None below gets the isolated retry
        pass
    suspects = [index for index, record in enumerate(records) if record is None]
    if suspects:
        _count_pool_breaks(observer, len(suspects))
    for index in suspects:
        # retry each unfinished file once, isolated in its own
        # single-worker pool: survivors were innocent bystanders of the
        # pool break, and the culprit identifies itself by killing its
        # private worker again
        records[index] = _retry_isolated(items[index])
    return records


def _retry_isolated(item) -> dict:
    path, task, _options = item
    started = time.perf_counter()
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(_corpus_worker, item).result()
    except BrokenProcessPool:
        return {
            "path": path,
            "task": task,
            "payload": None,
            "error": "WorkerCrashed: worker process died (hard exit) "
            "while analyzing this file",
            "seconds": time.perf_counter() - started,
            "metrics": {},
            "spans": [],
        }


def _count_pool_breaks(observer, retried: int) -> None:
    from repro.obs.observer import resolve_observer

    obs = resolve_observer(observer)
    if getattr(obs, "enabled", False):
        obs.registry.counter("parallel.corpus.pool_breaks").inc()
        obs.registry.counter("parallel.corpus.retried_files").inc(retried)


def _fold_metrics(results: list[CorpusResult], observer) -> None:
    from repro.obs.observer import resolve_observer

    obs = resolve_observer(observer)
    if not getattr(obs, "enabled", False):
        return
    registry = obs.registry
    tracer = getattr(obs, "tracer", None)
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


def _corpus_worker(item) -> dict:
    """Top-level (picklable) worker: run one task under a private observer."""
    path, task, options = item
    from repro.obs import Observer, use_observer

    inject = (options or {}).get("inject") or {}
    if path in inject:
        # chaos/regression hook: exhibit a process-level fault for this
        # file (e.g. {"inject": {"bad.pl": {"kind": "abort"}}} models a
        # worker OOM-killed while analyzing bad.pl)
        from repro.runtime.faultinject import apply_process_fault

        apply_process_fault(inject[path])
    observer = Observer()
    started = time.perf_counter()
    payload, error = None, None
    try:
        with use_observer(observer):
            payload = TASKS[task](path, options or {})
    except Exception as exc:  # noqa: BLE001 — one bad file must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
    return {
        "path": path,
        "task": task,
        "payload": payload,
        "error": error,
        "seconds": time.perf_counter() - started,
        "metrics": observer.registry.snapshot(),
        # a bounded tail of the worker's trace, for parent-side grafting
        "spans": observer.tracer.export_spans(limit=64),
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
    return {
        "completeness": result.completeness,
        "table_space": result.table_space,
        "predicates": {
            f"{name}/{arity}": {
                "ground_on_success": list(info.ground_on_success),
                "ground_at_call": list(info.ground_at_call),
                "answers": info.answer_count,
            }
            for (name, arity), info in sorted(result.predicates.items())
        },
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
