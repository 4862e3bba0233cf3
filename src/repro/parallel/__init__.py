"""Corpus-level parallel evaluation: whole-file analyses across processes.

:func:`map_corpus` (:mod:`repro.parallel.corpus`) fans whole-file
analyses out across the worker processes of the supervised
:class:`~repro.serve.pool.WorkerPool`, which is where multi-core
throughput comes from; per-worker metrics snapshots are folded back
into the session observer so the merged registry equals a serial
run's.  Within one program the bottom-up engine walks the dependency
condensation serially (:mod:`repro.engine.bottomup`).
"""

from repro.parallel.corpus import (
    TASKS,
    CorpusResult,
    map_corpus,
    resolve_jobs,
)

__all__ = [
    "TASKS",
    "CorpusResult",
    "map_corpus",
    "resolve_jobs",
]
