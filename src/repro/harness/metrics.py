"""Shared measurement utilities for the table-reproduction benchmarks.

The paper reports, per benchmark: preprocessing / analysis / collection
times, total, the *compile-time increase* (total analysis time as a
percentage of plain compilation time) and the table space.  This module
computes the same rows for our system:

* the **compile baseline** for logic programs is our front end's full
  compilation (parse + clause templates + indexes), the thing whose
  time XSB's own compiler time plays in Table 1;
* for functional programs the baseline is parse + Hindley-Milner type
  inference (the front half of any compiler for the language), our
  ghc-compile stand-in for Table 3's "5% of ghc compile time" claim.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.depthk import DepthKResult, analyze_depthk
from repro.core.groundness import GroundnessResult, analyze_groundness
from repro.core.strictness import StrictnessResult, analyze_strictness
from repro.engine.clausedb import ClauseDB
from repro.obs.observer import Observer, get_observer, use_observer
from repro.prolog.program import load_program


@contextmanager
def _row_observer():
    """Per-row observability scope for the ``*_row`` helpers.

    Degradation events used to accumulate in a module global fed by an
    import-time listener — every run saw every earlier run's events.
    Now each row runs under an observer (the ambient one when a bench
    session installed one, else a private throwaway) and reads back only
    the events recorded *during this row*: two back-to-back rows can
    never see each other's trips.

    Yields a zero-argument callable returning this row's degradation
    events (as plain dicts, JSON-ready).
    """
    observer = get_observer()
    if observer.enabled:
        start = len(observer.registry.events)
        yield lambda: [
            dict(e)
            for e in observer.registry.events[start:]
            if e["kind"] == "degradation"
        ]
        return
    private = Observer()
    with use_observer(private):
        yield lambda: [
            dict(e) for e in private.registry.events_of("degradation")
        ]


def compile_baseline(source: str, repeat: int = 3) -> float:
    """Seconds to fully compile a Prolog source (best of ``repeat``)."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        program = load_program(source)
        ClauseDB(program, compiled=True)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def ghc_like_compile_baseline(source: str, repeat: int = 3) -> float:
    """Seconds to parse + type-infer a functional source (best of N)."""
    from repro.core.hm import infer_program
    from repro.funlang.parser import parse_fun_program

    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        program = parse_fun_program(source)
        infer_program(program)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


@dataclass
class Row:
    """One line of a reproduced table."""

    name: str
    lines: int
    preprocess: float
    analysis: float
    collection: float
    compile_increase_pct: float | None
    table_space: int
    extra: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.preprocess + self.analysis + self.collection


def _row(name: str, source: str, parse, analyze, baseline_of, kw: dict):
    """Parse ``source``, analyse it under a per-row observer, and time
    the compile baseline: one table row plus the analysis result."""
    program = parse(source)
    with _row_observer() as degradations:
        result = analyze(program, **kw)
        events = degradations()
    baseline = baseline_of(source)
    row = Row(
        name=name,
        lines=program.source_lines,
        preprocess=result.times["preprocess"],
        analysis=result.times["analysis"],
        collection=result.times["collection"],
        compile_increase_pct=100.0 * result.total_time / baseline if baseline else None,
        table_space=result.table_space,
        extra={
            "compile_baseline": baseline,
            "completeness": result.completeness,
            "degradation_events": events,
        },
    )
    return row, result


def groundness_row(name: str, source: str, **kw) -> tuple[Row, GroundnessResult]:
    return _row(name, source, load_program, analyze_groundness, compile_baseline, kw)


def strictness_row(name: str, source: str, **kw) -> tuple[Row, StrictnessResult]:
    from repro.funlang.parser import parse_fun_program

    return _row(name, source, parse_fun_program, analyze_strictness,
                ghc_like_compile_baseline, kw)


def depthk_row(name: str, source: str, **kw) -> tuple[Row, DepthKResult]:
    return _row(name, source, load_program, analyze_depthk, compile_baseline, kw)


def render_table(title: str, rows: list[Row], paper: dict | None = None) -> str:
    """Format rows like the paper's tables, with paper columns alongside.

    ``paper`` maps benchmark name to the paper's reference tuple; only
    the paper's *total* is shown, for shape comparison.
    """
    out = [title]
    header = (
        f"{'Program':10s} {'Lines':>5s} {'Preproc':>9s} {'Analysis':>9s} "
        f"{'Collect':>9s} {'Total':>9s} {'Cmp.incr':>9s} {'Space(B)':>9s}"
    )
    if paper:
        header += f" {'Paper tot':>10s}"
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        pct = f"{row.compile_increase_pct:8.1f}%" if row.compile_increase_pct else "      n/a"
        line = (
            f"{row.name:10s} {row.lines:5d} {row.preprocess * 1000:7.1f}ms "
            f"{row.analysis * 1000:7.1f}ms {row.collection * 1000:7.1f}ms "
            f"{row.total * 1000:7.1f}ms {pct} {row.table_space:9d}"
        )
        if paper and row.name in paper:
            reference = paper[row.name]
            total = reference[4] if len(reference) >= 5 else reference[-1]
            line += f" {total:9.2f}s"
        completeness = row.extra.get("completeness", "exact")
        if completeness != "exact":
            line += f"  [degraded: {completeness}]"
        out.append(line)
    return "\n".join(out)
