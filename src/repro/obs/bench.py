"""The perf-trajectory bench emitter and regression reporter.

The paper's argument is a set of tables of per-benchmark timings; this
module makes our reproduction of them machine-readable.  The benchmark
harness collects one row dict per program (from the
:mod:`repro.harness` ``*_row`` helpers) and writes one
``BENCH_table{N}.json`` file per paper table on every run, containing:

* the timing rows (phase splits, totals, compile-increase percentage),
* a metrics snapshot (counter/gauge/timer values from the per-run
  observer registry),
* table-space bytes and any degradation events that occurred.

``python -m repro.obs report OLD.json NEW.json`` diffs two such files
and exits nonzero when any row regressed past a configurable threshold
— the check CI runs against the committed seed baseline, so both perf
regressions (locally) and report-format breakage (anywhere) surface.
Rows that record engine work (``stats``: tasks, calls, answers,
duplicate answers, resumptions) are also gated on each of those
counters, at :data:`TASKS_THRESHOLD_PCT`: they do not depend on the
host, so that gate holds on any CI runner.
"""

from __future__ import annotations

import dataclasses
import json
import platform

SCHEMA_VERSION = 1

#: growth of a row's engine work counter, in percent, that is a regression
TASKS_THRESHOLD_PCT = 10.0
#: the engine work counters of a row's ``stats`` that are gated; all are
#: deterministic for a given program and engine
GATED_COUNTERS = ("tasks", "calls", "answers", "duplicate_answers",
                  "resumptions")


def _jsonable(value):
    """Best-effort conversion to JSON-safe structures (events, terms)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)

#: row fields every bench row must carry (the reporter's contract)
ROW_FIELDS = ("name", "lines", "preprocess", "analysis", "collection",
              "total", "table_space")


def row_record(row, result=None) -> dict:
    """A JSON-ready record for one :class:`~repro.harness.metrics.Row`."""
    record = {
        "name": row.name,
        "lines": row.lines,
        "preprocess": row.preprocess,
        "analysis": row.analysis,
        "collection": row.collection,
        "total": row.total,
        "compile_increase_pct": row.compile_increase_pct,
        "table_space": row.table_space,
        "extra": _jsonable(row.extra),
    }
    if result is not None:
        record["completeness"] = getattr(result, "completeness", "exact")
        stats = getattr(result, "stats", None)
        if stats:
            record["stats"] = dict(stats)
    return record


def bench_payload(table: str, rows: list[dict], registry=None,
                  degradation_events=None, meta: dict | None = None) -> dict:
    """Assemble one ``BENCH_table{N}.json`` document."""
    payload = {
        "schema": SCHEMA_VERSION,
        "table": str(table),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rows": rows,
        "total_time": sum(r.get("total") or 0.0 for r in rows),
        "table_space_total": sum(r.get("table_space") or 0 for r in rows),
    }
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    if degradation_events is not None:
        payload["degradation_events"] = _jsonable(degradation_events)
    if meta:
        payload["meta"] = dict(meta)
    return payload


def write_bench_file(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_file(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    _validate(payload, str(path))
    return payload


class BenchFormatError(ValueError):
    """A bench JSON file does not match the emitter's schema."""


def _validate(payload, origin: str) -> None:
    if not isinstance(payload, dict):
        raise BenchFormatError(f"{origin}: not a JSON object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise BenchFormatError(
            f"{origin}: schema {payload.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    rows = payload.get("rows")
    if not isinstance(rows, list):
        raise BenchFormatError(f"{origin}: missing rows list")
    for row in rows:
        missing = [f for f in ROW_FIELDS if f not in row]
        if missing:
            raise BenchFormatError(
                f"{origin}: row {row.get('name')!r} missing {missing}"
            )


# ----------------------------------------------------------------------
# Regression report


def diff_benches(old: dict, new: dict, threshold_pct: float = 25.0,
                 space_threshold_pct: float | None = None,
                 p95_threshold_pct: float | None = None) -> dict:
    """Compare two bench payloads row-by-row.

    A row *regresses* when its total time grows more than
    ``threshold_pct`` percent over the old file (and, independently,
    when its table space grows past ``space_threshold_pct``, which
    defaults to the same threshold, or when an engine work counter of
    :data:`GATED_COUNTERS` that both sides record grows past
    :data:`TASKS_THRESHOLD_PCT`, listed in ``regressed_counters``).
    Rows present on only one side are reported but are not regressions
    (benchmarks come and go).

    When both payloads carry metrics *histograms* (latency shapes from
    :class:`~repro.obs.registry.Histogram`), their p50/p95/p99 are
    compared too; with ``p95_threshold_pct`` set, a histogram whose p95
    grew past it counts as a regression — the tail-latency gate behind
    ``python -m repro.obs report --p95-threshold``.
    """
    if space_threshold_pct is None:
        space_threshold_pct = threshold_pct
    old_rows = {r["name"]: r for r in old["rows"]}
    new_rows = {r["name"]: r for r in new["rows"]}
    compared, regressions, improvements = [], [], []
    for name in sorted(old_rows.keys() & new_rows.keys()):
        o, n = old_rows[name], new_rows[name]
        entry = {
            "name": name,
            "old_total": o["total"],
            "new_total": n["total"],
            "time_pct": _pct(o["total"], n["total"]),
            "old_space": o["table_space"],
            "new_space": n["table_space"],
            "space_pct": _pct(o["table_space"], n["table_space"]),
            "regressed_counters": [],
        }
        old_stats, new_stats = o.get("stats") or {}, n.get("stats") or {}
        for counter in GATED_COUNTERS:
            if counter not in old_stats or counter not in new_stats:
                continue
            pct = _pct(old_stats[counter], new_stats[counter])
            regressed = pct is not None and pct > TASKS_THRESHOLD_PCT
            entry[f"old_{counter}"] = old_stats[counter]
            entry[f"new_{counter}"] = new_stats[counter]
            entry[f"{counter}_pct"] = pct
            entry[f"{counter}_regressed"] = regressed
            if regressed:
                entry["regressed_counters"].append(counter)
        entry["time_regressed"] = (
            entry["time_pct"] is not None and entry["time_pct"] > threshold_pct
        )
        entry["space_regressed"] = (
            entry["space_pct"] is not None
            and entry["space_pct"] > space_threshold_pct
        )
        compared.append(entry)
        if (
            entry["time_regressed"]
            or entry["space_regressed"]
            or entry["regressed_counters"]
        ):
            regressions.append(entry)
        elif entry["time_pct"] is not None and entry["time_pct"] < -threshold_pct:
            improvements.append(entry)
    histograms = _diff_histograms(old, new, p95_threshold_pct)
    regressions.extend(h for h in histograms if h["p95_regressed"])
    return {
        "table": new.get("table"),
        "threshold_pct": threshold_pct,
        "space_threshold_pct": space_threshold_pct,
        "tasks_threshold_pct": TASKS_THRESHOLD_PCT,
        "p95_threshold_pct": p95_threshold_pct,
        "compared": compared,
        "histograms": histograms,
        "regressions": regressions,
        "improvements": improvements,
        "only_old": sorted(old_rows.keys() - new_rows.keys()),
        "only_new": sorted(new_rows.keys() - old_rows.keys()),
    }


def _diff_histograms(old: dict, new: dict,
                     p95_threshold_pct: float | None) -> list[dict]:
    """Percentile rows for histograms present in both metrics snapshots."""
    old_hists = (old.get("metrics") or {}).get("histograms") or {}
    new_hists = (new.get("metrics") or {}).get("histograms") or {}
    entries = []
    for name in sorted(old_hists.keys() & new_hists.keys()):
        o, n = old_hists[name], new_hists[name]
        entry = {
            "name": name,
            "kind": "histogram",
            "old_count": o.get("count"),
            "new_count": n.get("count"),
        }
        for q in ("p50", "p95", "p99"):
            entry[f"old_{q}"] = o.get(q)
            entry[f"new_{q}"] = n.get(q)
            entry[f"{q}_pct"] = _pct(o.get(q), n.get(q))
        entry["p95_regressed"] = (
            p95_threshold_pct is not None
            and entry["p95_pct"] is not None
            and entry["p95_pct"] > p95_threshold_pct
        )
        entries.append(entry)
    return entries


def _pct(old, new):
    if old in (None, 0) or new is None:
        return None
    return 100.0 * (new - old) / old


def format_report(diff: dict) -> str:
    """Human-readable regression report for one table diff."""
    out = [
        f"table {diff['table']}: {len(diff['compared'])} rows compared, "
        f"{len(diff['regressions'])} regression(s) "
        f"(threshold {diff['threshold_pct']:g}% time / "
        f"{diff['space_threshold_pct']:g}% space / "
        f"{diff['tasks_threshold_pct']:g}% engine counters)"
    ]
    header = (
        f"  {'program':12s} {'old(ms)':>9s} {'new(ms)':>9s} {'time%':>8s} "
        f"{'space%':>8s} {'tasks old -> new':>18s}  flags"
    )
    out.append(header)
    for entry in diff["compared"]:
        flags = []
        if entry["time_regressed"]:
            flags.append("TIME-REGRESSION")
        if entry["space_regressed"]:
            flags.append("SPACE-REGRESSION")
        for counter in entry["regressed_counters"]:
            flags.append(f"{counter.upper()}-REGRESSION")
        time_pct = entry["time_pct"]
        space_pct = entry["space_pct"]
        time_text = f"{time_pct:+7.1f}%" if time_pct is not None else f"{'n/a':>8s}"
        space_text = (
            f"{space_pct:+7.1f}%" if space_pct is not None else f"{'n/a':>8s}"
        )
        tasks_text = (
            f"{entry['old_tasks']} -> {entry['new_tasks']}"
            if "old_tasks" in entry else "n/a"
        )
        out.append(
            f"  {entry['name']:12s} "
            f"{(entry['old_total'] or 0) * 1000:9.2f} "
            f"{(entry['new_total'] or 0) * 1000:9.2f} "
            f"{time_text} {space_text} {tasks_text:>18s}  {' '.join(flags)}".rstrip()
        )
    for name in diff["only_old"]:
        out.append(f"  {name:12s} removed (present only in old file)")
    for name in diff["only_new"]:
        out.append(f"  {name:12s} added (present only in new file)")
    histograms = diff.get("histograms") or []
    if histograms:
        gate = diff.get("p95_threshold_pct")
        out.append(
            "  latency histograms (ms): "
            + (f"p95 gate {gate:g}%" if gate is not None else "p95 gate off")
        )
        out.append(
            f"  {'histogram':32s} {'old p50':>8s} {'new p50':>8s} "
            f"{'old p95':>8s} {'new p95':>8s} {'p95%':>8s}  flags"
        )
        for entry in histograms:
            p95_pct = entry["p95_pct"]
            pct_text = (
                f"{p95_pct:+7.1f}%" if p95_pct is not None else f"{'n/a':>8s}"
            )
            out.append(
                f"  {entry['name']:32s} "
                f"{_ms(entry['old_p50']):>8s} {_ms(entry['new_p50']):>8s} "
                f"{_ms(entry['old_p95']):>8s} {_ms(entry['new_p95']):>8s} "
                f"{pct_text}"
                f"{'  P95-REGRESSION' if entry['p95_regressed'] else ''}"
            )
    return "\n".join(out)


def _ms(seconds) -> str:
    return "n/a" if seconds is None else f"{seconds * 1000:.2f}"
