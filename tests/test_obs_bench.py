"""The bench emitter and regression reporter, library and CLI."""

import io
import json

import pytest

from repro.obs.bench import (
    SCHEMA_VERSION,
    TASKS_THRESHOLD_PCT,
    BenchFormatError,
    bench_payload,
    diff_benches,
    format_report,
    load_bench_file,
    row_record,
    write_bench_file,
)
from repro.obs.cli import EXIT_OK, EXIT_REGRESSIONS, EXIT_USAGE, main


def make_row(name, total, space, tasks=None, stats=None):
    row = {
        "name": name,
        "lines": 10,
        "preprocess": total / 2,
        "analysis": total / 2,
        "collection": 0.0,
        "total": total,
        "table_space": space,
    }
    if tasks is not None:
        row["stats"] = {"tasks": tasks}
    if stats is not None:
        row["stats"] = dict(stats)
    return row


def make_payload(rows, table="1"):
    return bench_payload(table, rows)


def test_row_record_from_harness_row():
    from repro.harness.metrics import Row

    row = Row(
        name="qsort", lines=42, preprocess=0.01, analysis=0.02,
        collection=0.003, compile_increase_pct=12.0, table_space=2048,
        extra={"completeness": "exact"},
    )
    record = row_record(row)
    assert record["name"] == "qsort"
    assert record["total"] == pytest.approx(0.033)
    assert record["extra"]["completeness"] == "exact"


def test_payload_writes_and_validates(tmp_path):
    payload = make_payload([make_row("qsort", 0.1, 1000)])
    path = tmp_path / "BENCH_table1.json"
    write_bench_file(path, payload)
    loaded = load_bench_file(path)
    assert loaded["schema"] == SCHEMA_VERSION
    assert loaded["total_time"] == pytest.approx(0.1)
    assert loaded["table_space_total"] == 1000


def test_payload_includes_registry_snapshot():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("engine.tabled.calls").inc(9)
    payload = bench_payload("1", [make_row("a", 0.1, 10)], registry=registry)
    assert payload["metrics"]["counters"]["engine.tabled.calls"] == 9


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(schema=99),
        lambda p: p.pop("rows"),
        lambda p: p["rows"][0].pop("total"),
    ],
)
def test_malformed_files_are_rejected(tmp_path, mutate):
    payload = make_payload([make_row("qsort", 0.1, 1000)])
    mutate(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BenchFormatError):
        load_bench_file(path)


def test_diff_flags_time_and_space_regressions():
    old = make_payload(
        [make_row("a", 0.1, 1000), make_row("b", 0.1, 1000),
         make_row("gone", 0.1, 1000)]
    )
    new = make_payload(
        [make_row("a", 0.2, 1000),  # +100% time
         make_row("b", 0.1, 2000),  # +100% space
         make_row("added", 0.1, 1000)]
    )
    diff = diff_benches(old, new, threshold_pct=25.0)
    names = {e["name"]: e for e in diff["regressions"]}
    assert set(names) == {"a", "b"}
    assert names["a"]["time_regressed"] and not names["a"]["space_regressed"]
    assert names["b"]["space_regressed"] and not names["b"]["time_regressed"]
    assert diff["only_old"] == ["gone"]
    assert diff["only_new"] == ["added"]
    # within threshold: nothing flagged
    assert diff_benches(old, old, threshold_pct=25.0)["regressions"] == []


def test_diff_independent_space_threshold():
    old = make_payload([make_row("a", 0.1, 1000)])
    new = make_payload([make_row("a", 0.1, 1400)])  # +40% space
    assert diff_benches(old, new, threshold_pct=50.0)["regressions"] == []
    flagged = diff_benches(
        old, new, threshold_pct=50.0, space_threshold_pct=25.0
    )
    assert [e["name"] for e in flagged["regressions"]] == ["a"]


def test_diff_gates_engine_tasks_when_both_sides_record_them():
    old = make_payload([make_row("a", 0.1, 1000, tasks=1000),
                        make_row("b", 0.1, 1000, tasks=1000),
                        make_row("c", 0.1, 1000)])
    grown = 1000 + int(10 * TASKS_THRESHOLD_PCT) + 1
    new = make_payload([make_row("a", 0.1, 1000, tasks=grown),
                        make_row("b", 0.1, 1000, tasks=1100),  # at the bound
                        make_row("c", 0.1, 1000, tasks=10**6)])
    # a huge time threshold does not loosen the task gate
    diff = diff_benches(old, new, threshold_pct=1e6)
    assert [e["name"] for e in diff["regressions"]] == ["a"]
    assert diff["regressions"][0]["tasks_regressed"]


def test_format_report_mentions_flags():
    old = make_payload([make_row("a", 0.1, 1000)])
    new = make_payload([make_row("a", 0.3, 1000)])
    text = format_report(diff_benches(old, new))
    assert "TIME-REGRESSION" in text
    assert "1 regression(s)" in text


# ----------------------------------------------------------------------
# CLI


def write_files(tmp_path, old_rows, new_rows):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    write_bench_file(old_path, make_payload(old_rows))
    write_bench_file(new_path, make_payload(new_rows))
    return str(old_path), str(new_path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_report_cli_ok_when_stable(tmp_path):
    old, new = write_files(
        tmp_path, [make_row("a", 0.1, 1000)], [make_row("a", 0.105, 1000)]
    )
    code, output = run_cli("report", old, new)
    assert code == EXIT_OK
    assert "0 regression(s)" in output


def test_report_cli_nonzero_on_regression(tmp_path):
    old, new = write_files(
        tmp_path, [make_row("a", 0.1, 1000)], [make_row("a", 0.5, 1000)]
    )
    code, output = run_cli("report", old, new)
    assert code == EXIT_REGRESSIONS
    assert "TIME-REGRESSION" in output
    # a generous threshold waves the same pair through
    code, _ = run_cli("report", old, new, "--threshold", "100000")
    assert code == EXIT_OK


def test_report_cli_json_mode(tmp_path):
    old, new = write_files(
        tmp_path, [make_row("a", 0.1, 1000)], [make_row("a", 0.5, 1000)]
    )
    code, output = run_cli("report", old, new, "--json")
    assert code == EXIT_REGRESSIONS
    diff = json.loads(output)
    assert [e["name"] for e in diff["regressions"]] == ["a"]


def test_report_cli_fails_when_eager_open_goals_come_back(tmp_path):
    # cs's Table 1 row: 88 goal-directed tasks; solving every open goal
    # up front made it 2505
    old, new = write_files(
        tmp_path,
        [make_row("cs", 0.1, 1000, tasks=88)],
        [make_row("cs", 0.1, 1000, tasks=2505)],
    )
    code, output = run_cli("report", old, new, "--threshold", "1000000")
    assert code == EXIT_REGRESSIONS
    assert "88 -> 2505" in output and "TASKS-REGRESSION" in output
    old, new = write_files(
        tmp_path,
        [make_row("cs", 0.1, 1000, tasks=88)],
        [make_row("cs", 0.1, 1000, tasks=88)],
    )
    code, output = run_cli("report", old, new, "--threshold", "1000000")
    assert code == EXIT_OK
    assert "88 -> 88" in output


#: eu's Table 3 row
EU_STATS = {"tasks": 1449, "calls": 132, "answers": 515,
            "duplicate_answers": 675, "resumptions": 765}


def test_report_cli_gates_every_engine_counter(tmp_path):
    # an answer index that misses a subsumer keeps extra answers while
    # the other counters may stay put
    old, new = write_files(
        tmp_path,
        [make_row("eu", 0.1, 1000, stats=EU_STATS)],
        [make_row("eu", 0.1, 1000, stats={**EU_STATS, "answers": 600})],
    )
    code, output = run_cli("report", old, new, "--threshold", "1000000")
    assert code == EXIT_REGRESSIONS
    assert "ANSWERS-REGRESSION" in output
    assert "TASKS-REGRESSION" not in output
    diff = json.loads(run_cli("report", old, new, "--threshold", "1000000",
                              "--json")[1])
    assert diff["regressions"][0]["regressed_counters"] == ["answers"]
    old, new = write_files(
        tmp_path,
        [make_row("eu", 0.1, 1000, stats=EU_STATS)],
        [make_row("eu", 0.1, 1000, stats=EU_STATS)],
    )
    code, output = run_cli("report", old, new, "--threshold", "1000000")
    assert code == EXIT_OK
    assert "REGRESSION" not in output


#: disj's Table 4 row, before and after depth-k stopped solving the open
#: goal of every predicate its entries do not reach
DISJ_EAGER = {"tasks": 391, "calls": 60, "answers": 97,
              "duplicate_answers": 109, "resumptions": 270}
DISJ_DIRECTED = {"tasks": 136, "calls": 36, "answers": 35,
                 "duplicate_answers": 20, "resumptions": 65}


def test_report_prints_every_changed_counter_of_a_row(tmp_path):
    # a baseline refresh shows its whole counter diff, not only tasks
    old, new = write_files(
        tmp_path,
        [make_row("disj", 0.1, 12351, stats=DISJ_EAGER),
         make_row("kalah", 0.1, 24875, stats=EU_STATS)],
        [make_row("disj", 0.1, 6741, stats=DISJ_DIRECTED),
         make_row("kalah", 0.1, 24875, stats={**EU_STATS, "answers": 520})],
    )
    code, output = run_cli("report", old, new, "--threshold", "1000000",
                           "--space-threshold", "0")
    assert code == EXIT_OK
    # each row's counter line follows it
    lines = output.splitlines()
    changed = {
        lines[i - 1].split()[0]: line.split("changed: ")[1]
        for i, line in enumerate(lines) if "changed: " in line
    }
    assert changed == {
        "disj": "tasks 391 -> 136 (-65.2%), calls 60 -> 36 (-40.0%), "
                "answers 97 -> 35 (-63.9%), duplicate_answers 109 -> 20 "
                "(-81.7%), resumptions 270 -> 65 (-75.9%)",
        # an unchanged counter is left out
        "kalah": "answers 515 -> 520 (+1.0%)",
    }
    # a row whose counters all held prints no counter line
    code, output = run_cli("report", new, new, "--threshold", "1000000")
    assert code == EXIT_OK
    assert "changed:" not in output


@pytest.mark.parametrize("counter", sorted(EU_STATS))
def test_diff_gates_each_counter_past_the_threshold(counter):
    grown = {**EU_STATS,
             counter: int(EU_STATS[counter] * (1 + TASKS_THRESHOLD_PCT / 100)) + 1}
    at_bound = {**EU_STATS,
                counter: int(EU_STATS[counter] * (1 + TASKS_THRESHOLD_PCT / 100))}
    old = make_payload([make_row("eu", 0.1, 1000, stats=EU_STATS)])
    diff = diff_benches(
        old, make_payload([make_row("eu", 0.1, 1000, stats=grown)]),
        threshold_pct=1e6,
    )
    assert [e["regressed_counters"] for e in diff["regressions"]] == [[counter]]
    diff = diff_benches(
        old, make_payload([make_row("eu", 0.1, 1000, stats=at_bound)]),
        threshold_pct=1e6,
    )
    assert diff["regressions"] == []


class HungUpStream(io.StringIO):
    """A stdout whose reader has gone away, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "new_total, verdict", [(0.1, EXIT_OK), (0.5, EXIT_REGRESSIONS)]
)
def test_report_cli_keeps_verdict_when_reader_hangs_up(tmp_path, new_total,
                                                       verdict):
    old, new = write_files(
        tmp_path, [make_row("a", 0.1, 1000)], [make_row("a", new_total, 1000)]
    )
    assert main(["report", old, new], out=HungUpStream()) == verdict


def test_report_cli_exit_code_survives_closed_stdout(tmp_path):
    """The process exit code, not only ``main``'s return value: a pipe
    whose reader is gone must not turn a clean report into exit 120."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    old, new = write_files(
        tmp_path, [make_row("a", 0.1, 1000)], [make_row("a", 0.1, 1000)]
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro.obs", "report", old, new],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
    finally:
        os.close(write_end)
    assert completed.returncode == EXIT_OK, completed.stderr
    assert "Traceback" not in completed.stderr


def test_report_cli_usage_error_on_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    good = tmp_path / "good.json"
    write_bench_file(good, make_payload([make_row("a", 0.1, 1000)]))
    code, _ = run_cli("report", str(bad), str(good))
    assert code == EXIT_USAGE


def test_explain_cli_renders_tree(tmp_path):
    source = tmp_path / "p.pl"
    source.write_text(
        ":- table path/2.\n"
        "edge(a, b). edge(b, c).\n"
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
    )
    code, output = run_cli("explain", str(source), "path(a, X)")
    assert code == EXIT_OK
    assert "path(a,c)" in output
    assert "[clause path/2 @ line 4]" in output
    assert "<- edge(b,c)" in output


def test_explain_cli_groundness_mode(tmp_path):
    source = tmp_path / "app.pl"
    source.write_text(
        "app([], L, L).\n"
        "app([H|T], L, [H|R]) :- app(T, L, R).\n"
    )
    code, output = run_cli(
        "explain", str(source), "app(g,g,f)", "--groundness"
    )
    assert code == EXIT_OK
    # ground inputs make the output ground; the tree says why
    assert "'gp$app'(true,true,true)" in output


def test_explain_cli_trace_out(tmp_path):
    source = tmp_path / "p.pl"
    source.write_text("p(1).\np(2).\n")
    trace = tmp_path / "trace.jsonl"
    code, _ = run_cli(
        "explain", str(source), "p(X)", "--trace-out", str(trace)
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(r["name"] == "engine.tabled.solve" for r in rows)
