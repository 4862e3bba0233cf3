"""Fault injection and the staged degradation ladder.

Deterministically trips budgets at the N-th task/answer/round and
checks that each analysis walks the full recovery ladder —
widen -> reduce-k (depth-k only) -> all-top — recording events and
per-table completeness along the way.
"""

from pathlib import Path

import pytest

from repro.benchdata.loader import funlang_benchmark_source, prolog_benchmark_source
from repro.core.depthk import analyze_depthk
from repro.core.groundness import analyze_groundness
from repro.core.strictness import analyze_strictness
from repro.engine import TabledEngine
from repro.funlang.parser import parse_fun_program
from repro.prolog import load_program, parse_term
from repro.runtime import (
    Budget,
    DeadlineExceeded,
    FaultInjector,
    ResourceGovernor,
    TaskBudgetExceeded,
    add_degradation_listener,
    remove_degradation_listener,
)

PATH = """
:- table path/2.
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
"""


@pytest.fixture(scope="module")
def qsort_program():
    return load_program(prolog_benchmark_source("qsort"))


@pytest.fixture(scope="module")
def quicksort_fun():
    return parse_fun_program(funlang_benchmark_source("quicksort"))


# ----------------------------------------------------------------------
# The injector itself


def test_injector_fires_at_exact_event_count():
    fault = FaultInjector("tasks", at=3, kind="deadline")
    gov = ResourceGovernor(fault=fault)
    gov.charge("tasks")
    gov.charge("tasks")
    with pytest.raises(DeadlineExceeded) as exc:
        gov.charge("tasks")
    assert exc.value.injected
    assert "[injected]" in str(exc.value)


def test_injector_is_deterministic_across_runs():
    def spent_at_trip():
        fault = FaultInjector("tasks", at=4, kind="tasks")
        engine = TabledEngine(load_program(PATH),
                              governor=ResourceGovernor(fault=fault))
        with pytest.raises(TaskBudgetExceeded):
            engine.solve(parse_term("path(X, Y)"))
        return engine.governor.spent["tasks"]

    assert spent_at_trip() == spent_at_trip() == 4


def test_injector_times_bounds_firings():
    fault = FaultInjector("tasks", at=2, kind="tasks", times=1)
    gov = ResourceGovernor(fault=fault)
    gov.charge("tasks")
    with pytest.raises(TaskBudgetExceeded):
        gov.charge("tasks")
    # a restarted governor shares the injector; it has used its firing
    fresh = gov.restarted()
    fresh.charge("tasks")
    fresh.charge("tasks")
    fresh.charge("tasks")
    assert fault.fired == 1


def test_injector_validates_arguments():
    with pytest.raises(ValueError):
        FaultInjector("bogus", at=1)
    with pytest.raises(ValueError):
        FaultInjector("tasks", at=0)
    with pytest.raises(ValueError):
        FaultInjector("tasks", at=1, kind="bogus")


# ----------------------------------------------------------------------
# Groundness ladder: exact -> widened -> top


def test_groundness_exact_when_unfaulted(qsort_program):
    result = analyze_groundness(qsort_program)
    assert result.completeness == "exact"
    assert not result.degraded and result.events == []
    assert all(result.table_completeness.values())


def test_groundness_stage_widened(qsort_program):
    result = analyze_groundness(
        qsort_program, fault=FaultInjector("tasks", 5, times=1)
    )
    assert result.completeness == "widened"
    assert result.degraded
    assert [e.stage for e in result.events] == ["exact"]
    assert result.events[0].injected
    # widened run still produced usable per-predicate results
    assert result.predicates


def test_groundness_stage_top(qsort_program):
    result = analyze_groundness(
        qsort_program, fault=FaultInjector("tasks", 5, times=2)
    )
    assert result.completeness == "top"
    assert [e.stage for e in result.events] == ["exact", "widened"]
    # sound all-top fallback: nothing claimed ground anywhere
    for pred in result.predicates.values():
        assert not any(pred.ground_on_success)
        assert not any(pred.ground_at_call)
    assert not any(result.table_completeness.values())


def test_groundness_no_degrade_reraises(qsort_program):
    with pytest.raises(TaskBudgetExceeded):
        analyze_groundness(qsort_program, budget=Budget(tasks=3), degrade=False)


# ----------------------------------------------------------------------
# Depth-k ladder: exact -> widened -> reduced-k -> top


def test_depthk_stage_widened(qsort_program):
    result = analyze_depthk(
        qsort_program, depth=2, fault=FaultInjector("tasks", 5, times=1)
    )
    assert result.completeness == "widened"
    assert result.effective_depth == 2


def test_depthk_stage_reduced_k(qsort_program):
    result = analyze_depthk(
        qsort_program, depth=2, fault=FaultInjector("tasks", 5, times=2)
    )
    assert result.completeness == "reduced-k(1)"
    assert result.effective_depth == 1
    assert [e.stage for e in result.events] == ["exact", "widened"]


def test_depthk_stage_top(qsort_program):
    result = analyze_depthk(
        qsort_program, depth=2, fault=FaultInjector("tasks", 5, times=None)
    )
    assert result.completeness == "top"
    # all-top: no groundness claims survive
    for shapes in result.predicates.values():
        assert not any(shapes.ground_on_success)
    stages = [e.stage for e in result.events]
    assert stages[:2] == ["exact", "widened"]
    assert any(s.startswith("reduced-k") for s in stages)


# ----------------------------------------------------------------------
# Strictness ladder: exact -> widened -> top


def test_strictness_stage_widened(quicksort_fun):
    result = analyze_strictness(
        quicksort_fun, fault=FaultInjector("tasks", 3, times=1)
    )
    assert result.completeness == "widened"
    assert result.functions


def test_strictness_stage_top(quicksort_fun):
    result = analyze_strictness(
        quicksort_fun, fault=FaultInjector("tasks", 3, times=2)
    )
    assert result.completeness == "top"
    # sound fallback claims no demands at all
    for fn in result.functions.values():
        assert fn.demand_e == ("n",) * fn.arity
        assert fn.demand_d == ("n",) * fn.arity
        assert not any(fn.is_strict(i) for i in range(fn.arity))


# ----------------------------------------------------------------------
# Degradation events reach registered listeners and the harness sink


def test_degradation_listener_sees_events(qsort_program):
    seen = []
    add_degradation_listener(seen.append)
    try:
        analyze_groundness(qsort_program, fault=FaultInjector("tasks", 5, times=1))
    finally:
        remove_degradation_listener(seen.append)
    assert [e.stage for e in seen] == ["exact"]
    assert seen[0].analysis == "groundness"
    assert seen[0].kind == "deadline" and seen[0].injected


def test_observer_registry_records_degradations(qsort_program):
    from repro.obs import Observer, use_observer

    observer = Observer()
    with use_observer(observer):
        analyze_groundness(qsort_program, fault=FaultInjector("tasks", 5, times=2))
    events = observer.registry.events_of("degradation")
    assert [e["stage"] for e in events] == ["exact", "widened"]
    assert all(e["analysis"] == "groundness" for e in events)
    assert all(e["injected"] for e in events)


def test_degradation_events_scoped_per_run(qsort_program):
    """Two back-to-back runs never see each other's degradation events."""
    from repro.obs import Observer, use_observer

    first = Observer()
    with use_observer(first):
        analyze_groundness(qsort_program, fault=FaultInjector("tasks", 5, times=1))
    second = Observer()
    with use_observer(second):
        analyze_groundness(qsort_program)
    assert [e["stage"] for e in first.registry.events_of("degradation")] == ["exact"]
    assert second.registry.events_of("degradation") == []


def test_row_helper_scopes_degradations_per_row(qsort_program):
    from repro.benchdata.loader import prolog_benchmark_source
    from repro.harness import groundness_row

    source = prolog_benchmark_source("qsort")
    row1, _ = groundness_row(
        "qsort", source, fault=FaultInjector("tasks", 5, times=2)
    )
    row2, _ = groundness_row("qsort", source)
    stages1 = [e["stage"] for e in row1.extra["degradation_events"]]
    assert stages1 == ["exact", "widened"]
    # the second, un-faulted row starts clean: no leaked events
    assert row2.extra["degradation_events"] == []


# ----------------------------------------------------------------------
# CLI smoke


def test_cli_reports_degraded_completeness(tmp_path, capsys):
    from repro.runtime.cli import main

    source = tmp_path / "p.pl"
    source.write_text(PATH)
    code = main([str(source), "--max-tasks", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "completeness=" in out and "degraded after" in out


def test_cli_no_degrade_exits_3(tmp_path, capsys):
    from repro.runtime.cli import main

    source = tmp_path / "p.pl"
    source.write_text(PATH)
    code = main([str(source), "--max-tasks", "2", "--no-degrade"])
    assert code == 3
    assert "resource exhausted" in capsys.readouterr().out


def test_cli_exact_run_strictness(tmp_path, capsys):
    from repro.runtime.cli import main

    source = tmp_path / "q.eq"
    source.write_text(funlang_benchmark_source("quicksort"))
    code = main([str(source)])
    out = capsys.readouterr().out
    assert code == 0
    assert "strictness: completeness=exact" in out
    assert "qsort/1" in out


#: app/3 is the entry; nothing calls wrap/2
UNREACHED = Path(__file__).parent / "data" / "unreached.pl"


@pytest.mark.parametrize("analysis", ["groundness", "depthk"])
def test_cli_prints_an_unreached_predicate_as_not_reached(analysis, capsys):
    from repro.runtime.cli import main

    code = main([str(UNREACHED), "--analysis", analysis])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "  wrap/2: not reached" in lines
    assert any(line.startswith("  app/3: ground-on-success=ggg") for line in lines)
    # a top result claims nothing about any predicate
    code = main([str(UNREACHED), "--analysis", analysis, "--max-tasks", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert any(line.startswith("  wrap/2: ground-on-success=??") for line in lines)
