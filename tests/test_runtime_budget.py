"""Unified resource governance: budgets, governors, typed exhaustion.

Covers every engine x budget-kind pairing, deadline handling under a
fake clock, cooperative cancellation mid-run, the shared-governor fix
for nested ``\\+`` sub-engines, and the O(1) table-space counter.
"""

import pytest

from repro.engine import SLDEngine, TabledEngine
from repro.engine.bottomup import BottomUpEngine
from repro.engine.builtins import PrologError
from repro.funlang import FuelExhausted, LazyInterpreter
from repro.funlang.parser import parse_fun_program
from repro.prolog import load_program, parse_query, parse_term
from repro.runtime import (
    Budget,
    Cancelled,
    DeadlineExceeded,
    ResourceExhausted,
    ResourceGovernor,
    RoundBudgetExceeded,
    StepLimitExceeded,
    TableSpaceExceeded,
    TaskBudgetExceeded,
    AnswerBudgetExceeded,
)

NAT = """
:- table nat/1.
nat(z).
nat(s(X)) :- nat(X).
"""

PATH = """
:- table path/2.
edge(a, b). edge(b, c). edge(c, d). edge(d, e).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
"""

FUN = """
loop(n) = loop(n + 1).
main(x) = loop(0).
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# Governor unit behaviour


def test_charge_trips_at_limit_with_typed_error():
    gov = ResourceGovernor(Budget(tasks=3))
    for _ in range(3):
        gov.charge("tasks")
    with pytest.raises(TaskBudgetExceeded) as exc:
        gov.charge("tasks", parse_term("p(X)"))
    err = exc.value
    assert err.kind == "tasks" and err.spent == 4 and err.limit == 3
    assert "p(" in str(err)
    assert isinstance(err, ResourceExhausted) and isinstance(err, PrologError)


def test_remaining_and_unlimited_kinds():
    gov = ResourceGovernor(Budget(steps=10))
    assert gov.remaining("steps") == 10
    gov.charge("steps")
    assert gov.remaining("steps") == 9
    assert gov.remaining("tasks") is None  # unlimited
    gov.charge("tasks")  # still counted, never trips


def test_deadline_uses_injected_clock():
    clock = FakeClock()
    gov = ResourceGovernor(Budget(deadline=5.0), clock=clock, poll_interval=1)
    gov.poll()
    clock.advance(6.0)
    with pytest.raises(DeadlineExceeded) as exc:
        gov.poll("inside qsort/2")
    assert exc.value.kind == "deadline"
    assert "qsort" in str(exc.value)


def test_deadline_checks_are_throttled():
    clock = FakeClock()
    gov = ResourceGovernor(Budget(deadline=5.0), clock=clock, poll_interval=64)
    clock.advance(10.0)
    for _ in range(63):
        gov.poll()  # under the poll interval: no clock read yet
    with pytest.raises(DeadlineExceeded):
        gov.poll()


def test_cancellation_beats_other_budgets():
    gov = ResourceGovernor(Budget(tasks=100))
    gov.cancel()
    with pytest.raises(Cancelled):
        gov.charge("tasks")
    with pytest.raises(Cancelled):
        gov.poll()


def test_restarted_governor_resets_counters_keeps_budget():
    gov = ResourceGovernor(Budget(tasks=2))
    gov.charge("tasks")
    fresh = gov.restarted()
    assert fresh.budget is gov.budget
    assert fresh.spent["tasks"] == 0
    fresh.charge("tasks")
    fresh.charge("tasks")
    with pytest.raises(TaskBudgetExceeded):
        fresh.charge("tasks")


# ----------------------------------------------------------------------
# Tabled engine x {tasks, answers, table_bytes, deadline, cancel}


def test_tabled_task_budget():
    db = load_program(PATH)
    engine = TabledEngine(db, governor=ResourceGovernor(Budget(tasks=3)))
    with pytest.raises(TaskBudgetExceeded):
        engine.solve(parse_term("path(a, X)"))


def test_tabled_answer_budget():
    engine = TabledEngine(load_program(PATH),
                          governor=ResourceGovernor(Budget(answers=2)))
    with pytest.raises(AnswerBudgetExceeded) as exc:
        engine.solve(parse_term("path(X, Y)"))
    assert exc.value.spent == 3 and exc.value.limit == 2


def test_tabled_table_space_cap():
    engine = TabledEngine(load_program(PATH),
                          governor=ResourceGovernor(Budget(table_bytes=40)))
    with pytest.raises(TableSpaceExceeded) as exc:
        engine.solve(parse_term("path(X, Y)"))
    assert exc.value.kind == "table_bytes"
    assert exc.value.spent > 40


def test_tabled_deadline_with_fake_clock():
    clock = FakeClock()
    gov = ResourceGovernor(Budget(deadline=1.0), clock=clock, poll_interval=1)
    engine = TabledEngine(load_program(PATH), governor=gov)
    clock.advance(2.0)
    with pytest.raises(DeadlineExceeded):
        engine.solve(parse_term("path(a, X)"))


def test_tabled_cancellation_mid_run():
    gov = ResourceGovernor()

    def cancelling_join(existing, new):
        if len(existing) >= 2:
            gov.cancel()  # as an interrupt handler would
        return None

    engine = TabledEngine(load_program(PATH), governor=gov,
                          answer_join=cancelling_join)
    with pytest.raises(Cancelled):
        engine.solve(parse_term("path(X, Y)"))


def test_tabled_ungoverned_still_completes():
    engine = TabledEngine(load_program(PATH))
    assert len(engine.solve(parse_term("path(a, X)"))) == 4


# ----------------------------------------------------------------------
# Table-space accounting is O(1) and stays exact


def test_table_space_counter_matches_recomputation():
    engine = TabledEngine(load_program(PATH))
    engine.solve(parse_term("path(X, Y)"))
    engine.solve(parse_term("edge(a, X)"))
    assert engine.table_space_bytes() == engine.recompute_table_space_bytes()
    assert engine.table_space_bytes() > 0


def test_table_space_counter_tracks_growth():
    engine = TabledEngine(load_program(NAT))
    engine.solve(parse_term("nat(s(s(z)))"))
    first = engine.table_space_bytes()
    engine.solve(parse_term("nat(s(s(s(s(z)))))"))
    assert engine.table_space_bytes() > first
    assert engine.table_space_bytes() == engine.recompute_table_space_bytes()


# ----------------------------------------------------------------------
# SLD engine x {steps, deadline} + the nested \+ fix


def test_sld_step_budget_typed():
    program = load_program(NAT)
    goal, _ = parse_query("nat(X), fail")
    engine = SLDEngine(program, governor=ResourceGovernor(Budget(steps=50)))
    with pytest.raises(StepLimitExceeded) as exc:
        list(engine.solve(goal))
    assert exc.value.kind == "steps" and exc.value.limit == 50


def test_sld_deadline():
    clock = FakeClock()
    gov = ResourceGovernor(Budget(deadline=1.0), clock=clock, poll_interval=1)
    program = load_program(NAT)
    goal, _ = parse_query("nat(X), fail")
    clock.advance(5.0)
    with pytest.raises(DeadlineExceeded):
        list(SLDEngine(program, governor=gov).solve(goal))


NEGATION = """
count(z).
count(s(X)) :- count(X).
deep :- count(s(s(s(s(s(s(s(s(s(s(z))))))))))), fail.
top :- \\+ deep.
"""


def test_negation_subengine_charges_parent_budget():
    """Work inside \\+ counts against the outer budget (no underflow)."""
    program = load_program(NEGATION)
    goal, _ = parse_query("top")
    gov = ResourceGovernor(Budget(steps=500))
    assert len(list(SLDEngine(program, governor=gov).solve(goal))) == 1
    # the inner count/1 proof is charged to the same governor
    assert gov.spent["steps"] > 12
    # a budget smaller than the inner proof trips, it is not re-granted
    with pytest.raises(StepLimitExceeded):
        list(
            SLDEngine(
                program, governor=ResourceGovernor(Budget(steps=8))
            ).solve(goal)
        )


def test_negation_subengine_legacy_max_steps():
    program = load_program(NEGATION)
    goal, _ = parse_query("top")
    with pytest.raises(StepLimitExceeded):
        list(SLDEngine(program, max_steps=8).solve(goal))


# ----------------------------------------------------------------------
# Bottom-up engine x {rounds, cancel}


def test_bottomup_round_budget_typed():
    engine = BottomUpEngine(load_program(PATH),
                            governor=ResourceGovernor(Budget(rounds=2)))
    with pytest.raises(RoundBudgetExceeded) as exc:
        engine.evaluate()
    assert exc.value.kind == "rounds"


def test_bottomup_cancellation():
    gov = ResourceGovernor()
    gov.cancel()
    with pytest.raises(Cancelled):
        BottomUpEngine(load_program(PATH), governor=gov).evaluate()


def test_bottomup_completes_within_budget():
    engine = BottomUpEngine(load_program(PATH),
                            governor=ResourceGovernor(Budget(rounds=50)))
    engine.evaluate()
    assert engine.rounds <= 50


# ----------------------------------------------------------------------
# Functional interpreter x {fuel, deadline, cancel}


def test_funlang_fuel_via_governor():
    interp = LazyInterpreter(parse_fun_program(FUN),
                             governor=ResourceGovernor(Budget(fuel=50)))
    with pytest.raises(FuelExhausted) as exc:
        interp.run("loop(0)")
    assert exc.value.kind == "fuel" and exc.value.limit == 50


def test_funlang_fuel_legacy_kwarg_is_taxonomy_member():
    interp = LazyInterpreter(parse_fun_program(FUN), fuel=50)
    with pytest.raises(FuelExhausted) as exc:
        interp.run("loop(0)")
    assert isinstance(exc.value, ResourceExhausted)
    assert isinstance(exc.value, PrologError)


def test_funlang_deadline_and_cancel():
    clock = FakeClock()
    gov = ResourceGovernor(Budget(deadline=1.0), clock=clock, poll_interval=1)
    interp = LazyInterpreter(parse_fun_program(FUN), governor=gov)
    clock.advance(2.0)
    with pytest.raises(DeadlineExceeded):
        interp.run("loop(0)")
    gov2 = ResourceGovernor()
    gov2.cancel()
    with pytest.raises(Cancelled):
        LazyInterpreter(parse_fun_program(FUN), governor=gov2).run("loop(0)")


# ----------------------------------------------------------------------
# One governor across heterogeneous engines


def test_shared_governor_accumulates_across_engines():
    budget = Budget(steps=10_000, tasks=10_000)
    gov = ResourceGovernor(budget)
    goal, _ = parse_query("nat(s(s(z)))")
    list(SLDEngine(load_program(NAT), governor=gov).solve(goal))
    TabledEngine(load_program(PATH), governor=gov).solve(parse_term("path(a, X)"))
    assert gov.spent["steps"] > 0
    assert gov.spent["tasks"] > 0
