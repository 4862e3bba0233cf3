"""Tabled engine: completeness, tables, options, hooks."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_groundness
from repro.engine import TabledEngine
from repro.engine.builtins import PrologError
from repro.engine.tabling import Table
from repro.prolog import load_program, parse_query, parse_term
from repro.runtime.budget import Budget, ResourceGovernor
from repro.terms import (
    Struct,
    Var,
    canonical,
    fresh_var,
    subsumes,
    term_to_str,
    variant_key,
)
from tests.test_groundness import ALIASED
from tests.test_unify import _apply


def answers(src, query, **kw):
    program = load_program(src)
    goal, _ = parse_query(query)
    engine = TabledEngine(program, **kw)
    return sorted(term_to_str(a) for a in engine.solve(goal)), engine


GRAPH = """
:- table path/2.
edge(a,b). edge(b,c). edge(c,a). edge(c,d).
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
"""


def test_left_recursion_terminates():
    result, _ = answers(GRAPH, "path(a, W)")
    assert result == ["path(a,a)", "path(a,b)", "path(a,c)", "path(a,d)"]


def test_right_recursion_same_answers():
    right = GRAPH.replace("path(X,Z), edge(Z,Y)", "edge(X,Z), path(Z,Y)")
    a1, _ = answers(GRAPH, "path(a, W)")
    a2, _ = answers(right, "path(a, W)")
    assert a1 == a2


def test_mutual_recursion():
    src = """
    :- table even/1, odd/1.
    num(z).
    num(s(N)) :- num(N).
    even(z).
    even(s(N)) :- odd(N).
    odd(s(N)) :- even(N).
    """
    result, _ = answers(src, "even(s(s(z)))")
    assert result == ["even(s(s(z)))"]
    result, _ = answers(src, "odd(s(s(z)))")
    assert result == []


def test_double_recursion_datalog():
    src = """
    :- table t/2.
    e(1,2). e(2,3). e(3,4).
    t(X,Y) :- e(X,Y).
    t(X,Y) :- t(X,Z), t(Z,Y).
    """
    result, engine = answers(src, "t(1, Y)")
    assert result == ["t(1,2)", "t(1,3)", "t(1,4)"]
    assert engine.stats.answers >= 3


def test_tables_record_calls_and_answers():
    program = load_program(GRAPH)
    engine = TabledEngine(program)
    goal, _ = parse_query("path(a, W)")
    engine.solve(goal)
    table = engine.table_for(parse_term("path(a, Anything)"))
    assert table is not None
    assert table.complete
    assert len(table.answers) == 4
    # distinct call variants create distinct tables
    engine.solve(parse_term("path(b, W)"))
    assert len(engine.tables_by_pred[("path", 2)]) >= 2


def test_variant_not_instance_tabling():
    program = load_program(GRAPH)
    engine = TabledEngine(program)
    engine.solve(parse_term("path(X, Y)"))
    open_tables = len(engine.tables)
    engine.solve(parse_term("path(a, Y)"))  # not a variant: new table
    assert len(engine.tables) > open_tables


def test_subsumption_reuses_general_table():
    program = load_program(GRAPH)
    engine = TabledEngine(program, subsumption=True)
    engine.solve(parse_term("path(X, Y)"))
    n = len(engine.tables)
    result = sorted(term_to_str(a) for a in engine.solve(parse_term("path(a, Y)")))
    assert len(engine.tables) == n  # consumed from the open table
    assert result == ["path(a,a)", "path(a,b)", "path(a,c)", "path(a,d)"]


def test_open_calls_strategy():
    program = load_program(GRAPH)
    engine = TabledEngine(program, open_calls=True)
    engine.solve(parse_term("path(a, Y)"))
    # the specific call was served by an open table
    tables = engine.tables_by_pred[("path", 2)]
    assert len(tables) == 1
    from repro.terms import term_variables

    assert len(term_variables(tables[0].call)) == 2


def test_fifo_and_lifo_agree():
    a1, _ = answers(GRAPH, "path(a, W)", scheduling="lifo")
    a2, _ = answers(GRAPH, "path(a, W)", scheduling="fifo")
    assert a1 == a2


def test_bad_scheduling_rejected():
    with pytest.raises(ValueError):
        TabledEngine(load_program(GRAPH), scheduling="random")


def test_non_tabled_finite_program():
    src = """
    ap([], Ys, Ys).
    ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
    """
    result, _ = answers(src, "ap(X, Y, [1,2])", )
    assert len(result) == 3


def test_table_all_option():
    src = """
    p(X, Y) :- p(Y, X).
    p(a, b).
    """
    result, _ = answers(src, "p(X, Y)", table_all=True)
    assert result == ["p(a,b)", "p(b,a)"]


def test_conjunctive_and_disjunctive_queries():
    result, _ = answers(GRAPH, "(path(a, X), edge(X, d))")
    assert result == ["','(path(a,c),edge(c,d))"]
    result, _ = answers(GRAPH, "(edge(a, X) ; edge(b, X))")
    assert len(result) == 2


def test_negation_stratified():
    src = GRAPH + """
    :- table unreachable/2.
    node(a). node(b). node(c). node(d).
    unreachable(X, Y) :- node(X), node(Y), \\+ path(X, Y).
    """
    result, _ = answers(src, "unreachable(d, Y)")
    assert result == [
        "unreachable(d,a)",
        "unreachable(d,b)",
        "unreachable(d,c)",
        "unreachable(d,d)",
    ]


def test_cut_handling_options():
    src = ":- table p/1.\np(X) :- q(X), !.\nq(1). q(2)."
    result, _ = answers(src, "p(X)", cut="ignore")
    assert result == ["p(1)", "p(2)"]  # minimal-model reading
    with pytest.raises(PrologError):
        answers(src, "p(X)", cut="error")


def test_task_budget():
    with pytest.raises(PrologError):
        answers(GRAPH, "path(X, Y)",
                governor=ResourceGovernor(Budget(tasks=3)))


def test_call_abstraction_hook():
    seen = []

    def widen_call(goal):
        seen.append(goal)
        # abstract every call to the fully open call
        if isinstance(goal, Struct):
            return Struct(goal.functor, tuple(fresh_var() for _ in goal.args))
        return goal

    program = load_program(GRAPH)
    engine = TabledEngine(program, call_abstraction=widen_call)
    result = sorted(term_to_str(a) for a in engine.solve(parse_term("path(a, W)")))
    assert result == ["path(a,a)", "path(a,b)", "path(a,c)", "path(a,d)"]
    assert seen  # the hook ran
    # only ONE path table exists despite the specific call
    assert len(engine.tables_by_pred[("path", 2)]) == 1


def test_answer_abstraction_hook():
    def truncate(answer):
        # forget the second argument of every answer
        if isinstance(answer, Struct):
            return Struct(answer.functor, (answer.args[0], fresh_var()))
        return answer

    program = load_program(GRAPH)
    engine = TabledEngine(program, answer_abstraction=truncate)
    result = engine.solve(parse_term("path(a, W)"))
    # all answers collapse to path(a, _)
    table = engine.table_for(parse_term("path(a, W2)"))
    assert len(table.answers) == 1


def test_answer_join_widening_hook():
    """The section 6.1 requirement: see and replace recorded returns."""
    calls = []

    def join(existing, new):
        calls.append((list(existing), new))
        if existing:
            return []  # keep only the first answer ever
        return None

    program = load_program(GRAPH)
    engine = TabledEngine(program, answer_join=join)
    result = engine.solve(parse_term("path(a, W)"))
    assert len(result) == 1
    assert calls


def test_answer_subsumption():
    src = """
    :- table p/1.
    p(X).
    p(1).
    p(2).
    """
    program = load_program(src)
    engine = TabledEngine(program, answer_subsumption=True)
    result = engine.solve(parse_term("p(W)"))
    # p(X) subsumes the rest (order: p(X) derived first under lifo?)
    table = engine.table_for(parse_term("p(W)"))
    keys = {variant_key(a) for a in table.answers}
    assert variant_key(parse_term("p(AnyVar)")) in keys


def test_a_finished_engine_leaves_no_reference_cycle():
    # a drained run drops the consumers of its complete tables, so the
    # table -> consumer -> context -> table cycle does not outlive it
    program = load_program(GRAPH)
    gc.collect()
    gc.disable()
    try:
        engine = TabledEngine(program)
        assert len(engine.solve(parse_term("path(a, W)"))) == 4
        assert not any(table.consumers for table in engine.all_tables())
        del engine
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stats_and_table_space():
    program = load_program(GRAPH)
    engine = TabledEngine(program)
    engine.solve(parse_term("path(a, W)"))
    assert engine.stats.tasks > 0
    assert engine.stats.calls == 1
    assert engine.stats.answers == 4
    assert engine.table_space_bytes() > 0
    d = engine.stats.as_dict()
    assert set(d) >= {"tasks", "calls", "answers", "resumptions"}


# ----------------------------------------------------------------------
# The answer index: subsumption tests only the answers that could cover


_VARS = [Var(2_000_000 + i, f"A{i}") for i in range(3)]
#: ground subtrees that recur, keyed, so canonical answers share them
_SHARED = [Struct("g", ("a",)), Struct("g", (1,)),
           Struct("h", (Struct("g", ("a",)), "1"))]
for _tree in _SHARED:
    variant_key(_tree)

_constants = st.sampled_from(["a", "b", 1, "1"])
_leaves = st.one_of(_constants, st.sampled_from(_VARS), st.sampled_from(_SHARED))
_nested = st.recursive(
    _leaves,
    lambda children: st.builds(
        lambda f, args: Struct(f, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(children, min_size=1, max_size=2),
    ),
    max_leaves=4,
)
#: arguments of strictness-like flat answers, or depth-k-like nested ones
_answer_args = st.one_of(
    st.lists(st.one_of(_constants, st.sampled_from(_VARS)),
             min_size=3, max_size=3),
    st.lists(_nested, min_size=3, max_size=3),
)


@st.composite
def _answer_streams(draw):
    """Canonical p/3 answers, each an instance of one of a few drawn
    answers, so that many of them are covered by an earlier one."""
    bases = draw(st.lists(_answer_args, min_size=1, max_size=5))
    stream = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        args = draw(st.sampled_from(bases))
        theta = draw(st.dictionaries(st.sampled_from(_VARS), _nested,
                                     max_size=2))
        stream.append(canonical(_apply(theta, Struct("p", tuple(args)))))
    return stream


def _linear_scan(stream):
    """The reference: each new answer against every kept answer."""
    kept, keys, duplicates = [], set(), 0
    for answer in stream:
        key = variant_key(answer)
        if key in keys or any(subsumes(old, answer) for old in kept):
            duplicates += 1
            continue
        keys.add(key)
        kept.append(answer)
    return kept, duplicates


@settings(deadline=None)
@given(_answer_streams())
def test_answer_index_keeps_what_a_linear_scan_keeps(stream):
    engine = TabledEngine(load_program("p(1, 2, 3)."), answer_subsumption=True)
    call = canonical(Struct("p", tuple(_VARS)))
    table = Table(call, variant_key(call))
    for answer in stream:
        engine._add_answer(table, answer)
    kept, duplicates = _linear_scan(stream)
    assert [id(a) for a in table.answers] == [id(a) for a in kept]
    assert engine.stats.duplicate_answers == duplicates
    assert engine.stats.answers == len(kept)


#: under lifo the last clause runs first, so q(a, _) and q(b, _) are
#: stored before the five answers they cover arrive
OPEN_ANSWERS = """
:- table q/2.
q(X, f(Y)) :- r(X), r(Y).
q(a, b).
q(X, _) :- r(X).
r(a). r(b).
"""


def test_a_drained_run_releases_dedup_state():
    engine = TabledEngine(load_program(OPEN_ANSWERS), answer_subsumption=True)
    first = engine.solve(parse_term("q(W, V)"))
    table = engine.table_for(parse_term("q(W, V)"))
    assert [a.args[0] for a in table.answers] == ["a", "b"]
    assert all(isinstance(a.args[1], Var) for a in table.answers)
    assert engine.stats.duplicate_answers == 5
    for done in engine.all_tables():
        assert done.complete
        assert done.answer_keys is None and done.answer_index is None
    # a later solve on the same engine reuses the complete table and
    # tables a new call of its own
    assert len(engine.solve(parse_term("q(W, V)"))) == len(first)
    assert len(engine.solve(parse_term("q(b, f(V))"))) == 1
    assert all(t.answer_keys is None for t in engine.all_tables())


def test_a_deferred_open_goal_solve_runs_on_a_released_engine():
    result = analyze_groundness(load_program(ALIASED))
    engine = result._engine
    assert all(t.answer_keys is None for t in engine.all_tables())
    before = len(engine.all_tables())
    # the aliased call may not answer this pattern, so p's open call is
    # tabled now, on the same engine
    assert result.ground_on_success_for(("p", 3), (True, False, False)) == (
        True, True, True,
    )
    assert len(engine.all_tables()) > before
    assert all(t.answer_keys is None for t in engine.all_tables())
