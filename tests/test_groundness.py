"""Groundness analysis: paper examples, soundness, options."""

import itertools

import pytest

from repro.benchdata.loader import load_prolog_benchmark, prolog_benchmark_names
from repro.core import analyze_groundness, abstract_program
from repro.core.groundness import gp_name
from repro.engine import SLDEngine, TabledEngine
from repro.obs import Observer, use_observer
from repro.prolog import load_program, parse_query
from repro.runtime.budget import Budget, ResourceGovernor, TaskBudgetExceeded
from repro.terms import EMPTY_SUBST, Struct, fresh_var

APPEND = """
ap([], Ys, Ys).
ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
"""

PAPER_AP_TABLE = {
    (True, True, True),
    (True, False, False),
    (False, True, False),
    (False, False, False),
}


def test_paper_figure2_append():
    """The success set of gp$ap must be the truth table of X/\\Y <-> Z."""
    result = analyze_groundness(load_program(APPEND))
    assert result[("ap", 3)].success.rows == PAPER_AP_TABLE
    assert result[("ap", 3)].ground_on_success == (False, False, False)


def test_optimized_and_naive_encodings_agree():
    program = load_program(APPEND)
    results = [
        analyze_groundness(program, optimize=opt, encoding=enc)
        for opt in (True, False)
        for enc in ("compact", "enumerated")
    ]
    for other in results[1:]:
        assert other[("ap", 3)].success == results[0][("ap", 3)].success


def test_entry_directed_input_modes():
    src = """
    :- entry_point(main(g)).
    main(N) :- build(N, L), use(L, _).
    build(0, []).
    build(N, [N|L]) :- N > 0, M is N - 1, build(M, L).
    use([], 0).
    use([X|Xs], S) :- use(Xs, S1), S is S1 + X.
    """
    result = analyze_groundness(load_program(src))
    assert result[("build", 2)].ground_at_call[0] is True
    assert result[("use", 2)].ground_at_call[0] is True
    assert result[("build", 2)].ground_on_success == (True, True)


def test_builtin_abstractions():
    src = """
    arith(X, Y) :- Y is X * 2.
    compare_them(X, Y) :- X < Y.
    eq(X, Y) :- X = f(Y).
    univ_case(T, L) :- T =.. L.
    negation(X) :- \\+ X = 1.
    tests(X) :- atom(X).
    """
    result = analyze_groundness(load_program(src))
    # is/2 grounds both sides
    assert result[("arith", 2)].ground_on_success == (True, True)
    assert result[("compare_them", 2)].ground_on_success == (True, True)
    # X = f(Y): X ground iff Y ground
    assert result[("eq", 2)].success.rows == {(True, True), (False, False)}
    assert result[("univ_case", 2)].success.rows == {(True, True), (False, False)}
    # \+ binds nothing
    assert result[("negation", 1)].ground_on_success == (False,)
    assert result[("tests", 1)].ground_on_success == (True,)


def test_disjunction_and_ite():
    src = """
    d(X) :- (X = 1 ; X = Y).
    ite(X) :- (X = 1 -> true ; X = 2).
    """
    result = analyze_groundness(load_program(src))
    assert result[("d", 1)].success.rows == {(True,), (False,)}
    assert result[("ite", 1)].ground_on_success == (True,)


def test_unknown_predicate_warning():
    result = analyze_groundness(load_program("p(X) :- mystery(X)."))
    assert any("mystery" in w for w in result.warnings)
    # conservative: nothing claimed
    assert result[("p", 1)].ground_on_success == (False,)


def test_fail_in_body():
    result = analyze_groundness(load_program("p(X) :- fail.\np(1)."))
    assert result[("p", 1)].success.rows == {(True,)}


def test_cut_ignored_soundly():
    src = """
    f(X, one) :- X = 1, !.
    f(_, other).
    """
    result = analyze_groundness(load_program(src))
    # ignoring cut: both clauses contribute (over-approximation)
    assert result[("f", 2)].ground_on_success == (False, True)


@pytest.mark.parametrize(
    "query",
    ["qs([3,1,2], S)", "qs([], S)", "qs([5,4,3,2,1], S)"],
)
def test_groundness_sound_wrt_execution(query):
    """Arguments claimed ground must be ground in every SLD answer."""
    src = """
    qs([], []).
    qs([X|Xs], S) :- part(X, Xs, L, G), qs(L, SL), qs(G, SG),
                     ap(SL, [X|SG], S).
    part(_, [], [], []).
    part(P, [X|Xs], [X|L], G) :- X =< P, part(P, Xs, L, G).
    part(P, [X|Xs], L, [X|G]) :- X > P, part(P, Xs, L, G).
    """ + APPEND
    program = load_program(src)
    result = analyze_groundness(program)
    goal, _ = parse_query(query)
    engine = SLDEngine(program)
    solutions = list(engine.solve(goal))
    assert solutions
    claimed = result[goal.indicator].success
    for s in solutions:
        resolved = s.resolve(goal)
        row = tuple(EMPTY_SUBST.is_ground(a) for a in resolved.args)
        # the concrete groundness row must be covered by the abstraction
        assert row in claimed.rows, (row, sorted(claimed.rows))


def test_abstract_program_structure():
    program = load_program(APPEND)
    abstract, info = abstract_program(program)
    assert (gp_name("ap"), 3) in abstract.tabled
    assert info.predicates == [("ap", 3)]
    # optimized encoding: only the two-variable [X|Xs] terms need iff
    assert info.iff_arities == {2}
    _, naive_info = abstract_program(program, optimize=False)
    assert naive_info.iff_arities == {0, 1, 2}


def test_entry_points_parsed():
    program = load_program(":- entry_point(f(g, any)).\nf(X, Y) :- Y = X.")
    _, info = abstract_program(program)
    assert len(info.entry_points) == 1
    entry = info.entry_points[0]
    assert entry.functor == gp_name("f")
    assert entry.args[0] == "true"


def test_result_metrics_present():
    result = analyze_groundness(load_program(APPEND))
    assert set(result.times) == {"preprocess", "analysis", "collection"}
    assert result.table_space > 0
    assert result.total_time > 0
    assert result.stats["answers"] >= 4
    assert result[("ap", 3)].formula(["X", "Y", "Z"]).count("|") == 3


# ----------------------------------------------------------------------
# Goal-directed cost: open calls are tabled only when a query needs them

#: ``p`` is reached only through an aliased call, which may not answer
#: pattern queries, so a query on ``p`` needs its open call
ALIASED = """
:- entry_point(main(g)).
main(X) :- p(X, Y, Y).
p(A, B, C) :- B = A, C = A.
"""


def open_solves(observer):
    return observer.registry.counter("analysis.groundness.open_solves").value


@pytest.mark.parametrize("name", prolog_benchmark_names())
def test_analysis_solves_only_the_entry_goals(name):
    """Table 1 measures goal-directed evaluation: the entry goals' work."""
    program = load_prolog_benchmark(name)
    abstract, info = abstract_program(program)
    assert info.entry_points
    engine = TabledEngine(abstract)
    for goal in info.entry_points:
        engine.solve(goal)
    result = analyze_groundness(program)
    assert result.stats["tasks"] == engine.stats.tasks
    assert result.table_space == engine.table_space_bytes()


def test_open_call_solved_only_on_a_miss_and_once():
    observer = Observer()
    with use_observer(observer):
        result = analyze_groundness(load_program(ALIASED))
        stats, space = dict(result.stats), result.table_space
        p = result[("p", 3)]
        demanded = len(p.tables)
        # a demanded table answers: nothing more is solved
        assert result.ground_on_success_for(("main", 1), (True,)) == (True,)
        assert open_solves(observer) == 0
        # the aliased call may not answer: p's open call is tabled
        assert result.ground_on_success_for(("p", 3), (True, False, False)) == (
            True, True, True,
        )
        assert open_solves(observer) == 1
        assert len(p.tables) == demanded + 1
        for pattern in itertools.product((True, False), repeat=3):
            result.ground_on_success_for(("p", 3), pattern)
        assert open_solves(observer) == 1
        assert len(p.tables) == demanded + 1
    opened = [
        span.attrs["predicate"] for span in observer.tracer.spans()
        if span.name == "analysis.groundness.open"
    ]
    assert opened == ["p/3"]
    # the result still describes the entry-directed run
    assert (result.stats, result.table_space) == (stats, space)
    assert p.call_patterns == [(True, None, None)]


def test_open_table_equals_the_eagerly_built_one():
    program = load_program(ALIASED)
    for backend in ("bdd", "enum"):
        result = analyze_groundness(program, prop_backend=backend)
        result.ground_on_success_for(("p", 3), (False, False, False))
        eager = analyze_groundness(
            program,
            entries=[Struct(gp_name("p"), tuple(fresh_var() for _ in range(3)))],
            prop_backend=backend,
        )
        assert result[("p", 3)].tables[-1] == eager[("p", 3)].tables[0]


def test_budget_trip_in_an_open_solve_raises_typed():
    program = load_program(ALIASED)
    tasks = analyze_groundness(program).stats["tasks"]
    result = analyze_groundness(
        program, governor=ResourceGovernor(Budget(tasks=tasks)), degrade=False
    )
    assert result.completeness == "exact"
    with pytest.raises(TaskBudgetExceeded):
        result.ground_on_success_for(("p", 3), (True, False, False))
    # the half-built tables are never read: a later miss raises again
    with pytest.raises(TaskBudgetExceeded):
        result.ground_on_success_for(("p", 3), (False, False, False))
    assert result.ground_on_success_for(("main", 1), (True,)) == (True,)


def _advance_var_ids():
    """Move the process-wide variable counter to the next power of ten,
    so every variable created from now on prints one digit longer."""
    from repro.terms import term as term_module

    start = fresh_var().id
    term_module._var_counter = itertools.count(10 ** len(str(start)))


def test_table_space_does_not_depend_on_process_history():
    program = load_prolog_benchmark("cs")
    spaces = []
    for _ in range(4):
        spaces.append(analyze_groundness(program).table_space)
        _advance_var_ids()
    assert len(set(spaces)) == 1, spaces
