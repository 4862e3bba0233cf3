"""Bottom-up engine and magic-sets transformation."""

import pytest

from repro.engine import BottomUpEngine, TabledEngine
from repro.engine.builtins import PrologError
from repro.magic import (
    adorn_program,
    adornment_of,
    magic_answers,
    magic_transform,
    supplementary_transform,
)
from repro.prolog import load_program, parse_query, parse_term
from repro.runtime.budget import Budget, ResourceGovernor
from repro.terms import term_to_str, variant_key

GRAPH = """
edge(a,b). edge(b,c). edge(c,a). edge(c,d).
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
"""


def test_minimal_model():
    engine = BottomUpEngine(load_program(GRAPH))
    facts = engine.facts(("path", 2))
    # {a,b,c} form a cycle (9 pairs) and each reaches d (3 more)
    assert len(facts) == 12
    goal, _ = parse_query("path(a, X)")
    assert len(engine.holds(goal)) == 4


def test_seminaive_rounds_bounded():
    engine = BottomUpEngine(load_program(GRAPH))
    engine.evaluate()
    # path closes within diameter+1 rounds, not |facts| rounds
    assert engine.rounds <= 6


def test_agrees_with_tabled():
    program = load_program(GRAPH + ":- table path/2.\n")
    tabled = TabledEngine(program)
    t_answers = {variant_key(a) for a in tabled.solve(parse_term("path(X, Y)"))}
    bottom_up = BottomUpEngine(load_program(GRAPH))
    b_answers = {
        variant_key(f) for f in bottom_up.facts(("path", 2))
    }
    assert t_answers == b_answers


def test_non_ground_facts():
    src = """
    base(X, X).
    lifted(f(X), Y) :- base(X, Y).
    """
    engine = BottomUpEngine(load_program(src))
    facts = engine.facts(("lifted", 2))
    assert len(facts) == 1
    assert term_to_str(facts[0]).startswith("lifted(f(")


def test_builtins_in_body():
    src = """
    n(1). n(2). n(3).
    big(X) :- n(X), X > 1.
    double(Y) :- n(X), Y is X * 2.
    """
    engine = BottomUpEngine(load_program(src))
    assert len(engine.facts(("big", 1))) == 2
    values = {f.args[0] for f in engine.facts(("double", 1))}
    assert values == {2, 4, 6}


def test_round_budget():
    src = """
    n(z).
    n(s(X)) :- n(X).
    """
    engine = BottomUpEngine(load_program(src),
                            governor=ResourceGovernor(Budget(rounds=10)))
    with pytest.raises(PrologError):
        engine.evaluate()


# ----------------------------------------------------------------------
# magic sets


def test_adornment_of():
    goal, _ = parse_query("p(a, X, f(Y))")
    assert adornment_of(goal) == "bff"
    goal, _ = parse_query("p(g(1), 2)")
    assert adornment_of(goal) == "bb"


def test_adorn_reaches_only_needed():
    program = load_program(GRAPH + "unused(x) :- edge(x, x).\n")
    goal, _ = parse_query("path(a, X)")
    adorned = adorn_program(program, goal)
    names = {ind[0] for ind in adorned.program.predicates()}
    assert "path__bf" in names
    assert all("unused" not in n for n in names)


def test_magic_restricts_computation():
    program = load_program(GRAPH)
    goal, _ = parse_query("path(a, X)")
    magic_program, adorned_query = magic_transform(program, goal)
    engine = BottomUpEngine(magic_program)
    results = magic_answers(engine.facts(adorned_query.indicator), adorned_query)
    assert len(results) == 4
    # goal-directed: no path facts for the d column (d reaches nothing)
    all_path = engine.facts(("path__bf", 2))
    assert all(f.args[0] != "d" for f in all_path)


def test_magic_on_append_terminates():
    src = """
    ap([], Ys, Ys).
    ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
    """
    program = load_program(src)
    goal, _ = parse_query("ap([1,2], [3], Z)")
    magic_program, adorned_query = magic_transform(program, goal)
    engine = BottomUpEngine(magic_program,
                            governor=ResourceGovernor(Budget(rounds=50)))
    results = magic_answers(engine.facts(adorned_query.indicator), adorned_query)
    assert len(results) == 1
    assert term_to_str(results[0].args[2]) == "[1,2,3]"


def test_supplementary_agrees_with_plain_magic():
    program = load_program(GRAPH)
    goal, _ = parse_query("path(a, X)")
    m1, q1 = magic_transform(program, goal)
    m2, q2 = supplementary_transform(program, goal)
    a1 = {variant_key(t) for t in magic_answers(BottomUpEngine(m1).facts(q1.indicator), q1)}
    a2 = {variant_key(t) for t in magic_answers(BottomUpEngine(m2).facts(q2.indicator), q2)}
    assert a1 == a2


def test_magic_matches_tabled_calls():
    """The paper's section 3.1 equivalence: magic facts == tabled calls."""
    program = load_program(GRAPH + ":- table path/2.\n")
    engine = TabledEngine(program)
    engine.solve(parse_term("path(a, X)"))
    tabled_calls = {
        table.call.args[0]
        for table in engine.tables_by_pred[("path", 2)]
    }
    goal, _ = parse_query("path(a, X)")
    magic_program, _ = magic_transform(load_program(GRAPH), goal)
    bottom_up = BottomUpEngine(magic_program)
    magic_calls = {f.args[0] for f in bottom_up.facts(("m_path__bf", 1))}
    assert tabled_calls == magic_calls
