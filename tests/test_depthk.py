"""Depth-k abstract-term analysis: abstract unification, truncation."""

from repro.core.depthk import (
    GAMMA,
    abstract_unify,
    analyze_depthk,
    depth_truncate,
    is_abstractly_ground,
    truncate_goal,
)
from repro.core import analyze_groundness
from repro.prolog import load_program, parse_term
from repro.terms import (
    EMPTY_SUBST,
    Struct,
    Var,
    fresh_var,
    term_variables,
    variant_key,
)


def test_gamma_unifies_with_ground():
    s = abstract_unify(GAMMA, "a", EMPTY_SUBST)
    assert s is not None
    s = abstract_unify(GAMMA, parse_term("f(a, 1)"), EMPTY_SUBST)
    assert s is not None


def test_gamma_grounds_variables():
    x = fresh_var()
    t = Struct("f", (x, "a"))
    s = abstract_unify(GAMMA, t, EMPTY_SUBST)
    assert s.resolve(x) == GAMMA


def test_gamma_gamma():
    assert abstract_unify(GAMMA, GAMMA, EMPTY_SUBST) is not None


def test_plain_mismatch_fails():
    assert abstract_unify("a", "b", EMPTY_SUBST) is None
    assert abstract_unify(parse_term("f(X)"), parse_term("g(Y)"), EMPTY_SUBST) is None


def test_abstract_unify_occur_check():
    """Section 5: abstract unification performs the occur check."""
    x = fresh_var()
    assert abstract_unify(x, Struct("f", (x,)), EMPTY_SUBST) is None


def test_structural_recursion():
    s = abstract_unify(parse_term("f(X, g(X))"), parse_term("f(a, Y)"), EMPTY_SUBST)
    assert s is not None
    assert s.resolve(parse_term("Y")) is not None


def test_depth_truncate():
    deep = parse_term("f(g(h(i(a))))")
    truncated = depth_truncate(deep, 2)
    # the ground subtree below depth 2 became gamma
    assert truncated == Struct("f", (Struct("g", (GAMMA,)),))
    x = fresh_var()
    deep_nonground = Struct("f", (Struct("g", (Struct("h", (x,)),)),))
    truncated = depth_truncate(deep_nonground, 2)
    inner = truncated.args[0].args[0]
    assert isinstance(inner, Var)


def test_truncate_integers_to_gamma():
    t = parse_term("f(42, X)")
    out = truncate_goal(t, 2)
    assert out.args[0] == GAMMA
    out = truncate_goal(t, 2, abstract_integers=False)
    assert out.args[0] == 42


def test_is_abstractly_ground():
    assert is_abstractly_ground(GAMMA)
    assert is_abstractly_ground(parse_term("f('$gamma', a)"))
    assert not is_abstractly_ground(parse_term("f(X)"))


def test_depthk_qsort_groundness():
    src = """
    :- entry_point(qs(g, any)).
    qs([], []).
    qs([X|Xs], S) :- part(X, Xs, L, G), qs(L, SL), qs(G, SG), ap(SL, [X|SG], S).
    part(_, [], [], []).
    part(P, [X|Xs], [X|L], G) :- X =< P, part(P, Xs, L, G).
    part(P, [X|Xs], L, [X|G]) :- X > P, part(P, Xs, L, G).
    ap([], Ys, Ys).
    ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
    """
    program = load_program(src)
    result = analyze_depthk(program, depth=2)
    assert result[("qs", 2)].ground_on_success == (True, True)
    assert result[("ap", 3)].ground_on_success == (True, True, True)
    # shape information present: answers are list-shaped abstract terms
    shapes = result[("qs", 2)].shapes()
    assert any("[" in s for s in shapes)
    assert result.table_space > 0


def test_depthk_consistent_with_prop_on_entries():
    """Where depth-k claims groundness, Prop execution agrees (both sound)."""
    src = """
    :- entry_point(r(g, any)).
    r(X, Y) :- b(X, Y).
    b(a, f(a)).
    b(b, f(b)).
    """
    program = load_program(src)
    dk = analyze_depthk(program, depth=2)
    prop = analyze_groundness(program)
    assert dk[("r", 2)].ground_on_success == (True, True)
    assert prop[("r", 2)].ground_on_success == (True, True)


def test_depthk_detects_nonground():
    src = "p(X, f(X)).\nq(Y) :- p(_, Y)."
    result = analyze_depthk(load_program(src), depth=2)
    assert result[("p", 2)].ground_on_success == (False, False)


def test_depth_one_coarser_than_depth_three():
    src = """
    deep(f(g(h(a)))).
    deep(f(g(h(b)))).
    """
    fine = analyze_depthk(load_program(src), depth=3)
    coarse = analyze_depthk(load_program(src), depth=1)
    assert len(coarse[("deep", 1)].answers) <= len(fine[("deep", 1)].answers)
    # both remain sound about groundness
    assert coarse[("deep", 1)].ground_on_success == (True,)
    assert fine[("deep", 1)].ground_on_success == (True,)


def test_answer_subsumption_keeps_answers_no_kept_answer_covers():
    # m(C, [Y, C | T]) is an instance of no m(X, [X | _]): only a
    # subsumption check that binds the answer's own variables (C := Y)
    # could drop the second clause's shapes
    program = load_program("m(C, [C|_]).\nm(C, [_|Cs]) :- m(C, Cs).\n")
    expected = {
        2: ["m(A, [A|B])", "m(A, [B, C|D])"],
        3: ["m(A, [A|B])", "m(A, [B, A|C])", "m(A, [B, C, D|E])"],
    }
    for depth, shapes in expected.items():
        answers = analyze_depthk(program, depth=depth)[("m", 2)].answers
        kept = sorted(variant_key(Struct("m", a.args)) for a in answers)
        assert kept == sorted(variant_key(parse_term(s)) for s in shapes)
