"""Strictness analysis: Figure 3/4 fidelity, soundness vs execution."""

import pytest

from repro.benchdata import load_funlang_benchmark
from repro.core.strictness import (
    analyze_strictness,
    demand_join,
    demand_meet,
    strictness_program,
    sp_name,
)
from repro.funlang import (
    Divergence,
    LazyInterpreter,
    parse_fun_program,
)

AP = """
ap(Nil, ys) = ys.
ap(Cons(x, xs), ys) = Cons(x, ap(xs, ys)).
"""


def test_demand_lattice():
    assert demand_meet("e", "d") == "d"
    assert demand_meet("d", "n") == "n"
    assert demand_join("n", "d") == "d"
    assert demand_join("e", "n") == "e"
    for x in "edn":
        assert demand_meet(x, x) == x
        assert demand_join(x, x) == x


def test_paper_ap_example():
    """Section 3.2: ap is ee-strict in both args, d-strict in the first."""
    result = analyze_strictness(parse_fun_program(AP))
    ap = result[("ap", 2)]
    assert ap.demand_e == ("e", "e")
    assert ap.demand_d == ("d", "n")
    assert ap.is_strict(0)
    assert not ap.is_strict(1)
    assert ap.is_ee_strict(0) and ap.is_ee_strict(1)


@pytest.mark.parametrize("encoding", ["compact", "enumerated"])
@pytest.mark.parametrize("supplementary", [True, False])
def test_configuration_invariance(encoding, supplementary):
    result = analyze_strictness(
        parse_fun_program(AP), encoding=encoding, supplementary=supplementary
    )
    ap = result[("ap", 2)]
    assert (ap.demand_e, ap.demand_d) == (("e", "e"), ("d", "n"))


def test_ignored_argument():
    result = analyze_strictness(parse_fun_program("k(x, y) = x.\n"))
    k = result[("k", 2)]
    assert k.demand_d == ("d", "n")
    assert k.demand_e == ("e", "n")


def test_nonlinear_rhs_joins_demands():
    """x used twice: its demand is the lub, soundly."""
    src = """
    dup(x) = Pair(x, x).
    addself(x) = x + x.
    """
    result = analyze_strictness(parse_fun_program(src))
    assert result[("dup", 1)].demand_e == ("e",)
    assert result[("dup", 1)].demand_d == ("n",)
    assert result[("addself", 1)].demand_d == ("e",)  # flat: forced fully


def test_if_strict_in_condition_only():
    src = "sel(c, a, b) = if(c, a, b).\n"
    result = analyze_strictness(parse_fun_program(src))
    sel = result[("sel", 3)]
    assert sel.demand_d[0] in ("d", "e")
    assert sel.demand_d[1] == "n"
    assert sel.demand_d[2] == "n"


def test_primitives_force_arguments():
    result = analyze_strictness(parse_fun_program("add(x, y) = x + y.\n"))
    assert result[("add", 2)].demand_d == ("e", "e")


def test_literal_patterns():
    src = """
    z(0) = 1.
    z(n) = n * z(n - 1).
    """
    result = analyze_strictness(parse_fun_program(src))
    # the argument is flat (an int): full evaluation is guaranteed
    assert result[("z", 1)].demand_d == ("e",)
    assert result[("z", 1)].is_strict(0)


def test_bottom_rhs_claims_nothing():
    src = "loopy(x) = bottom.\n"
    result = analyze_strictness(parse_fun_program(src))
    # bottom places no demand: the sound minimal claim is n
    assert result[("loopy", 1)].demand_e == ("n",)
    assert result[("loopy", 1)].demand_d == ("n",)


def test_strictness_program_structure():
    program, functions = strictness_program(parse_fun_program(AP))
    assert functions == [("ap", 2)]
    assert (sp_name("ap"), 3) in program.tabled
    # n-demand clause exists
    clauses = program.clauses_for((sp_name("ap"), 3))
    assert any(c.is_fact() and c.head.args[0] == "n" for c in clauses)


# ----------------------------------------------------------------------
# Soundness validated against the lazy interpreter: wherever the
# analysis claims strictness, feeding bottom must diverge.

VALIDATION_PROGRAM = """
ap(Nil, ys) = ys.
ap(Cons(x, xs), ys) = Cons(x, ap(xs, ys)).
len(Nil) = 0.
len(Cons(x, xs)) = 1 + len(xs).
headplus(Cons(x, xs), y) = x + y.
k(x, y) = x.
"""


def test_claims_validated_by_divergence():
    program = parse_fun_program(VALIDATION_PROGRAM)
    result = analyze_strictness(program)
    interp = LazyInterpreter(program)

    # d-strict claims: f(..., bottom, ...) to WHNF must diverge
    checks = [
        ("ap", 2, "ap(bottom, Nil)"),
        ("len", 1, "len(bottom)"),
        ("headplus", 2, "headplus(bottom, 1)"),
        ("headplus", 2, "headplus(Cons(1, Nil), bottom)"),
    ]
    for fname, arity, expr in checks:
        with pytest.raises(Divergence):
            interp.run(expr, to="whnf")

    # non-strict positions must NOT diverge when only they hold bottom
    assert interp.run("k(1, bottom)", to="whnf") == 1
    assert interp.run("ap(Cons(1, bottom), Nil)", to="whnf") == "Cons"
    # and the analysis indeed claims non-strictness there
    assert result[("k", 2)].demand_d[1] == "n"
    assert result[("ap", 2)].demand_d[1] == "n"


def test_ee_strictness_validated():
    program = parse_fun_program(VALIDATION_PROGRAM)
    result = analyze_strictness(program)
    interp = LazyInterpreter(program)
    assert result[("ap", 2)].is_ee_strict(1)
    # NF demand on ap's result with bottom inside arg2 diverges
    # (run() evaluates to full normal form — an e-demand)
    with pytest.raises(Divergence):
        interp.run("ap(Nil, Cons(bottom, Nil))")


def _demands(result):
    return {
        key: (fs.demand_e, fs.demand_d) for key, fs in result.functions.items()
    }


@pytest.mark.parametrize("name", ["eu", "mergesort", "nq", "quicksort"])
def test_demands_do_not_depend_on_the_schedule(name):
    program = load_funlang_benchmark(name)
    lifo = analyze_strictness(program, scheduling="lifo")
    fifo = analyze_strictness(program, scheduling="fifo")
    assert lifo.completeness == fifo.completeness == "exact"
    assert _demands(lifo) == _demands(fifo)
