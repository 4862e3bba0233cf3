"""Stratified negation in the bottom-up engine.

The semantics under test: a negative literal ``\\+ G`` is
negation-as-failure against the *frozen* relations of strictly lower
strata — evaluated only once every predicate reachable under the
negation has completed.  Unstratified programs must be rejected up
front with the same ``unstratified-negation`` diagnostic the lint pass
reports, not evaluated wrongly or crashed generically.
"""

import pytest

from repro.analysis.depgraph import DependencyGraph
from repro.analysis.stratify import stratum_numbers, unstratified_sites
from repro.engine.bottomup import BottomUpEngine, UnstratifiedProgramError
from repro.engine.builtins import PrologError
from repro.obs import Observer, use_observer
from repro.prolog import load_program
from repro.prolog.parser import parse_term


def facts_of(source: str, name: str, arity: int, **kwargs) -> set[str]:
    from repro.terms.term import term_to_str

    engine = BottomUpEngine(load_program(source), **kwargs).evaluate()
    return {term_to_str(f) for f in engine.facts((name, arity))}


REACH = """
edge(a,b). edge(b,c). edge(c,d). edge(d,b). edge(e,f).
node(a). node(b). node(c). node(d). node(e). node(f).
reach(a).
reach(Y) :- reach(X), edge(X,Y).
unreachable(X) :- node(X), \\+ reach(X).
"""


def test_negation_against_completed_lower_stratum():
    assert facts_of(REACH, "unreachable", 1) == {
        "unreachable(e)",
        "unreachable(f)",
    }


def test_negation_with_builtins_and_conjunction():
    source = """
    num(1). num(2). num(3). num(4).
    big(X) :- num(X), X > 2.
    small(X) :- num(X), \\+ (big(X)).
    odd_small(X) :- small(X), \\+ (X =:= 2).
    """
    assert facts_of(source, "small", 1) == {"small(1)", "small(2)"}
    assert facts_of(source, "odd_small", 1) == {"odd_small(1)"}


def test_nested_negation_is_double_negation():
    source = """
    a(1). a(2). b(2).
    c(X) :- a(X), \\+ \\+ b(X).
    """
    assert facts_of(source, "c", 1) == {"c(2)"}


def test_negated_conjunction_and_disjunction():
    source = """
    a(1). a(2). a(3). b(2). c(3).
    d(X) :- a(X), \\+ (b(X) ; c(X)).
    e(X) :- a(X), \\+ (a(X), b(X)).
    """
    assert facts_of(source, "d", 1) == {"d(1)"}
    assert facts_of(source, "e", 1) == {"e(1)", "e(3)"}


def test_not_alias():
    source = "p(1). p(2). q(2). r(X) :- p(X), not(q(X))."
    assert facts_of(source, "r", 1) == {"r(1)"}


def test_negation_of_undefined_predicate_holds_vacuously():
    source = "p(1). r(X) :- p(X), \\+ q(X)."
    assert facts_of(source, "r", 1) == {"r(1)"}


def test_three_strata():
    source = """
    p(1). p(2). p(3). q(2).
    s(X) :- p(X), \\+ q(X).
    u(X) :- p(X), \\+ s(X).
    """
    assert facts_of(source, "s", 1) == {"s(1)", "s(3)"}
    assert facts_of(source, "u", 1) == {"u(2)"}


def test_independent_components_in_each_stratum():
    source = """
    p(1). p(2). p(3). q(2). q(4). r(3). r(5).
    s(X) :- p(X), \\+ q(X).
    t(X) :- p(X), \\+ r(X).
    u(X) :- p(X), \\+ s(X), \\+ t(X).
    v(X) :- q(X), \\+ p(X).
    """
    assert facts_of(source, "s", 1) == {"s(1)", "s(3)"}
    assert facts_of(source, "t", 1) == {"t(1)", "t(2)"}
    assert facts_of(source, "u", 1) == set()
    assert facts_of(source, "v", 1) == {"v(4)"}


def test_negation_inside_negated_conjunction():
    source = """
    a(1). a(2). a(3). b(2). c(3).
    f(X) :- a(X), \\+ (b(X), \\+ c(X)).
    """
    assert facts_of(source, "f", 1) == {"f(1)", "f(3)"}


def test_strata_recorded_on_engine():
    engine = BottomUpEngine(load_program(REACH)).evaluate()
    assert engine.strata[("unreachable", 1)] == 1
    assert engine.strata[("reach", 1)] == 0
    assert engine.strata[("edge", 2)] == 0


WIN = "move(a,b). move(b,a).\nwin(X) :- move(X,Y), \\+ win(Y)."


def test_unstratified_program_rejected():
    with pytest.raises(UnstratifiedProgramError) as info:
        BottomUpEngine(load_program(WIN)).evaluate()
    error = info.value
    assert error.rule == "unstratified-negation"
    assert "unstratified-negation" in str(error)
    # the carried diagnostics are exactly what the lint pass reports
    expected = unstratified_sites(DependencyGraph(load_program(WIN)))
    assert [d.rule for d in error.diagnostics] == [d.rule for d in expected]
    assert [d.predicate for d in error.diagnostics] == [
        d.predicate for d in expected
    ]


def test_negation_requires_scc_mode():
    with pytest.raises(PrologError, match="scc"):
        BottomUpEngine(load_program(REACH), scc=False).evaluate()


def test_negation_free_flat_mode_still_works():
    source = "p(1). q(X) :- p(X)."
    assert facts_of(source, "q", 1, scc=False) == {"q(1)"}


def test_neg_checks_counted_and_metered():
    obs = Observer()
    with use_observer(obs):
        engine = BottomUpEngine(load_program(REACH), obs=obs).evaluate()
    assert engine.neg_checks == 6  # one per node/1 fact
    assert obs.registry.counter("engine.negation.calls").value == 6


def test_negation_binds_nothing():
    # X must come from node/1; the negation only filters
    engine = BottomUpEngine(load_program(REACH)).evaluate()
    for fact in engine.facts(("unreachable", 1)):
        assert fact.args[0] in ("e", "f")


# ----------------------------------------------------------------------
# stratify.stratum_numbers hardening (the latent-KeyError regression)


def test_stratum_numbers_tolerates_unknown_successor():
    """A successor absent from the SCC index (graph mutated after
    condensation, or malformed input) must be skipped, not KeyError."""
    graph = DependencyGraph(load_program("p(X) :- q(X). q(1)."))
    graph.sccs()  # freeze the condensation
    graph.succ[("p", 1)].add(("ghost", 7))  # edge to a node no SCC holds
    numbers = stratum_numbers(graph)
    assert numbers is not None
    assert numbers[("p", 1)] == 0


def test_stratum_numbers_unstratified_is_none():
    assert stratum_numbers(DependencyGraph(load_program(WIN))) is None
