"""SCC-guided bottom-up evaluation vs the flat baseline."""

import pytest

from repro.benchdata.loader import load_prolog_benchmark
from repro.core.groundness import abstract_program
from repro.engine.bottomup import BottomUpEngine
from repro.engine.builtins import PrologError
from repro.magic.magic import magic_answers, magic_transform
from repro.obs import Observer, use_observer
from repro.prolog import load_program, parse_term
from repro.runtime.budget import (
    Budget,
    Cancelled,
    DeadlineExceeded,
    ResourceGovernor,
)
from repro.runtime.faultinject import FaultInjector
from repro.terms import term_to_str, variant_key

GRAPH = """
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
reachable(X) :- path(a, X).
"""


def model(engine: BottomUpEngine):
    engine.evaluate()
    return {
        indicator: {variant_key(f) for f in relation.facts}
        for indicator, relation in engine.relations.items()
        if relation.facts
    }


def both_models(src_or_program, **kw):
    if isinstance(src_or_program, str):
        src_or_program = load_program(src_or_program)
    scc = BottomUpEngine(src_or_program, scc=True, **kw)
    flat = BottomUpEngine(src_or_program, scc=False, **kw)
    return scc, flat, model(scc), model(flat)


def test_models_agree_on_layered_program():
    scc, flat, m1, m2 = both_models(GRAPH)
    assert m1 == m2
    assert {term_to_str(f) for f in scc.facts(("reachable", 1))} == {
        "reachable(b)",
        "reachable(c)",
        "reachable(d)",
    }


def test_scc_condensation_detected():
    scc, flat, m1, m2 = both_models(GRAPH)
    assert m1 == m2
    assert scc.scc_count > 1
    assert flat.scc_count == 0  # flat mode never builds the graph


# Two recursive layers (le/2 over a successor chain) feeding two
# non-recursive strata: the flat loop re-fires upstream rules in every
# round a downstream delta churns, the SCC schedule does not.
LAYERED_RECURSION = """
n(z). n(s(z)).
le(X, X) :- n(X).
le(X, s(Y)) :- le(X, Y), n(s(Y)).
lt(X, Y) :- le(s(X), Y).
m(X, Y) :- lt(X, Y), n(X), n(Y).
"""


def test_scc_mode_fires_fewer_rules():
    scc, flat, m1, m2 = both_models(LAYERED_RECURSION)
    assert m1 == m2
    assert scc.rule_firings < flat.rule_firings
    assert scc.scc_count > 1


def test_non_recursive_program_single_pass():
    src = "a(1). b(X) :- a(X). c(X) :- b(X). d(X) :- c(X)."
    scc, flat, m1, m2 = both_models(src)
    assert m1 == m2
    # every rule fires exactly once: no semi-naive iteration at all
    assert scc.rule_firings == 3
    assert scc.rounds == 0


def test_non_ground_facts_supported_in_both_modes():
    src = "base(X, X).\nlift(f(X), Y) :- base(X, Y)."
    scc, flat, m1, m2 = both_models(src)
    assert m1 == m2
    (fact,) = scc.facts(("lift", 2))
    # same non-ground fact up to variable renaming
    assert variant_key(fact) == variant_key(parse_term("lift(f(A), A)"))


def test_builtin_bodies_agree():
    src = """
    n(1). n(2). n(3).
    double(X, Y) :- n(X), Y is X * 2.
    big(X) :- n(X), X > 1.
    """
    scc, flat, m1, m2 = both_models(src)
    assert m1 == m2
    assert len(scc.facts(("double", 2))) == 3
    assert len(scc.facts(("big", 1))) == 2


def test_builtin_only_body_rules_fire_in_both_modes():
    src = "answer(X) :- X is 6 * 7."
    scc, flat, m1, m2 = both_models(src)
    assert m1 == m2
    assert [term_to_str(f) for f in scc.facts(("answer", 1))] == ["answer(42)"]
    assert [term_to_str(f) for f in flat.facts(("answer", 1))] == ["answer(42)"]


def test_round_budget_still_enforced():
    src = "n(z).\nn(s(X)) :- n(X)."
    with pytest.raises(PrologError, match="round budget"):
        BottomUpEngine(load_program(src), max_rounds=5, scc=True).evaluate()
    with pytest.raises(PrologError, match="round budget"):
        BottomUpEngine(load_program(src), max_rounds=5, scc=False).evaluate()


def test_scc_gauges_set():
    source = """
    n(1). n(2).
    p(X) :- n(X), q(X).
    q(X) :- n(X).
    q(X) :- p(X).
    r(X) :- q(X).
    """
    observer = Observer()
    with use_observer(observer):
        engine = BottomUpEngine(load_program(source)).evaluate()
    gauges = observer.registry.gauges
    assert engine.scc_count == 3  # n, {p, q}, r
    assert gauges["engine.scc.components"].value == 3
    assert gauges["engine.scc.largest_component"].value == 2


# Two recursive components that only share a base relation.
TWO_TOWERS = """
num(z). num(s(z)). num(s(s(z))). num(s(s(s(z)))). num(s(s(s(s(z))))).
up(X, X) :- num(X).
up(X, s(Y)) :- up(X, Y), num(s(Y)).
down(X, X) :- num(X).
down(s(X), Y) :- down(X, Y), num(X).
"""


def test_budget_trip_mid_evaluation_reports_spend_and_ends_spans():
    governor = ResourceGovernor(
        Budget(), fault=FaultInjector(event="rounds", at=3, kind="deadline")
    )
    observer = Observer()
    with use_observer(observer):
        engine = BottomUpEngine(load_program(TWO_TOWERS), governor=governor)
        with pytest.raises(DeadlineExceeded):
            engine.evaluate()
    spans = observer.tracer.spans()
    (span,) = [s for s in spans if s.name == "engine.bottomup.evaluate"]
    assert span.status == "exhausted"
    trips = [e for e in span.events if e["name"] == "resource_exhausted"]
    assert trips and trips[0]["kind"] == "deadline"
    assert all(s.end is not None for s in spans)
    # the counters live on the engine, so the tripped run reports its spend
    assert engine.rounds >= 1
    assert engine.rounds == governor.spent["rounds"] == span.attrs["rounds"]
    assert observer.registry.counter("engine.bottomup.rounds").value == engine.rounds


def test_cancelled_governor_trips_run():
    governor = ResourceGovernor(Budget())
    governor.cancel()
    engine = BottomUpEngine(load_program(TWO_TOWERS), governor=governor)
    with pytest.raises(Cancelled):
        engine.evaluate()


def test_holds_is_mode_independent():
    for scc in (True, False):
        engine = BottomUpEngine(load_program(GRAPH), scc=scc)
        answers = {term_to_str(t) for t in engine.holds(parse_term("path(a, W)"))}
        assert answers == {"path(a,b)", "path(a,c)", "path(a,d)"}


def test_evaluate_is_idempotent():
    engine = BottomUpEngine(load_program(GRAPH))
    first = model(engine)
    firings = engine.rule_firings
    engine.evaluate()
    assert model(engine) == first
    assert engine.rule_firings == firings


@pytest.mark.parametrize("name", ["qsort", "queens", "pg", "plan"])
def test_magic_programs_agree_across_modes(name):
    """Magic-transformed groundness programs: same answers, fewer firings."""
    abstract, info = abstract_program(load_prolog_benchmark(name))
    query = info.entry_points[0]
    magic, adorned_query = magic_transform(abstract, query)
    scc, flat, m1, m2 = both_models(magic)
    assert m1 == m2
    query_relation = (
        adorned_query.indicator if hasattr(adorned_query, "indicator") else None
    )
    if query_relation is not None:
        a1 = magic_answers(scc.facts(query_relation), adorned_query)
        a2 = magic_answers(flat.facts(query_relation), adorned_query)
        assert {variant_key(t) for t in a1} == {variant_key(t) for t in a2}
    assert scc.rule_firings <= flat.rule_firings


@pytest.mark.parametrize("name", ["plan", "gabriel", "disj"])
def test_abstract_programs_fire_fewer_rules(name):
    """Plain groundness programs are layered: the SCC schedule wins."""
    abstract, _info = abstract_program(load_prolog_benchmark(name))
    scc, flat, m1, m2 = both_models(abstract)
    assert m1 == m2
    assert scc.rule_firings < flat.rule_firings
