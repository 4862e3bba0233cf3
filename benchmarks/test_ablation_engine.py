"""E10 — engine-option ablations (paper sections 4.2 and 6.2).

* scheduling strategy: depth-biased (lifo) vs breadth-first (fifo),
  for groundness and for strictness (equal results required of both);
* supplementary tabling on/off for strictness — the paper leaves its
  effectiveness "to be established"; we establish it;
* call subsumption / open calls for bottom-up-style evaluation.
"""

import time

import pytest

from repro.benchdata import (
    funlang_benchmark_names,
    load_funlang_benchmark,
    load_prolog_benchmark,
)
from repro.core import analyze_groundness
from repro.core.strictness import analyze_strictness
from repro.engine import TabledEngine
from repro.prolog import load_program, parse_term
from repro.terms import term_to_str


@pytest.mark.parametrize("name", ["qsort", "kalah", "press1"])
def test_scheduling_strategies(benchmark, name):
    program = load_prolog_benchmark(name)

    def run():
        lifo = analyze_groundness(program, scheduling="lifo")
        fifo = analyze_groundness(program, scheduling="fifo")
        return lifo, fifo

    lifo, fifo = benchmark.pedantic(run, rounds=2, iterations=1)
    for indicator in program.predicates():
        assert lifo[indicator].success == fifo[indicator].success
    benchmark.extra_info.update(
        {
            "lifo_ms": round(lifo.total_time * 1000, 2),
            "fifo_ms": round(fifo.total_time * 1000, 2),
            "lifo_tasks": lifo.stats["tasks"],
            "fifo_tasks": fifo.stats["tasks"],
        }
    )


@pytest.mark.parametrize("name", funlang_benchmark_names())
def test_strictness_scheduling_strategies(benchmark, name):
    """Answer subsumption keeps strictness demands schedule-independent."""
    program = load_funlang_benchmark(name)

    def run():
        lifo = analyze_strictness(program, scheduling="lifo")
        fifo = analyze_strictness(program, scheduling="fifo")
        return lifo, fifo

    lifo, fifo = benchmark.pedantic(run, rounds=1, iterations=1)
    assert lifo.completeness == fifo.completeness == "exact"
    for key, fs in lifo.functions.items():
        other = fifo[key]
        assert (fs.demand_e, fs.demand_d) == (other.demand_e, other.demand_d), key
    benchmark.extra_info.update(
        {
            "lifo_ms": round(lifo.total_time * 1000, 2),
            "fifo_ms": round(fifo.total_time * 1000, 2),
            "lifo_tasks": lifo.stats["tasks"],
            "fifo_tasks": fifo.stats["tasks"],
        }
    )


@pytest.mark.parametrize("name", ["eu", "mergesort", "quicksort", "odprove"])
def test_supplementary_tabling(benchmark, name):
    """Supplementary tabling must cut the task count on nested programs."""
    program = load_funlang_benchmark(name)

    def run():
        with_supp = analyze_strictness(program, supplementary=True)
        without = analyze_strictness(program, supplementary=False)
        return with_supp, without

    with_supp, without = benchmark.pedantic(run, rounds=1, iterations=1)
    for key in with_supp.functions:
        a, b = with_supp[key], without[key]
        assert (a.demand_e, a.demand_d) == (b.demand_e, b.demand_d), key
    benchmark.extra_info.update(
        {
            "supp_ms": round(with_supp.total_time * 1000, 2),
            "no_supp_ms": round(without.total_time * 1000, 2),
            "supp_tasks": with_supp.stats["tasks"],
            "no_supp_tasks": without.stats["tasks"],
        }
    )
    # establishing the paper's conjecture: fewer tasks with supplementary
    assert with_supp.stats["tasks"] <= without.stats["tasks"]


_DATALOG = """
:- table reach/2.
edge(a,b). edge(b,c). edge(c,d). edge(d,e). edge(e,a). edge(b,e).
reach(X,Y) :- edge(X,Y).
reach(X,Y) :- reach(X,Z), edge(Z,Y).
"""


def test_subsumption_open_calls(benchmark):
    """Section 6.2's open-call strategy: one table serves all calls."""
    program = load_program(_DATALOG)

    def run():
        plain = TabledEngine(program)
        for node in "abcde":
            plain.solve(parse_term(f"reach({node}, W)"))
        open_strategy = TabledEngine(program, open_calls=True)
        for node in "abcde":
            open_strategy.solve(parse_term(f"reach({node}, W)"))
        return plain, open_strategy

    plain, open_strategy = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info.update(
        {
            "variant_tables": len(plain.tables),
            "open_call_tables": len(open_strategy.tables),
            "variant_tasks": plain.stats.tasks,
            "open_call_tasks": open_strategy.stats.tasks,
        }
    )
    assert len(open_strategy.tables) < len(plain.tables)
    # both strategies agree on the answers
    a = sorted(term_to_str(t) for t in plain.solve(parse_term("reach(a, W)")))
    b = sorted(term_to_str(t) for t in open_strategy.solve(parse_term("reach(a, W)")))
    assert a == b
