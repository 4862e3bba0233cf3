"""The groundness-flow mode checker (`repro.analysis.modecheck`).

Three layers of coverage: the golden seeded-bug corpus
(``tests/data/modecheck_bugs.pl``, with pinned file:line positions and
call-pattern witnesses), a zero-false-positive sweep over every shipped
benchmark, and unit tests of the mode table, the determinism lattice
and the degradation ladder.
"""

from pathlib import Path

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.lint import lint_program
from repro.analysis.modecheck import (
    ModeReport,
    check_modes,
    entry_patterns,
)
from repro.analysis.modes import (
    BUILTIN_MODE_TABLE,
    Determinism,
    alternation,
    join,
    lenient_reads_writes,
    missing_builtin_modes,
    seq,
)
from repro.analysis.safety import BUILTIN_MODES
from repro.benchdata.loader import load_prolog_benchmark, prolog_benchmark_names
from repro.prolog.parser import Clause, parse_term
from repro.prolog.program import Program, load_program
from repro.runtime.budget import Budget
from repro.terms import Struct, Var

BUGS = Path(__file__).parent / "data" / "modecheck_bugs.pl"


def load_file(path):
    return load_program(Path(path).read_text(encoding="utf-8"))


def check_file(path):
    return check_modes(load_file(path), filename=str(path))


# ----------------------------------------------------------------------
# Golden corpus: every seeded bug, exact location + witness


def bug_report():
    return check_file(BUGS)


def findings(report):
    return {(d.line, d.rule, d.severity) for d in report.diagnostics}


def test_seeded_bugs_all_detected_with_exact_locations():
    report = bug_report()
    assert findings(report) == {
        (10, "instantiation-error", Severity.ERROR),
        (10, "mode-conflict", Severity.ERROR),
        (19, "instantiation-error", Severity.WARNING),
        (24, "unsafe-negation", Severity.WARNING),
        (33, "redundant-clause", Severity.WARNING),
        (37, "redundant-clause", Severity.WARNING),
    }
    assert report.completeness == "prop"


def test_diagnostics_carry_file_and_call_pattern_witness():
    report = bug_report()
    by_rule = {}
    for d in report.diagnostics:
        by_rule.setdefault((d.line, d.rule), d)
    certain = by_rule[(10, "instantiation-error")]
    assert certain.file == str(BUGS)
    assert certain.witness == "area(f)"
    assert "nothing on any path" in certain.message
    possible = by_rule[(19, "instantiation-error")]
    assert possible.witness == "use(f)"
    assert "groundness analysis cannot prove" in possible.message
    assert by_rule[(24, "unsafe-negation")].witness == "check(b)"
    assert by_rule[(33, "redundant-clause")].witness == "clause 1"


def test_lint_integrates_mode_diagnostics():
    report = lint_program(load_file(BUGS), filename=str(BUGS))
    rules = {d.rule for d in report.diagnostics}
    assert {"instantiation-error", "mode-conflict", "unsafe-negation",
            "redundant-clause"} <= rules


# ----------------------------------------------------------------------
# Zero false positives over the working benchmark suite


@pytest.mark.parametrize("name", prolog_benchmark_names())
def test_benchmarks_are_mode_clean(name):
    report = check_modes(load_prolog_benchmark(name))
    assert report.completeness == "prop"
    assert report.diagnostics == [], [d.format() for d in report.diagnostics]


@pytest.mark.parametrize("name", prolog_benchmark_names())
def test_benchmarks_pass_strict_lint(name):
    report = lint_program(load_prolog_benchmark(name))
    noisy = report.errors() + report.warnings()
    assert noisy == [], [d.format() for d in noisy]


def test_entry_bound_suppresses_head_destructuring_warning():
    """A head variable every call pattern binds is a caller input."""
    source = """
    classify(pair(L, R), left) :- use(L).
    classify(pair(L, R), right) :- use(R).
    use(_).
    """
    without = lint_program(load_program(source))
    assert without.by_rule("unsafe-head-var")
    with_entry = lint_program(
        load_program(source + "\n:- entry_point(classify(g, any)).\n")
    )
    assert with_entry.by_rule("unsafe-head-var") == []


# ----------------------------------------------------------------------
# Entry patterns and the two binding tiers


def test_entry_patterns_from_directives_and_query():
    program = load_program(
        "p(X, Y) :- q(X, Y).\nq(a, b).\n:- entry_point(p(g, any)).\n"
    )
    assert entry_patterns(program) == [(("p", 2), "bf")]
    assert entry_patterns(program, parse_term("q(a, Y)")) == [
        (("p", 2), "bf"),
        (("q", 2), "bf"),
    ]


def test_prop_tier_proves_groundness_and_silences_warning():
    source = """
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
    use(L, Out) :- len(L, N), Out is N + 1.
    :- entry_point(use(g, any)).
    """
    report = check_modes(load_program(source))
    assert report.diagnostics == [], [d.format() for d in report.diagnostics]


def test_adorn_only_mode_keeps_certain_errors_drops_proofs():
    source = """
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
    use(L, Out) :- len(L, N), Out is N + 1.
    area(X) :- X is W * H.
    :- entry_point(use(g, any)).
    :- entry_point(area(any)).
    """
    report = check_modes(load_program(source), use_groundness=False)
    assert report.completeness == "adorn"
    assert report.degraded
    rules = {(d.rule, d.severity) for d in report.diagnostics}
    # the certain error survives; no groundness-tier warnings appear
    assert ("instantiation-error", Severity.ERROR) in rules
    assert ("instantiation-error", Severity.WARNING) not in rules


# ----------------------------------------------------------------------
# Builtin modes at call sites (review regressions)


def test_arg_output_is_ground_and_usable_downstream():
    # arg/3 binds its *extracted* argument (position 2), not position 0:
    # with N and T ground the subterm A is ground on success
    source = """
    p(N, T, X) :- arg(N, T, A), X is A + 1.
    :- entry_point(p(g, g, any)).
    """
    report = check_modes(load_program(source))
    assert report.diagnostics == [], [d.format() for d in report.diagnostics]


def test_univ_construction_accepts_unbound_element_variables():
    # T =.. [f, X, Y] succeeds with X and Y fresh: only the list
    # skeleton and its head must be instantiated
    source = """
    mk(X, Y, T) :- T =.. [f, X, Y].
    :- entry_point(mk(any, any, any)).
    """
    report = check_modes(load_program(source))
    assert report.diagnostics == [], [d.format() for d in report.diagnostics]


def test_univ_skeleton_instantiates_without_grounding():
    # the constructed term is instantiated (optimistic tier) but shares
    # the unbound element variable, so the groundness tier must not
    # claim it ground — the negation over it stays flagged
    source = """
    mk(Out) :- T =.. [f, X], \\+ good(T), Out = T.
    good(f(a)).
    :- entry_point(mk(any)).
    """
    report = check_modes(load_program(source))
    rules = {(d.rule, d.severity) for d in report.diagnostics}
    assert ("unsafe-negation", Severity.WARNING) in rules
    assert ("instantiation-error", Severity.ERROR) not in rules


def test_univ_with_neither_side_instantiated_is_still_an_error():
    source = """
    broken(T) :- T =.. L, helper(L).
    helper(_).
    :- entry_point(broken(any)).
    """
    report = check_modes(load_program(source))
    certain = [
        d for d in report.diagnostics
        if d.rule == "instantiation-error" and d.severity == Severity.ERROR
    ]
    assert len(certain) == 1


def test_univ_skeleton_with_unbound_head_is_still_an_error():
    # [F, x] with F fresh is not a usable skeleton: the functor itself
    # is missing, a certain runtime instantiation error
    source = """
    broken(T) :- T =.. [F, x], helper(F).
    helper(_).
    :- entry_point(broken(any)).
    """
    report = check_modes(load_program(source))
    assert any(
        d.rule == "instantiation-error" and d.severity == Severity.ERROR
        for d in report.diagnostics
    )


def test_certain_error_not_masked_by_earlier_warning_pattern():
    # the bf pattern (processed first) yields only a groundness-tier
    # warning for is/2; the ff pattern then proves a certain error for
    # the same goal — dedup must keep the worse verdict
    source = """
    p(X, Y) :- open(Y), Z is X + Y, helper(Z).
    open(a).
    open(_).
    helper(_).
    :- entry_point(p(g, any)).
    :- entry_point(p(any, any)).
    """
    report = check_modes(load_program(source))
    inst = [d for d in report.diagnostics if d.rule == "instantiation-error"]
    assert len(inst) == 1
    assert inst[0].severity == Severity.ERROR
    assert "nothing on any path" in inst[0].message


# ----------------------------------------------------------------------
# Degradation ladder under a Budget


def demo_program():
    return load_file(Path(__file__).parent.parent / "examples" / "modes_demo.pl")


def test_budget_trips_groundness_backend_to_adorn():
    report = check_modes(demo_program(), budget=Budget(tasks=1))
    assert report.completeness == "adorn"
    assert [e.stage for e in report.events] == ["prop"]
    assert report.groundness is None


def test_budget_trips_flow_to_partial():
    report = check_modes(demo_program(), budget=Budget(steps=1))
    assert report.completeness == "partial"
    assert report.events


def test_budget_trip_in_an_open_groundness_solve_is_partial():
    # the backend fits the budget exactly; the call p(X, Y, Y) then
    # needs p's open call, whose first task trips the shared governor
    from repro.core.groundness import analyze_groundness

    program = load_program(
        ":- entry_point(main(g)).\n"
        "main(X) :- p(X, Y, Y), Z is Y + 1, Z > 0.\n"
        "p(A, B, C) :- B = A, C = A.\n"
    )
    assert check_modes(program).completeness == "prop"
    tasks = analyze_groundness(program).stats["tasks"]
    report = check_modes(program, budget=Budget(tasks=tasks))
    assert report.completeness == "partial"
    assert [(e.stage, e.kind) for e in report.events] == [("prop", "tasks")]


def test_unbudgeted_run_is_complete():
    report = check_modes(demo_program())
    assert report.completeness == "prop"
    assert not report.degraded
    assert report.diagnostics == []


# ----------------------------------------------------------------------
# Determinism estimates


def detism(source, key):
    report = check_modes(load_program(source))
    return {f"{i[0]}/{i[1]}/{a}": d for (i, a), d in report.determinism.items()}[key]


def test_facts_exclusive_under_bound_argument():
    source = "p(a).\np(b).\n:- entry_point(p(g)).\n"
    assert detism(source, "p/1/b") == Determinism.SEMIDET


def test_facts_overlap_under_free_argument():
    source = "p(a).\np(b).\n:- entry_point(p(any)).\n"
    assert detism(source, "p/1/f") == Determinism.MULTI


def test_nondet_builtin_propagates():
    source = "s(N) :- between(1, 3, N).\n:- entry_point(s(any)).\n"
    assert detism(source, "s/1/f") == Determinism.NONDET


def test_complementary_guards_make_partition_semidet():
    report = check_modes(demo_program())
    estimates = {
        f"{i[0]}({a})": d for (i, a), d in report.determinism.items()
    }
    assert estimates["partition(bbff)"] == Determinism.SEMIDET
    assert estimates["qsort(bf)"] == Determinism.SEMIDET
    lines = report.determinism_lines()
    assert "qsort(b,f): semidet" in lines


def test_determinism_lattice_operators():
    det, semi = Determinism.DET, Determinism.SEMIDET
    multi, nondet = Determinism.MULTI, Determinism.NONDET
    assert seq(det, det) == det
    assert seq(det, semi) == semi
    assert seq(semi, multi) == nondet
    assert join(det, semi) == semi
    assert alternation(det, det) == multi
    assert alternation(semi, semi) == Determinism((True, True))
    assert str(nondet) == "nondet"


# ----------------------------------------------------------------------
# The builtin mode table


def test_mode_table_covers_every_engine_builtin():
    assert missing_builtin_modes() == []


def test_safety_view_is_derived_from_the_table():
    assert set(BUILTIN_MODES) == set(BUILTIN_MODE_TABLE)
    # the classic entries keep their legacy lenient semantics
    assert BUILTIN_MODES[("is", 2)] == ((1,), (0,))
    assert BUILTIN_MODES[("<", 2)] == ((0, 1), ())
    assert BUILTIN_MODES[("functor", 3)] == ((), (0, 1, 2))
    assert BUILTIN_MODES[("=", 2)] == ((), (0, 1))


def test_lenient_view_never_marks_read_as_write():
    for indicator in BUILTIN_MODE_TABLE:
        reads, writes = lenient_reads_writes(indicator)
        assert not set(reads) & set(writes), indicator


def test_unknown_builtin_diagnostic(monkeypatch):
    from repro.engine.builtins import DET_BUILTINS

    monkeypatch.setitem(DET_BUILTINS, ("frob", 1), lambda *a: None)
    report = lint_program(load_program("p(X) :- frob(X).\n"))
    unknown = report.by_rule("unknown-builtin")
    assert len(unknown) == 1
    assert "frob/1" in unknown[0].message
    assert unknown[0].severity == Severity.WARNING


# ----------------------------------------------------------------------
# Report plumbing


def test_mode_report_defaults():
    report = ModeReport()
    assert not report.degraded
    assert report.determinism_lines() == []


def test_programs_without_entries_still_get_redundancy_checks():
    report = check_modes(load_program("p(a).\np(a).\n"))
    assert [d.rule for d in report.diagnostics] == ["redundant-clause"]
    assert report.reached == {}


def test_repeated_fact_variable_does_not_subsume_distinct_ones():
    # p(A, B) is no instance of p(X, X): A and B must stay distinct
    report = check_modes(load_program("p(X, X).\np(A, B) :- q(A, B).\nq(a, b).\n"))
    assert "redundant-clause" not in {d.rule for d in report.diagnostics}


def test_colliding_variable_ids_across_clauses_are_no_subsumption():
    # clauses built by a transformation may share variable ids: the
    # later head's X is a constant, not the earlier fact's X
    x = Var(1, "X")
    for earlier, later in [
        (Struct("p", (x, "a")), Struct("p", ("b", x))),
        (Struct("p", (x, x)), Struct("p", ("a", x))),
    ]:
        program = Program()
        program.add_clauses([Clause(earlier, "true"), Clause(later, "true")])
        report = check_modes(program)
        assert "redundant-clause" not in {d.rule for d in report.diagnostics}
