"""The lint driver: run every static check over a program.

:func:`lint_program` builds the dependency graph once and feeds it to
the individual rules; the result is a :class:`~repro.analysis.diagnostics.LintReport`.

Rules and their severities:

==========================  ========  ==================================
rule id                     severity  finding
==========================  ========  ==================================
``undefined-call``          error     call to a predicate with no
                                      clauses, not a builtin, and not
                                      declared ``dynamic``
``unbound-builtin-arg``     error     builtin read position no
                                      occurrence can bind
``unstratified-negation``   error     negation inside a recursive
                                      component
``cut-in-tabled``           error     ``!`` in a clause of a tabled
                                      predicate (what the engine's
                                      ``cut="error"`` mode rejects
                                      dynamically)
``instantiation-error``     error     builtin input certainly unbound
                                      under a reaching call pattern
``mode-conflict``           error     clause that satisfies no inferred
                                      call pattern at all
``unsafe-head-var``         warning   rule head variable never bound by
                                      the body (non-ground answers)
``negation-unbound-var``    warning   variable occurring only under
                                      ``\\+``
``instantiation-error``     warning   builtin input the groundness
                                      analysis cannot prove ground
``unsafe-negation``         warning   negated goal with a (possibly)
                                      unbound named variable
``redundant-clause``        warning   clause subsumed by an earlier one
``unknown-builtin``         warning   engine builtin with no mode
                                      declaration
``tabled-depth-growth``     warning   tabled recursion that grows term
                                      depth (non-termination risk)
``dead-code``               warning   predicate unreachable from the
                                      query (only with a query)
``dead-predicate``          warning   predicate provably never succeeds
                                      (failcheck: reduce fixpoint or
                                      empty abstract success set)
``unreachable-clause``      warning   clause of a live predicate that
                                      provably cannot succeed
                                      (failcheck)
``dynamic-goal``            info      call through an unbound variable
                                      (unanalyzable)
``scc-entangled``           info      nearly every defined predicate
                                      shares one SCC: the condensation
                                      has no layering, so SCC-guided
                                      evaluation degrades to the flat
                                      loop
==========================  ========  ==================================

The flow-sensitive rules come from :mod:`repro.analysis.modecheck`
(``modes=False`` disables the pass); its per-clause entry-binding facts
also feed back into the clause checks, so a head variable every
reaching call pattern binds is recognised as a caller input rather
than flagged ``unsafe-head-var``.  The failure-proving rules come from
:mod:`repro.analysis.failcheck` (``failcheck=False`` disables them);
their witnesses are ``p/n`` indicators that feed
``python -m repro.obs explain FILE p/n --failcheck``.
"""

from __future__ import annotations

from repro.analysis.depgraph import DependencyGraph, body_call_sites
from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.modecheck import ModeReport, check_modes
from repro.analysis.safety import check_clause_safety, check_depth_growth
from repro.analysis.stratify import unstratified_sites
from repro.engine.builtins import is_builtin
from repro.prolog.program import Indicator, Program
from repro.terms.term import Struct, Term


def lint_program(
    program: Program,
    query: Term | None = None,
    filename: str | None = None,
    modes: bool = True,
    budget=None,
    failcheck: bool = True,
    summaries=None,
    prop_backend: str | None = None,
) -> LintReport:
    """Run all lint rules; diagnostics carry ``filename`` when given.

    ``modes`` runs the groundness-flow mode checker; ``failcheck`` the
    failure-proving pass (``dead-predicate`` / ``unreachable-clause``);
    ``budget`` (a :class:`~repro.runtime.budget.Budget`) bounds those
    passes — on exhaustion they degrade per their ladders instead of
    failing the lint.  ``summaries`` is an optional
    :class:`~repro.analysis.summaries.SummaryStore` shared by the
    groundness and failcheck backends, so files sharing a library
    re-derive each component fixpoint only once.  ``prop_backend``
    selects the Prop representation for the groundness backend
    (``"bdd"``/``"enum"``; default per ``REPRO_PROP_BACKEND``).
    """
    import time

    from repro.obs.observer import get_observer

    clock = time.perf_counter

    t0 = clock()
    graph = DependencyGraph(program)
    report = LintReport()
    report.timings["depgraph"] = clock() - t0
    mode_report: ModeReport | None = None
    if modes:
        t0 = clock()
        mode_report = check_modes(
            program, query=query, budget=budget, summaries=summaries,
            prop_backend=prop_backend,
        )
        report.extend(mode_report.diagnostics)
        report.timings["modecheck"] = clock() - t0
        for pass_name, seconds in mode_report.timings.items():
            report.timings[f"modecheck.{pass_name}"] = seconds
    t0 = clock()
    report.extend(_undefined_calls(program, graph))
    report.extend(unstratified_sites(graph))
    report.extend(_entangled_condensation(program, graph))
    report.timings["graph_checks"] = clock() - t0
    t0 = clock()
    report.extend(_clause_checks(program, graph, mode_report))
    report.timings["clause_checks"] = clock() - t0
    if query is not None:
        t0 = clock()
        report.extend(_dead_code(program, graph, query))
        report.timings["dead_code"] = clock() - t0
    if failcheck:
        from repro.analysis.failcheck import failcheck_program

        t0 = clock()
        fc_report = failcheck_program(program, budget=budget, summaries=summaries)
        report.extend(fc_report.diagnostics)
        report.timings["failcheck"] = clock() - t0
    if filename:
        report.diagnostics = [d.with_file(filename) for d in report.diagnostics]
    obs = get_observer()
    if obs.enabled:
        for pass_name, seconds in report.timings.items():
            obs.registry.timer(f"lint.{pass_name}").observe(seconds)
        obs.registry.counter("lint.runs").value += 1
    return report


# ----------------------------------------------------------------------
# Rule implementations


def _dynamic_declarations(program: Program) -> set[Indicator]:
    """Predicates declared ``:- dynamic p/n`` (possibly a comma list)."""
    out: set[Indicator] = set()
    for directive in program.directives:
        if isinstance(directive, Struct) and directive.indicator == ("dynamic", 1):
            for spec in _comma_list(directive.args[0]):
                if (
                    isinstance(spec, Struct)
                    and spec.indicator == ("/", 2)
                    and isinstance(spec.args[0], str)
                    and isinstance(spec.args[1], int)
                ):
                    out.add((spec.args[0], spec.args[1]))
    return out


def _comma_list(term: Term) -> list[Term]:
    items = []
    while isinstance(term, Struct) and term.indicator == (",", 2):
        items.append(term.args[0])
        term = term.args[1]
    items.append(term)
    return items


def _undefined_calls(program: Program, graph: DependencyGraph) -> list[Diagnostic]:
    dynamic = _dynamic_declarations(program)
    out: list[Diagnostic] = []
    seen: set = set()
    for site in graph.call_sites:
        if site.callee is None:
            out.append(
                Diagnostic(
                    "dynamic-goal",
                    Severity.INFO,
                    "goal is a variable at analysis time; calls through it "
                    "cannot be checked",
                    site.caller,
                    site.clause_index,
                    site.line,
                )
            )
            continue
        if (
            is_builtin(site.callee)
            or program.clauses_for(site.callee)
            or site.callee in dynamic
        ):
            continue
        key = (site.caller, site.callee, site.line)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            Diagnostic(
                "undefined-call",
                Severity.ERROR,
                f"call to undefined predicate "
                f"{site.callee[0]}/{site.callee[1]}",
                site.caller,
                site.clause_index,
                site.line,
            )
        )
    return out


def _entangled_condensation(
    program: Program, graph: DependencyGraph
) -> list[Diagnostic]:
    """Flag a condensation collapsed into (essentially) one component.

    Supplementary-magic guard predicates are the classic cause on
    qsort-like programs: guards call answers and answers call guards,
    so every predicate lands in a single SCC and the layering the
    SCC-guided engine exploits is lost.  The note is informational —
    the program is still correct — but it explains why SCC-guided
    evaluation saves nothing there and points at the
    guard/answer-splitting rewrite (DESIGN.md) that would recover
    structure.
    """
    defined = [ind for ind in program.predicates() if program.clauses_for(ind)]
    if len(defined) < 3:
        return []
    components = graph.sccs()
    largest = max(components, key=len)
    entangled = [ind for ind in largest if program.clauses_for(ind)]
    if len(entangled) < max(3, -(-len(defined) * 4 // 5)):  # >= ceil(80%)
        return []
    lines = [
        clause.line
        for ind in entangled
        for clause in program.clauses_for(ind)[:1]
    ]
    message = (
        f"{len(entangled)} of {len(defined)} defined predicates share "
        "one strongly connected component; the dependency "
        "condensation has no layering, so SCC-guided evaluation "
        "degrades to the flat loop (guard predicates of "
        "the supplementary-magic rewrite commonly entangle answers "
        "this way; splitting guards from answers recovers the "
        "structure)"
    )
    guards = _collapsing_guards(graph, largest)
    if guards:
        names = ", ".join(f"{name}/{arity}" for name, arity in guards)
        message += (
            f"; guard predicate(s) {names} collapse the condensation — "
            "removing any one of them splits the component back into "
            "layers"
        )
    return [
        Diagnostic(
            "scc-entangled",
            Severity.INFO,
            message,
            None,
            None,
            min(lines, default=0),
        )
    ]


#: cap on exact guard probing: one Tarjan pass per candidate is cheap,
#: but a pathological component should not make the lint quadratic
_MAX_GUARD_CANDIDATES = 32


def _collapsing_guards(
    graph: DependencyGraph, component: list[Indicator]
) -> list[Indicator]:
    """Predicates whose removal de-entangles ``component``.

    A *guard* here is a cut vertex of the entangled SCC: dropping it
    (and its edges) from the component's induced call graph leaves no
    strongly connected component spanning the remaining predicates.
    Supplementary-magic guard predicates (``m_*``/``sup*`` names, the
    adorned-magic idiom) are probed first; when no such names occur,
    every member is a candidate, capped at
    :data:`_MAX_GUARD_CANDIDATES`.
    """
    from repro.analysis.depgraph import _tarjan

    if len(component) < 3:
        return []
    members = set(component)
    candidates = [
        ind
        for ind in component
        if ind[0].startswith("m_") or ind[0].startswith("sup")
    ]
    if not candidates:
        candidates = list(component)
    guards: list[Indicator] = []
    for candidate in sorted(candidates)[:_MAX_GUARD_CANDIDATES]:
        nodes = sorted(members - {candidate})
        succ = {
            node: {
                target
                for target in graph.successors(node)
                if target in members and target != candidate
            }
            for node in nodes
        }
        remaining = _tarjan(nodes, succ)
        if max((len(c) for c in remaining), default=0) < len(members) - 1:
            guards.append(candidate)
    return guards


def _clause_checks(
    program: Program,
    graph: DependencyGraph,
    mode_report: ModeReport | None = None,
) -> list[Diagnostic]:
    """Per-clause rules: safety, cut-in-tabled, depth growth."""
    out: list[Diagnostic] = []
    index = graph.scc_index()
    for indicator in program.predicates():
        tabled = program.is_tabled(indicator)
        recursive = False
        if tabled:
            position = index.get(indicator)
            if position is not None:
                component = graph.sccs()[position]
                recursive = graph.is_recursive(component)
        for clause_index, clause in enumerate(program.clauses_for(indicator)):
            literals = [
                (site.goal, site.negative)
                for site in body_call_sites(
                    clause.body, indicator, clause_index, clause.line
                )
                if site.goal is not None
            ]
            caller_bound = None
            if mode_report is not None:
                caller_bound = mode_report.entry_bound.get(
                    (indicator, clause_index)
                )
            out.extend(
                check_clause_safety(
                    indicator, clause, clause_index, literals,
                    caller_bound=caller_bound,
                )
            )
            if tabled and _body_has_cut(clause.body):
                out.append(
                    Diagnostic(
                        "cut-in-tabled",
                        Severity.ERROR,
                        "cut in a clause of a tabled predicate; tabling "
                        'cannot honour it (the engine\'s cut="error" mode '
                        "rejects this program)",
                        indicator,
                        clause_index,
                        clause.line,
                    )
                )
            if tabled and recursive:
                out.extend(
                    check_depth_growth(indicator, clause, clause_index, literals)
                )
    return out


def _body_has_cut(body: Term) -> bool:
    stack = [body]
    while stack:
        term = stack.pop()
        if term == "!":
            return True
        if isinstance(term, Struct) and term.indicator in (
            (",", 2),
            (";", 2),
            ("->", 2),
        ):
            stack.extend(term.args)
    return False


def _dead_code(
    program: Program, graph: DependencyGraph, query: Term
) -> list[Diagnostic]:
    if isinstance(query, Struct):
        root: Indicator = query.indicator
    elif isinstance(query, str):
        root = (query, 0)
    else:
        return []
    live = graph.reachable([root])
    out: list[Diagnostic] = []
    for indicator in program.predicates():
        if indicator in live:
            continue
        clauses = program.clauses_for(indicator)
        line = clauses[0].line if clauses else 0
        out.append(
            Diagnostic(
                "dead-code",
                Severity.WARNING,
                f"predicate {indicator[0]}/{indicator[1]} is unreachable "
                f"from the query {root[0]}/{root[1]}",
                indicator,
                None,
                line,
            )
        )
    return out
