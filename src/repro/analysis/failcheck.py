"""Failure proving: certify that a predicate or query *cannot* succeed.

The dual of everything else in this package: instead of describing what
a program's predicates do when they succeed, this pass proves that some
of them never succeed at all.  It follows Pelov & Bruynooghe's recipe
("Proving Failure of Queries for Definite Logic Programs Using
XSB-Prolog"): compute an **over-approximation of the success set** by
abstract compilation and tabled evaluation; if the abstraction admits
no answer for a predicate, the concrete program admits none either, so
the predicate is *provably dead* and any query against it provably
fails.

Two cooperating passes, cheapest first:

1. **Reduce** — a closed-world liveness fixpoint over the clause text.
   A predicate is *live* when at least one clause body can possibly
   succeed: every top-level conjunct is a builtin, a live user
   predicate, a ``dynamic`` predicate, or a construct this pass
   over-approximates as satisfiable (negation, disjunction with a live
   branch, ``call`` through a variable).  ``fail``/``false`` literals,
   calls to undefined predicates and calls to non-live predicates kill
   a clause.  The least fixpoint is sound for the *least model*: a
   non-live predicate has no successful derivation (it may still loop —
   the claim is "cannot succeed", not "terminates").

2. **Abstract** — the reduced program (live predicates, surviving
   clauses only) is compiled into its depth-k abstract version
   (:mod:`repro.core.depthk`, the machinery of the paper's section 5)
   and evaluated to completion with the tabled engine; the finite
   domain guarantees termination.  A live predicate whose abstract
   success set is **empty** — no answers, all tables complete — is
   certified dead: the abstraction over-approximates the concrete
   success set, so emptiness transfers down.  The evaluation is
   *modular* (:func:`repro.analysis.summaries.depthk_via_summaries`):
   each SCC component is solved bottom-up against its callees'
   summaries under its **own** deterministic task budget (default
   ``tasks=30000`` per component; pass ``budget``/``component_tasks``
   to override), so one expensive component forfeits abstract claims
   only for itself and its transitive callers instead of the whole
   file.  Tripped components are skipped, never widened — every
   abstract claim comes from an *exact, completed* evaluation, and
   lint latency on large corpus files stays bounded.  Passing a
   persistent ``summaries`` store reuses component fixpoints across
   files sharing a library.

For a concrete **query**, :func:`prove_query_failure` additionally
directs the abstraction with the magic rewrite (:mod:`repro.magic`):
the magic program restricts derivations to those relevant to the
query's binding pattern, so a query can be proven dead even when its
predicate is live for other arguments.

Soundness caveats (documented, standard for this analysis family):
abstract unification performs the occur check, so claims assume NSTO
programs (no rational-tree unification), and arithmetic/IO errors are
read as failure — a predicate that only *throws* is reported dead,
which is the useful reading for a lint.

The lint integration (:func:`repro.analysis.lint.lint_program`) turns
the result into ``dead-predicate`` and ``unreachable-clause``
diagnostics whose witnesses (``p/2``) feed straight into
``python -m repro.obs explain FILE p/2 --failcheck``, which renders the
failure proof as a tree (:func:`render_failure`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.lint import _dynamic_declarations
from repro.engine.builtins import is_builtin
from repro.prolog.program import Indicator, Program
from repro.terms.term import Struct, Term, Var, term_to_str

#: default deterministic budget for the abstract pass: enough for every
#: exactly-analyzable benchdata program (the largest needs ~8k tasks),
#: tripped quickly by the outliers whose exact analysis takes minutes
DEFAULT_TASK_BUDGET = 30_000

#: constructs treated as negation-as-failure (satisfiable for reduce)
_NEG = {("\\+", 1), ("not", 1)}
#: atoms that always succeed (no liveness requirement)
_TRUE_ATOMS = {"true", "!", "otherwise"}
#: atoms that never succeed
_FAIL_ATOMS = {"fail", "false"}


# ----------------------------------------------------------------------
# Pass 1: the reduce (closed-world liveness) fixpoint


@dataclass(frozen=True)
class Culprit:
    """Why one clause can never succeed: the offending literal."""

    goal_text: str
    callee: Indicator | None
    reason: str  # "always-fails" | "undefined" | "dead" | "no-branch"

    def describe(self) -> str:
        if self.reason == "always-fails":
            return f"contains `{self.goal_text}`"
        if self.reason == "undefined":
            return (
                f"calls undefined predicate "
                f"{self.callee[0]}/{self.callee[1]}"
            )
        if self.reason == "dead":
            return (
                f"calls provably-dead predicate "
                f"{self.callee[0]}/{self.callee[1]}"
            )
        return f"no branch of `{self.goal_text}` can succeed"


def _goal_culprit(
    goal: Term, program: Program, live: set[Indicator], dynamic: set[Indicator]
) -> Culprit | None:
    """First reason ``goal`` (a clause body) cannot succeed, else ``None``.

    Over-approximates satisfiability: anything this pass cannot decide
    (negation, variable goals, builtins, dynamic predicates) counts as
    satisfiable, so a non-``None`` result is a proof of failure.
    """
    if isinstance(goal, Var):
        return None
    if isinstance(goal, str):
        if goal in _TRUE_ATOMS:
            return None
        if goal in _FAIL_ATOMS:
            return Culprit(goal, None, "always-fails")
        return _call_culprit((goal, 0), goal, program, live, dynamic)
    if not isinstance(goal, Struct):
        return None  # numbers etc.: type error at runtime, not our claim
    name, arity = goal.indicator
    if name == "," and arity == 2:
        return _goal_culprit(
            goal.args[0], program, live, dynamic
        ) or _goal_culprit(goal.args[1], program, live, dynamic)
    if name == ";" and arity == 2:
        left, right = goal.args
        if isinstance(left, Struct) and left.indicator == ("->", 2):
            left = Struct(",", left.args)
        if (
            _goal_culprit(left, program, live, dynamic) is not None
            and _goal_culprit(right, program, live, dynamic) is not None
        ):
            return Culprit(term_to_str(goal), None, "no-branch")
        return None
    if name == "->" and arity == 2:
        return _goal_culprit(
            goal.args[0], program, live, dynamic
        ) or _goal_culprit(goal.args[1], program, live, dynamic)
    if (name, arity) in _NEG:
        return None  # negation-as-failure: satisfiable for all we know
    if name == "call" and arity >= 1:
        target = goal.args[0]
        if isinstance(target, str) and arity > 1:
            target = Struct(target, tuple(goal.args[1:]))
        elif isinstance(target, Struct) and arity > 1:
            target = Struct(target.functor, target.args + tuple(goal.args[1:]))
        if isinstance(target, (str, Struct)):
            return _goal_culprit(target, program, live, dynamic)
        return None
    if name == "findall" and arity == 3:
        return None  # succeeds with [] even when the template goal fails
    if name in ("bagof", "setof") and arity == 3:
        return _goal_culprit(goal.args[1], program, live, dynamic)
    return _call_culprit((name, arity), goal, program, live, dynamic)


def _call_culprit(indicator, goal, program, live, dynamic) -> Culprit | None:
    if program.clauses_for(indicator):
        if indicator in live:
            return None
        return Culprit(term_to_str(goal), indicator, "dead")
    if is_builtin(indicator) or indicator in dynamic:
        return None
    return Culprit(term_to_str(goal), indicator, "undefined")


def reduce_liveness(
    program: Program,
) -> tuple[set[Indicator], dict[tuple[Indicator, int], Culprit]]:
    """Least liveness fixpoint; returns (live set, per-clause culprits).

    The culprit map covers every clause that provably cannot succeed
    (keyed by ``(indicator, clause_index)``) — for dead predicates that
    is all of their clauses, for live ones the individually
    unreachable clauses.
    """
    dynamic = _dynamic_declarations(program)
    live: set[Indicator] = set()
    changed = True
    while changed:
        changed = False
        for indicator in program.predicates():
            if indicator in live:
                continue
            for clause in program.clauses_for(indicator):
                if _goal_culprit(clause.body, program, live, dynamic) is None:
                    live.add(indicator)
                    changed = True
                    break
    culprits: dict[tuple[Indicator, int], Culprit] = {}
    for indicator in program.predicates():
        for clause_index, clause in enumerate(program.clauses_for(indicator)):
            culprit = _goal_culprit(clause.body, program, live, dynamic)
            if culprit is not None:
                culprits[(indicator, clause_index)] = culprit
    return live, culprits


def reduced_program(
    program: Program, live: set[Indicator], culprits
) -> Program:
    """The program restricted to live predicates' surviving clauses."""
    out = Program()
    for indicator in program.predicates():
        if indicator not in live:
            continue
        for clause_index, clause in enumerate(program.clauses_for(indicator)):
            if (indicator, clause_index) not in culprits:
                out.add_clause(clause)
    out.tabled = set(program.tabled)
    out.table_all = program.table_all
    out.directives = list(program.directives)
    out.source_lines = program.source_lines
    return out


# ----------------------------------------------------------------------
# Pass 2: abstract success-set emptiness


@dataclass
class FailcheckReport:
    """Everything :func:`failcheck_program` proved about one program."""

    live: set[Indicator] = field(default_factory=set)
    #: dead predicate -> proof method ("reduce" | "abstract")
    dead: dict[Indicator, str] = field(default_factory=dict)
    #: (indicator, clause_index) -> why that clause cannot succeed
    culprits: dict = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    #: depth-k ladder stage of the abstract pass ("exact", "widened", ...)
    completeness: str = "exact"
    depth: int = 2
    #: per-predicate abstract shapes of the reduced program (live preds)
    abstract_shapes: dict = field(default_factory=dict)
    #: per-predicate abstract-table completeness (claim eligibility)
    abstract_complete: dict = field(default_factory=dict)
    #: SCC components of the reduced program the abstract pass finished
    components_done: int = 0
    #: total SCC components of the reduced program
    components_total: int = 0

    def is_dead(self, indicator: Indicator) -> bool:
        return indicator in self.dead


def failcheck_program(
    program: Program,
    depth: int = 2,
    budget=None,
    abstract: bool = True,
    summaries=None,
    component_tasks: int | None = None,
) -> FailcheckReport:
    """Run both failure-proving passes; diagnostics are lint-ready.

    ``abstract=False`` stops after the reduce fixpoint (the cheap
    syntactic pass) — the ablation mode the benchmark measures.  The
    abstract pass charges its budget **per SCC component** of the
    reduced program (:func:`repro.analysis.summaries.depthk_via_summaries`):
    each component is evaluated bottom-up against its callees' depth-k
    summaries under a fresh deterministic task budget
    (``component_tasks``, default ``30000``; or ``budget``'s limits
    re-armed per component), so one expensive component forfeits
    claims only for itself and its condensation-upstream callers, not
    for the whole file.  Claims stay exact-only: a tripped component
    is simply skipped — never widened — so every ``"abstract"`` claim
    comes from an exact completed evaluation.  ``summaries`` is an
    optional :class:`~repro.analysis.summaries.SummaryStore` for
    cross-file reuse of component fixpoints.
    """
    from repro.obs.observer import get_observer

    clock = time.perf_counter
    report = FailcheckReport(depth=depth)

    t0 = clock()
    live, culprits = reduce_liveness(program)
    report.live = live
    report.culprits = culprits
    for indicator in program.predicates():
        if indicator not in live:
            report.dead[indicator] = "reduce"
    report.timings["reduce"] = clock() - t0

    if abstract and live:
        from repro.analysis.summaries import depthk_via_summaries

        t0 = clock()
        reduced = reduced_program(program, live, culprits)
        result = depthk_via_summaries(
            reduced,
            store=summaries,
            depth=depth,
            component_tasks=component_tasks,
            budget=budget,
        )
        report.components_done = result.components_done
        report.components_total = result.components_total
        if result.components_total and not result.components_done:
            # every component tripped its budget: keep the reduce-only
            # claims (the historical whole-program-trip outcome)
            kind = result.trip_kinds[0] if result.trip_kinds else "tasks"
            report.completeness = f"reduce-only({kind})"
        else:
            report.completeness = result.completeness
        for indicator in reduced.predicates():
            shapes = result.predicates[indicator]
            complete = bool(result.table_completeness.get(indicator))
            report.abstract_shapes[indicator] = shapes.shapes()
            report.abstract_complete[indicator] = complete
            if complete and not shapes.answers:
                # the abstraction over-approximates the success set:
                # empty and complete means no concrete answer exists
                report.dead[indicator] = "abstract"
        report.timings["abstract"] = clock() - t0

    report.diagnostics = _diagnostics(program, report)
    obs = get_observer()
    if obs.enabled:
        registry = obs.registry
        registry.counter("analysis.failcheck.runs").value += 1
        registry.counter("analysis.failcheck.dead_predicates").value += len(
            report.dead
        )
        for pass_name, seconds in report.timings.items():
            registry.timer(f"analysis.failcheck.{pass_name}").observe(seconds)
    return report


def _diagnostics(program: Program, report: FailcheckReport) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for indicator in program.predicates():
        method = report.dead.get(indicator)
        name, arity = indicator
        clauses = program.clauses_for(indicator)
        if method is not None:
            if method == "reduce":
                culprit = report.culprits.get((indicator, 0))
                detail = culprit.describe() if culprit else "no viable clause"
                detail = f"clause 1 {detail}"
                if len(clauses) > 1:
                    detail += f" (and {len(clauses) - 1} more clause(s) fail too)"
            else:
                detail = (
                    f"its depth-{report.depth} abstract success set is "
                    "empty (all tables complete)"
                )
            out.append(
                Diagnostic(
                    "dead-predicate",
                    Severity.WARNING,
                    f"predicate {name}/{arity} provably never succeeds: "
                    f"{detail}",
                    indicator,
                    None,
                    clauses[0].line if clauses else 0,
                    witness=f"{name}/{arity}",
                )
            )
            continue
        # live predicate: flag the individually unreachable clauses
        for clause_index, clause in enumerate(clauses):
            culprit = report.culprits.get((indicator, clause_index))
            if culprit is None:
                continue
            out.append(
                Diagnostic(
                    "unreachable-clause",
                    Severity.WARNING,
                    f"clause {clause_index + 1} of {name}/{arity} can never "
                    f"succeed: it {culprit.describe()}",
                    indicator,
                    clause_index,
                    clause.line,
                    witness=culprit.goal_text,
                )
            )
    return out


# ----------------------------------------------------------------------
# Query-directed failure proof (magic rewrite + abstraction)


@dataclass
class FailureProof:
    """A certificate that one query cannot succeed."""

    goal_text: str
    method: str  # "undefined" | "reduce" | "abstract" | "abstract-magic"
    witness: str
    detail: str

    def format(self) -> str:
        return (
            f"query `{self.goal_text}` provably fails [{self.method}]: "
            f"{self.detail} [witness {self.witness}]"
        )


def prove_query_failure(
    program: Program,
    query: Term,
    depth: int = 2,
    budget=None,
) -> FailureProof | None:
    """Certify that ``query`` has no answer, or return ``None``.

    Escalates through the passes: undefined predicate, reduce
    liveness, whole-program abstract emptiness, and finally the
    **query-directed** abstraction — the magic rewrite of the reduced
    program specializes the abstract evaluation to the query's binding
    pattern, so e.g. ``reach(z, X)`` can be proven dead even when
    ``reach/2`` succeeds for other first arguments.  ``None`` means
    "no proof", never "the query succeeds".
    """
    if isinstance(query, Struct):
        root: Indicator = query.indicator
    elif isinstance(query, str):
        root = (query, 0)
    else:
        return None
    goal_text = term_to_str(query)
    name, arity = root
    dynamic = _dynamic_declarations(program)
    if is_builtin(root) or root in dynamic:
        return None
    if not program.clauses_for(root):
        return FailureProof(
            goal_text,
            "undefined",
            f"{name}/{arity}",
            f"{name}/{arity} has no clauses and is not dynamic",
        )
    report = failcheck_program(program, depth=depth, budget=budget)
    if report.is_dead(root):
        method = report.dead[root]
        detail = (
            f"{name}/{arity} is provably dead ({method} pass)"
        )
        return FailureProof(goal_text, method, f"{name}/{arity}", detail)
    return _magic_directed_proof(program, query, report, depth, budget)


def _magic_directed_proof(
    program: Program, query: Term, report: FailcheckReport, depth, budget
) -> FailureProof | None:
    """Abstractly evaluate the magic rewrite of the reduced program."""
    from repro.analysis.depgraph import DependencyGraph
    from repro.core.depthk import depthk_engine, depthk_program, gpk_name
    from repro.engine.clausedb import ClauseDB
    from repro.magic import magic_transform
    from repro.runtime.budget import Budget, ResourceExhausted, governor_for

    if budget is None:
        budget = Budget(tasks=DEFAULT_TASK_BUDGET)
    if not isinstance(query, Struct):
        return None  # 0-ary queries gain nothing from binding propagation
    graph = DependencyGraph(program)
    if any(site.negative for site in graph.call_sites):
        # the magic rewrite does not adorn negated goals; fall back to
        # the whole-program result (already inconclusive here)
        return None
    live, culprits = report.live, report.culprits
    reduced = reduced_program(program, live, culprits)
    try:
        magic_program, adorned_query = magic_transform(reduced, query)
    except Exception:  # noqa: BLE001 — unadornable query: no proof, no crash
        return None
    abstract, _warnings = depthk_program(magic_program)
    db = ClauseDB(abstract)
    if isinstance(adorned_query, Struct):
        abstract_goal: Term = Struct(
            gpk_name(adorned_query.functor), adorned_query.args
        )
    else:
        abstract_goal = gpk_name(adorned_query)
    engine = depthk_engine(db, depth, governor_for(budget, None, None))
    try:
        answers = engine.solve(abstract_goal)
    except ResourceExhausted:
        return None  # budget trip: evaluation incomplete, no claim
    if answers:
        return None
    if not all(
        table.complete
        for tables in engine.tables_by_pred.values()
        for table in tables
    ):
        return None
    return FailureProof(
        term_to_str(query),
        "abstract-magic",
        term_to_str(abstract_goal),
        f"the depth-{depth} abstraction of the magic rewrite has no "
        "answer for the query's binding pattern (all tables complete)",
    )


# ----------------------------------------------------------------------
# Witness rendering (the `repro.obs explain --failcheck` backend)


def render_failure(
    program: Program,
    report: FailcheckReport,
    indicator: Indicator,
    indent: str = "",
    _seen: frozenset = frozenset(),
) -> str:
    """Render the failure proof for one predicate as an indented tree.

    For reduce-dead predicates each clause's culprit is shown, and dead
    callees are expanded recursively (cycle-guarded); abstract-dead
    predicates show the emptiness certificate.  Live predicates render
    their abstract counter-evidence (the answer shapes), so the command
    is also useful to see *why* a predicate is not dead.
    """
    name, arity = indicator
    label = f"{name}/{arity}"
    method = report.dead.get(indicator)
    lines: list[str] = []
    if method is None:
        shapes = report.abstract_shapes.get(indicator)
        lines.append(f"{indent}{label} is not provably dead")
        if shapes:
            lines.append(
                f"{indent}  abstract success set ({len(shapes)} answer(s)):"
            )
            for shape in shapes[:8]:
                lines.append(f"{indent}    {shape}")
            if len(shapes) > 8:
                lines.append(f"{indent}    ... {len(shapes) - 8} more")
        elif indicator in report.live:
            lines.append(
                f"{indent}  (reduce pass keeps it live; abstract pass "
                "did not run or is incomplete)"
            )
        return "\n".join(lines)
    lines.append(
        f"{indent}dead-predicate {label} — provably never succeeds "
        f"[{method}]"
    )
    if method == "abstract":
        shapes = report.abstract_shapes.get(indicator, [])
        lines.append(
            f"{indent}  depth-{report.depth} abstract success set is "
            f"empty: {len(shapes)} answers, tables complete"
        )
        return "\n".join(lines)
    seen = _seen | {indicator}
    for clause_index, clause in enumerate(program.clauses_for(indicator)):
        culprit = report.culprits.get((indicator, clause_index))
        where = f"clause {clause_index + 1} (line {clause.line})"
        if culprit is None:
            lines.append(f"{indent}  {where}: no syntactic culprit")
            continue
        lines.append(f"{indent}  {where}: {culprit.describe()}")
        callee = culprit.callee
        if (
            culprit.reason == "dead"
            and callee is not None
            and callee not in seen
        ):
            lines.append(
                render_failure(program, report, callee, indent + "    ", seen)
            )
    return "\n".join(lines)


def parse_indicator(text: str) -> Indicator | None:
    """``"p/2"`` -> ``("p", 2)`` (the witness format of the lint rows)."""
    name, sep, arity = text.rpartition("/")
    if not sep or not name or not arity.isdigit():
        return None
    return (name, int(arity))
