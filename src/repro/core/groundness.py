"""Prop-domain groundness analysis of logic programs (paper section 3.1).

The transformation of Figure 1 maps a program ``P`` to an abstract
program ``P#`` over the Prop domain: every predicate ``p/n`` gets an
abstract counterpart ``gp$p/n`` whose success set is the truth table of
``p``'s output-groundness formula, and every source variable ``X`` is
tracked by an abstract variable ``TX`` ranging over ``{true, false}``
(ground / possibly nonground).  Argument terms are linked to their
variables through enumerated ``iff$k`` truth-table predicates:
``iff$k(A, T1, ..., Tk)`` holds iff ``A <-> T1 /\\ ... /\\ Tk``.

Evaluating ``P#`` on the tabled engine gives:

* **output groundness** — the answer tables of the ``gp$`` predicates;
* **input groundness** — the *call* tables, recorded for free by
  tabling (the property the paper highlights over magic-sets-based
  bottom-up analysis).

``optimize=True`` applies the paper's "coding the rules to take
advantage of the evaluation mechanism" step: variable arguments reuse
the variable's abstract var directly (no ``iff$1`` literal) and ground
arguments become the constant ``true``, which shortens clauses and cuts
backtracking.  ``optimize=False`` generates the Figure-1 rules
literally (used by the ablation benchmarks).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from repro.engine.builtins import is_builtin
from repro.engine.tabling import TabledEngine, TableStats
from repro.prolog.parser import Clause
from repro.prolog.program import (
    Indicator,
    Program,
    conjunction,
    entry_points,
    open_goal,
)
from repro.runtime.degrade import AnalysisResult
from repro.terms.term import Struct, Term, Var, fresh_var, term_variables
from repro.core.propdom import (
    DEFAULT_MAX_ENUM_ARITY,
    MAX_IFF_NVARS,
    PropFunction,
    iff_facts,
    iff_facts_compact,
    iff_name,
    iff_recursive,
    iff_support_clauses,
    prop_function_class,
    resolve_prop_backend,
)

GP_PREFIX = "gp$"


def gp_name(name: str) -> str:
    return GP_PREFIX + name


def is_gp(name: str) -> bool:
    return name.startswith(GP_PREFIX)


@dataclass
class AbstractionInfo:
    """Bookkeeping from the abstract compilation."""

    predicates: list[Indicator] = field(default_factory=list)
    iff_arities: set[int] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)
    entry_points: list[Term] = field(default_factory=list)


class _ClauseAbstraction:
    """Abstracts one clause; carries the source-var -> abstract-var map."""

    def __init__(self, info: AbstractionInfo, optimize: bool):
        self.info = info
        self.optimize = optimize
        self.varmap: dict[int, Var] = {}
        self.literals: list[Term] = []

    def abstract_var(self, var: Var) -> Var:
        abstract = self.varmap.get(var.id)
        if abstract is None:
            abstract = fresh_var(f"T{var.name or var.id}")
            self.varmap[var.id] = abstract
        return abstract

    # -- E[t] of Figure 1 ------------------------------------------------
    def arg_value(self, term: Term) -> Term:
        """Abstract value for an argument term, emitting iff literals.

        Returns the term to place in the abstract literal's argument
        position: with ``optimize`` this is ``TX`` for a variable,
        ``true`` for a ground term, and a fresh var tied by an ``iff$k``
        literal otherwise; without, always the fresh-var + iff encoding.
        """
        if self.optimize:
            if isinstance(term, Var):
                return self.abstract_var(term)
            variables = term_variables(term)
            if not variables:
                return "true"
            result = fresh_var()
            self.emit_iff(result, variables)
            return result
        result = fresh_var()
        self.constrain(term, result)
        return result

    def constrain(self, term: Term, value: Term) -> None:
        """Emit ``value <-> conj(vars(term))``."""
        variables = term_variables(term)
        if self.optimize and isinstance(term, Var):
            self.literals.append(Struct("=", (value, self.abstract_var(term))))
            return
        if self.optimize and not variables:
            self.literals.append(Struct("=", (value, "true")))
            return
        self.emit_iff(value, variables)

    def emit_iff(self, value: Term, variables: list[Var]) -> None:
        self.info.iff_arities.add(len(variables))
        args = (value, *(self.abstract_var(v) for v in variables))
        self.literals.append(Struct(iff_name(len(variables)), args))

    def force_ground(self, term: Term) -> None:
        """Emit constraints making every variable of ``term`` true."""
        for var in term_variables(term):
            self.literals.append(Struct("=", (self.abstract_var(var), "true")))

    # -- L[c] of Figure 1 -------------------------------------------------
    def body(self, goal: Term, program: Program) -> None:
        done = self._control(goal, program)
        if done:
            return
        indicator = goal.indicator if isinstance(goal, Struct) else (goal, 0)
        if program.clauses_for(indicator):
            self._user_call(goal)
            return
        if is_builtin(indicator):
            self._builtin(goal, indicator)
            return
        self.info.warnings.append(
            f"unknown predicate {indicator[0]}/{indicator[1]}: no constraint assumed"
        )

    def _control(self, goal: Term, program: Program) -> bool:
        if goal in ("true", "!", "otherwise"):
            return True
        if goal == "fail" or goal == "false":
            self.literals.append("fail")
            return True
        if not isinstance(goal, Struct):
            return False
        name, arity = goal.indicator
        if name == "," and arity == 2:
            self.body(goal.args[0], program)
            self.body(goal.args[1], program)
            return True
        if name == ";" and arity == 2:
            left, right = goal.args
            if isinstance(left, Struct) and left.indicator == ("->", 2):
                # (C -> T ; E) over-approximated by ((C, T) ; E)
                left = Struct(",", left.args)
            self.literals.append(
                Struct(";", (self._subgoal(left, program), self._subgoal(right, program)))
            )
            return True
        if name == "->" and arity == 2:
            self.body(goal.args[0], program)
            self.body(goal.args[1], program)
            return True
        if (name == "\\+" or name == "not") and arity == 1:
            # No bindings on success; still visit the subgoal in a
            # "don't care" disjunct so its call patterns are recorded.
            inner = subgoal = self._subgoal(goal.args[0], program)
            if subgoal != "true":
                self.literals.append(Struct(";", (inner, "true")))
            return True
        if name == "call" and arity >= 1:
            target = goal.args[0]
            if isinstance(target, Var):
                return True  # unknown goal: no constraint
            if arity > 1:
                if isinstance(target, str):
                    target = Struct(target, tuple(goal.args[1:]))
                else:
                    target = Struct(target.functor, target.args + tuple(goal.args[1:]))
            self.body(target, program)
            return True
        if name == "findall" and arity == 3 or name == "bagof" and arity == 3 or name == "setof" and arity == 3:
            # goal argument runs but bindings don't escape; record calls
            subgoal = self._subgoal(goal.args[1], program)
            if subgoal != "true":
                self.literals.append(Struct(";", (subgoal, "true")))
            return True
        return False

    def _subgoal(self, goal: Term, program: Program) -> Term:
        saved = self.literals
        self.literals = []
        self.body(goal, program)
        inner = self.literals
        self.literals = saved
        return conjunction(inner)

    def _user_call(self, goal: Term) -> None:
        if isinstance(goal, str):
            self.literals.append(gp_name(goal))
            return
        args = tuple(self.arg_value(a) for a in goal.args)
        self.literals.append(Struct(gp_name(goal.functor), args))

    def _builtin(self, goal: Term, indicator: Indicator) -> None:
        name, arity = indicator
        args = goal.args if isinstance(goal, Struct) else ()
        if name == "=" and arity == 2:
            shared = fresh_var()
            if self.optimize and isinstance(args[0], Var):
                self.constrain(args[1], self.abstract_var(args[0]))
                return
            if self.optimize and isinstance(args[1], Var):
                self.constrain(args[0], self.abstract_var(args[1]))
                return
            self.constrain(args[0], shared)
            self.constrain(args[1], shared)
            return
        if name in _GROUNDING_BUILTINS and arity in _GROUNDING_BUILTINS[name]:
            positions = _GROUNDING_BUILTINS[name][arity]
            for index in positions:
                self.force_ground(args[index])
            return
        if name == "==" and arity == 2 or name == "=.." and arity == 2:
            shared = fresh_var()
            self.constrain(args[0], shared)
            self.constrain(args[1], shared)
            return
        # remaining builtins: no groundness effect assumed (sound)


#: builtin name -> arity -> argument positions that are ground on success
_GROUNDING_BUILTINS: dict[str, dict[int, tuple]] = {
    "is": {2: (0, 1)},
    "<": {2: (0, 1)},
    ">": {2: (0, 1)},
    "=<": {2: (0, 1)},
    ">=": {2: (0, 1)},
    "=:=": {2: (0, 1)},
    "=\\=": {2: (0, 1)},
    "atom": {1: (0,)},
    "number": {1: (0,)},
    "integer": {1: (0,)},
    "atomic": {1: (0,)},
    "functor": {3: (1, 2)},
    "arg": {3: (0,)},
    "length": {2: (1,)},
    "atom_codes": {2: (0, 1)},
    "name": {2: (0, 1)},
    "number_codes": {2: (0, 1)},
    "between": {3: (0, 1, 2)},
    "tab": {1: (0,)},
    "put": {1: (0,)},
}


def abstract_program(
    program: Program,
    optimize: bool = True,
    max_enum_arity: int = DEFAULT_MAX_ENUM_ARITY,
    encoding: str = "compact",
) -> tuple[Program, AbstractionInfo]:
    """Figure-1 transformation: source program -> abstract Prop program.

    The result has one tabled ``gp$p/n`` predicate per source ``p/n``,
    plus the ``iff$k`` truth tables for every right-hand-side variable
    count ``k`` encountered.  ``encoding`` selects the truth-table
    representation: ``"compact"`` (default) uses the k+1 most-general
    facts with the same success set; ``"enumerated"`` uses the paper's
    literal 2^k rows (falling back to a linear recursive program above
    ``max_enum_arity``) — kept for the representation ablation.
    """
    info = AbstractionInfo()
    out = Program()
    for indicator in program.predicates():
        name, arity = indicator
        info.predicates.append(indicator)
        out.tabled.add((gp_name(name), arity))
        for clause in program.clauses_for(indicator):
            abstraction = _ClauseAbstraction(info, optimize)
            head = clause.head
            if isinstance(head, Struct):
                head_args = tuple(abstraction.arg_value(a) for a in head.args)
                head_literals = list(abstraction.literals)
                abstraction.literals = []
                new_head: Term = Struct(gp_name(name), head_args)
            else:
                head_literals = []
                new_head = gp_name(name)
            abstraction.body(clause.body, program)
            body_literals = head_literals + abstraction.literals
            out.add_clause(
                Clause(new_head, conjunction(body_literals), {}, clause.line)
            )
    needs_support = False
    for nvars in sorted(info.iff_arities):
        if encoding == "compact":
            out.add_clauses(iff_facts_compact(nvars))
        elif nvars <= max_enum_arity:
            out.add_clauses(iff_facts(nvars))
        else:
            out.add_clauses(iff_recursive(nvars))
            needs_support = True
    if needs_support:
        out.add_clauses(iff_support_clauses())
    # entry goals make the *input* groundness (call patterns) meaningful
    info.entry_points = entry_points(program, gp_name, "true")
    return out, info


# ----------------------------------------------------------------------
# Driver and collection


@dataclass
class PredicateGroundness:
    """Collected analysis results for one source predicate."""

    name: str
    arity: int
    success: PropFunction
    call_patterns: list[tuple]
    answer_count: int
    #: per-table view: one ``(pattern, success)`` pair per recorded
    #: table (the demanded calls, plus the open call once a query has
    #: needed it), the success function restricted to that call's answers
    tables: list[tuple[tuple, PropFunction]] = field(default_factory=list)
    #: parallel to :attr:`tables`: the table's *claim pattern* — ``True``
    #: /``None`` per argument when the call subsumes every concrete call
    #: at least that bound (``true`` constants + distinct free
    #: variables), ``None`` for a constrained call (``false`` argument,
    #: aliased variables) that may not answer pattern queries
    claims: list | None = None

    @property
    def ground_on_success(self) -> tuple:
        """Arguments definitely ground in every answer (output modes)."""
        return self.success.definitely_true()

    def ground_on_success_for(self, pattern: tuple) -> tuple:
        """Output groundness specialised to one call pattern.

        ``pattern`` is argument-wise ``True`` (known ground at call) or
        anything else (unknown).  A recorded table may answer the query
        only when its call *subsumes* every concrete call matching
        ``pattern``: its arguments are ``true`` at positions the query
        knows ground and **distinct free variables** elsewhere
        (:func:`_claim_pattern`).  A call constrained in any other way
        — a ``false`` argument, a repeated (aliased) variable — covers
        only a slice of the query's concrete calls, and conditioning
        that slice can over-claim, so such tables are skipped.  Each
        applicable table is then *instantiated* at the query: its rows
        are conditioned on the pattern's ground arguments
        (:meth:`~repro.core.propdom.PropFunction.assume`), exactly the
        summary-instantiation step of the polymorphic (Lu-style)
        reading.  Because an applicable table's rows are the abstract
        ground success set restricted to its (weaker) call constraint,
        every applicable table yields the *same* conditioned set — so
        the whole-program and summary backends agree wherever both
        have an applicable table.  With no applicable table nothing is
        claimed (:meth:`GroundnessResult.ground_on_success_for` solves
        the open call first, so that there is one).
        """
        if not self.tables or self.claims is None:
            return tuple(False for _ in range(self.arity))
        ground = [False] * self.arity
        query = tuple(value is True for value in pattern)
        for (_, success), claim in zip(self.tables, self.claims):
            if not _claim_applies(claim, query):
                continue
            instantiated = success.assume(query)
            for index, definite in enumerate(instantiated.definitely_true()):
                if definite:
                    ground[index] = True
        return tuple(ground)

    def answers_pattern(self, pattern: tuple) -> bool:
        """Whether some recorded table may answer ``pattern`` at all."""
        query = tuple(value is True for value in pattern)
        return any(_claim_applies(claim, query) for claim in self.claims or ())

    @property
    def ground_at_call(self) -> tuple:
        """Arguments definitely ground in every recorded call (input modes)."""
        if not self.call_patterns:
            return tuple(False for _ in range(self.arity))
        return tuple(
            all(pattern[i] is True for pattern in self.call_patterns)
            for i in range(self.arity)
        )

    def formula(self, names: list[str] | None = None) -> str:
        return self.success.dnf(names)


@dataclass
class GroundnessResult(AnalysisResult):
    """Full analysis output: per-predicate results plus phase metrics.

    ``completeness`` is ``"exact"``, ``"bdd-widened"``, ``"widened"``
    or ``"top"``.  ``stats``, ``table_space`` and ``times`` describe the
    entry-directed run (the paper's Table 1 columns); open calls solved
    later, on demand, do not change them.
    """

    predicates: dict[Indicator, PredicateGroundness]
    warnings: list[str]
    abstract: Program | None = None
    #: which Prop representation produced the per-predicate functions
    #: (``"bdd"`` — the default — or the enumerative ``"enum"`` oracle)
    backend: str = "bdd"
    #: the engine that ran the analysis (none for a ``top`` result), on
    #: which open calls are solved when a query needs them
    _engine: TabledEngine | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the governor and ``bdd-widened`` node cap the tables were
    #: collected under, so an open table is collected the same way
    _collect_governor: object = field(
        default=None, init=False, repr=False, compare=False
    )
    _widen_nodes: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the budget trip of an on-demand solve; the engine is gone
    _open_error: Exception | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def ground_on_success_for(self, indicator: Indicator, pattern: tuple) -> tuple:
        """Per-call-pattern output groundness (the mode-checker query).

        Sound only when the predicate's tables ran to completion; a
        degraded (partial) table set claims nothing.  When none of the
        predicate's tables may answer ``pattern``, its open call is
        solved first (:meth:`_solve_open`); a budget trip there raises
        :class:`~repro.runtime.budget.ResourceExhausted`.
        """
        info = self.predicates.get(indicator)
        if info is None:
            return ()
        if not self.table_completeness.get(indicator, True):
            return tuple(False for _ in range(info.arity))
        if len(pattern) == info.arity and not info.answers_pattern(pattern):
            self._solve_open(info)
        return info.ground_on_success_for(pattern)

    def _solve_open(self, info: PredicateGroundness) -> None:
        """Table ``info``'s open call on the analysis engine, on demand.

        Goal-directed evaluation tables only the calls the entry goals
        reach; a pattern query none of them may answer needs the open
        (goal-independent) table, which the summary backend
        (:mod:`repro.analysis.summaries`) computes too.  Solving it on
        the same engine reuses every completed callee table and charges
        the governor the analysis ran under.  A trip leaves half-built
        tables behind, so the engine is dropped and every later miss
        re-raises the trip.
        """
        if self._open_error is not None:
            raise self._open_error
        engine = self._engine
        if engine is None:
            return
        from repro.bdd.propfn import bdd_governed
        from repro.obs.observer import get_observer
        from repro.runtime.budget import ResourceExhausted

        goal = open_goal(gp_name(info.name), info.arity)
        backend = _predicate_backend(self.backend, info.arity)
        obs = get_observer()
        with obs.maybe_span(
            "analysis.groundness.open", predicate=f"{info.name}/{info.arity}"
        ):
            if obs.enabled:
                obs.registry.counter("analysis.groundness.open_solves").inc()
            try:
                engine.solve(goal)
                table = engine.table_for(goal)
                with bdd_governed(
                    self._collect_governor if self.backend == "bdd" else None
                ):
                    fn = _table_function(
                        table, info.arity, backend, self._widen_nodes
                    )
            except ResourceExhausted as exc:
                self._engine, self._open_error = None, exc
                raise
        info.tables.append((_pattern(table.call, info.arity), fn))
        info.claims.append(_claim_pattern(table.call, info.arity))

    def __getitem__(self, indicator: Indicator) -> PredicateGroundness:
        return self.predicates[indicator]


def analyze_groundness(
    program: Program,
    entries: list[Term] | None = None,
    optimize: bool = True,
    compiled: bool = False,
    max_enum_arity: int = DEFAULT_MAX_ENUM_ARITY,
    encoding: str = "compact",
    scheduling: str = "lifo",
    keep_abstract: bool = False,
    budget=None,
    governor=None,
    fault=None,
    degrade: bool = True,
    widen_threshold: int = 8,
    prop_backend: str | None = None,
    bdd_widen_nodes: int = 64,
) -> GroundnessResult:
    """Run the full groundness analysis pipeline on ``program``.

    Phases (each timed, per the paper's metrics): *preprocess*
    (abstract compilation + clause-database preparation), *analysis*
    (tabled evaluation) and *collection* (combining table answers into
    per-predicate results).

    ``entries`` are abstract entry goals (``gp$``-named); when omitted,
    ``:- entry_point(...)`` directives are used, and failing those every
    predicate is analysed with an open call.

    Anytime mode: a ``budget`` (or prebuilt ``governor``) limits the
    evaluation; on a budget trip with ``degrade=True`` the driver walks
    the degradation ladder — retry with in-table widening to ⊤
    (``answer_join``, paper section 6.1), then bail to the sound
    all-top result — instead of raising.  ``fault`` is a
    :class:`~repro.runtime.faultinject.FaultInjector` for tests.

    ``prop_backend`` selects the Prop representation for the collected
    results: ``"bdd"`` (hash-consed ROBDDs — the default, resolved via
    ``REPRO_PROP_BACKEND`` when not given) or ``"enum"`` (the
    truth-table oracle).  Under the BDD backend a ``bdd_nodes`` budget
    governs collection: a trip degrades to the ``bdd-widened`` stage
    (worst-case widening to the definite core, capped at
    ``bdd_widen_nodes`` nodes per table function) before falling back
    to all-top.  Collection runs under the governor of the stage that
    built the tables, and any other trip there (a deadline) falls back
    to all-top directly.  Predicates wider than :data:`MAX_IFF_NVARS`
    are routed to the BDD representation even under ``"enum"`` (the
    enumerative truth set would need 2^arity rows), with a warning.
    """
    from repro.bdd.propfn import bdd_governed, publish_bdd_gauges
    from repro.obs.observer import get_observer
    from repro.runtime.budget import (
        BddNodesExceeded,
        ResourceExhausted,
        governor_for,
    )
    from repro.runtime.degrade import (
        Stage,
        publish_run,
        record_trip,
        run_ladder,
        top_widening_join,
    )

    backend = resolve_prop_backend(prop_backend)

    obs = get_observer()
    t0 = time.perf_counter()
    with obs.maybe_span("analysis.groundness.preprocess"):
        abstract, info = abstract_program(
            program, optimize, max_enum_arity, encoding
        )
        from repro.engine.clausedb import ClauseDB

        db = ClauseDB(abstract, compiled=compiled)
    t1 = time.perf_counter()

    goals = entries if entries is not None else info.entry_points
    if not goals:
        goals = [open_goal(gp_name(name), arity) for name, arity in info.predicates]

    gov = governor_for(budget, governor, fault)
    evaluate = partial(_evaluate, db, goals, scheduling)
    ladder = run_ladder("groundness", [
        Stage("exact", evaluate),
        Stage("widened", partial(evaluate, answer_join=top_widening_join(
            widen_threshold, metric="analysis.groundness.widenings"))),
    ], gov, degrade)
    # the governor of the stage that built ``engine``: its table
    # functions are collected under it
    engine, stage_gov = ladder.value, ladder.governor
    completeness, events = ladder.completeness, ladder.events
    t2 = time.perf_counter()

    def predicate_backend(indicator: Indicator) -> str:
        chosen = _predicate_backend(backend, indicator[1])
        if chosen != backend:
            info.warnings.append(
                f"predicate {indicator[0]}/{indicator[1]} exceeds the "
                f"enumeration cap ({MAX_IFF_NVARS}); using the BDD backend"
            )
        return chosen

    # the node cap the table functions are collected under
    widen_nodes = None

    def collect_all():
        collected = {}
        complete = {}
        with bdd_governed(stage_gov if backend == "bdd" else None):
            for indicator in info.predicates:
                collected[indicator] = _collect(
                    engine,
                    indicator,
                    backend=predicate_backend(indicator),
                    widen_nodes=widen_nodes,
                )
                complete[indicator] = all(
                    t.complete for t in _tables_for(engine, indicator)
                )
        return collected, complete

    predicates = {}
    table_completeness = {}
    with obs.maybe_span("analysis.groundness.collection"):
        if engine is not None:
            try:
                predicates, table_completeness = collect_all()
            except BddNodesExceeded as exc:
                if not degrade:
                    raise
                record_trip("groundness", completeness, exc, events)
                try:
                    # worst-case widening (Genaim/Howe/Codish): rebuild
                    # every table function with the definite-core cap
                    stage_gov = gov.restarted() if gov is not None else None
                    widen_nodes = bdd_widen_nodes
                    predicates, table_completeness = collect_all()
                    if completeness == "exact":
                        completeness = "bdd-widened"
                except ResourceExhausted as exc2:
                    record_trip("groundness", "bdd-widened", exc2, events)
                    engine = None
                    completeness = "top"
            except ResourceExhausted as exc:
                # a deadline or cancellation while collecting: no
                # cheaper collection to retry, so bail to all-top
                if not degrade:
                    raise
                record_trip("groundness", completeness, exc, events)
                engine = None
                completeness = "top"
        if engine is None:
            for indicator in info.predicates:
                name, arity = indicator
                fn_cls = prop_function_class(predicate_backend(indicator))
                predicates[indicator] = PredicateGroundness(
                    name, arity, fn_cls.top(arity), [], 0
                )
                table_completeness[indicator] = False
    if backend == "bdd" and obs.enabled:
        publish_bdd_gauges()
    t3 = time.perf_counter()

    result = GroundnessResult(
        predicates=predicates,
        times={
            "preprocess": t1 - t0,
            "analysis": t2 - t1,
            "collection": t3 - t2,
        },
        table_space=0 if engine is None else engine.table_space_bytes(),
        stats=TableStats().as_dict() if engine is None else engine.stats.as_dict(),
        warnings=info.warnings,
        abstract=abstract if keep_abstract else None,
        completeness=completeness,
        events=events,
        table_completeness=table_completeness,
        backend=backend,
    )
    result._engine = engine
    result._collect_governor, result._widen_nodes = stage_gov, widen_nodes
    publish_run("groundness", result)
    return result


def _evaluate(db, goals, scheduling, governor, answer_join=None):
    """One evaluation attempt (one ladder stage) over a fresh engine.

    Only the goals are solved: the tables are the calls they reach
    (goal-directed, as the paper measures).  A predicate's open call is
    tabled later, if a pattern query needs it
    (:meth:`GroundnessResult._solve_open`).
    """
    engine = TabledEngine(
        db,
        scheduling=scheduling,
        governor=governor,
        answer_join=answer_join,
        # with widening active, subsumed answers carry no extra rows
        answer_subsumption=answer_join is not None,
    )
    for goal in goals:
        engine.solve(goal)
    return engine


def _tables_for(engine: TabledEngine, indicator: Indicator):
    name, arity = indicator
    return engine.tables_by_pred.get((gp_name(name), arity), [])


def _collect(
    engine: TabledEngine,
    indicator: Indicator,
    backend: str = "enum",
    widen_nodes: int | None = None,
) -> PredicateGroundness:
    """Combine a predicate's table answers into a result record.

    Every table contributes its call pattern (input modes), its answers
    to the aggregate success function, and a per-table function with
    its claim pattern for pattern queries (:func:`_table_function`).
    """
    name, arity = indicator
    success = prop_function_class(backend).bottom(arity)
    calls: list[tuple] = []
    tables: list = []
    claims: list = []
    answer_count = 0
    for table in _tables_for(engine, indicator):
        pattern = _pattern(table.call, arity)
        fn = _table_function(table, arity, backend, widen_nodes)
        calls.append(pattern)
        tables.append((pattern, fn))
        claims.append(_claim_pattern(table.call, arity))
        answer_count += len(table.answers)
        success = success.join(fn)
    return PredicateGroundness(
        name=name,
        arity=arity,
        success=success,
        call_patterns=calls,
        answer_count=answer_count,
        tables=tables,
        claims=claims,
    )


def _table_function(table, arity: int, backend: str, widen_nodes: int | None):
    """One table's answers as a Prop function.

    ``backend="bdd"`` builds the function symbolically from the answer
    terms (:meth:`~repro.bdd.propfn.BddPropFunction.from_answers`) —
    polynomial in the answer count, where the enumerative path expands
    2^(free vars) rows per answer.  ``widen_nodes`` (the
    ``bdd-widened`` ladder stage) applies worst-case widening to a
    function past that node count.
    """
    if backend == "bdd":
        from repro.bdd.propfn import BddPropFunction
        from repro.runtime.degrade import worst_case_widen

        fn = BddPropFunction.from_answers(arity, table.answers)
        if widen_nodes is not None:
            fn = worst_case_widen(
                fn, widen_nodes, metric="analysis.groundness.bdd_widenings"
            )
        return fn
    rows: set[tuple] = set()
    for answer in table.answers:
        rows.update(_expand(answer, arity))
    return PropFunction(arity, rows)


def _predicate_backend(backend: str, arity: int) -> str:
    """The Prop representation of one predicate under ``backend``.

    The enumerative truth set of a predicate wider than
    :data:`MAX_IFF_NVARS` would need 2^arity rows, so such a predicate
    uses the BDD representation even under ``"enum"``.
    """
    if backend == "enum" and arity > MAX_IFF_NVARS:
        return "bdd"
    return backend


def _claim_applies(claim: tuple | None, query: tuple) -> bool:
    """Whether a table with claim pattern ``claim`` may answer ``query``.

    ``query`` is argument-wise ``True`` (known ground at the call) or
    ``False``; the table's call must be unconstrained
    (:func:`_claim_pattern`) and no more bound than the query.
    """
    return (
        claim is not None
        and len(claim) == len(query)
        and not any(bound is True and not known for bound, known in zip(claim, query))
    )


def _claim_pattern(call: Term, arity: int) -> tuple | None:
    """The claim pattern of a table call, or ``None`` if constrained.

    A call may answer per-pattern groundness queries only when it
    subsumes every concrete call at least as bound: each argument is
    the constant ``true`` (known ground) or a free variable distinct
    from every other argument.  A ``false`` argument or an aliased
    variable constrains the call to a *slice* of the matching concrete
    calls, so its table must not be instantiated at other call sites.
    """
    if arity == 0:
        return ()
    if not isinstance(call, Struct):
        return None
    out = []
    seen: set[int] = set()
    for arg in call.args:
        if arg == "true":
            out.append(True)
        elif isinstance(arg, Var):
            if arg.id in seen:
                return None
            seen.add(arg.id)
            out.append(None)
        else:
            return None
    return tuple(out)


def _pattern(call: Term, arity: int) -> tuple:
    """Call pattern: True (ground), False or None (unknown) per argument."""
    if not isinstance(call, Struct):
        return ()
    out = []
    for arg in call.args:
        if arg == "true":
            out.append(True)
        elif arg == "false":
            out.append(False)
        else:
            out.append(None)
    return tuple(out)


def _expand(answer: Term, arity: int):
    """Expand an answer (may contain unbound vars) into truth-table rows.

    Unbound variables stand for "either value", but *shared* variables
    must take the same value in a row: ``gp$ap(true, A, A)`` denotes
    exactly {(T,T,T), (T,F,F)}.
    """
    if arity == 0:
        return [()]
    assert isinstance(answer, Struct)
    variables = term_variables(answer)
    rows = []
    for assignment in product((True, False), repeat=len(variables)):
        env = {v.id: val for v, val in zip(variables, assignment)}
        row = []
        for arg in answer.args:
            if arg == "true":
                row.append(True)
            elif arg == "false":
                row.append(False)
            elif isinstance(arg, Var):
                row.append(env[arg.id])
            else:
                raise ValueError(f"non-boolean answer argument {arg!r}")
        rows.append(tuple(row))
    return rows
