"""Self-applied mode checker: groundness-flow lint over logic programs.

The paper's thesis is that declarative analyses are practical *tools* —
so the lint layer eats its own dog food: this pass uses the repository's
tabled Prop groundness analysis (:mod:`repro.core.groundness`) as the
dataflow backend of a real mode checker, the way Howe & King's
Prolog-hosted analyser and XSB's compile-time checks self-apply.

Two binding tiers are threaded left-to-right through every clause body
(the sideways-information-passing order :mod:`repro.magic.adorn` uses),
starting from the call patterns declared by ``:- entry_point(...)``
directives or a query goal:

* the **optimistic** tier is classic SIPS — a user call binds every
  variable it touches.  A builtin input unbound even here can never be
  instantiated at runtime: an ``instantiation-error`` **error**.
* the **groundness** tier binds only what the tabled Prop analysis
  proves ground on success *for the inferred call pattern* (the
  per-call-pattern query API of
  :meth:`~repro.core.groundness.GroundnessResult.ground_on_success_for`).
  A builtin input bound optimistically but not provably ground is a
  "possibly unbound" ``instantiation-error`` **warning**.

Every flow diagnostic carries a *call-pattern witness* — the adorned
goal under which the defect manifests.  On top of the flow the pass
layers a determinism estimate (det / semidet / multi / nondet) per
adorned predicate from mutually-exclusive heads and builtin
multiplicities, and a syntactic ``redundant-clause`` check (a clause
subsumed by an earlier one contributes nothing under any call pattern).

Degradation ladder (the pass runs under a
:class:`~repro.runtime.budget.Budget`): **prop** (full two-tier flow)
→ **adorn** (groundness backend tripped its budget: optimistic tier
only, certain errors still reported) → **partial** (the flow fixpoint
itself tripped: diagnostics found so far are returned, the report is
marked incomplete).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.modes import (
    Determinism,
    alternation,
    join,
    list_skeleton,
    modes_for,
    seq,
)
from repro.engine.builtins import is_builtin
from repro.magic.adorn import (
    adornment_of,
    argument_bound,
    bind_literal,
    head_bound_vars,
    literal_adornment,
)
from repro.prolog.parser import Clause
from repro.prolog.program import Indicator, Program
from repro.terms.subst import EMPTY_SUBST
from repro.terms.term import Struct, Term, Var, term_variables
from repro.terms.unify import subsumes
from repro.terms.variant import variant_key

_NEGATION = {("\\+", 1), ("not", 1)}
_ALL_SOLUTIONS = {("findall", 3), ("bagof", 3), ("setof", 3)}


@dataclass
class ModeReport:
    """Everything the mode checker learned about one program."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: adornments under which each predicate is called, from the entries
    reached: dict[Indicator, set[str]] = field(default_factory=dict)
    #: (indicator, clause index) -> head variable ids bound at clause
    #: entry under *every* reaching call pattern (caller-supplied inputs)
    entry_bound: dict[tuple[Indicator, int], set[int]] = field(default_factory=dict)
    #: (indicator, adornment) -> multiplicity estimate
    determinism: dict[tuple[Indicator, str], Determinism] = field(default_factory=dict)
    #: "prop" | "adorn" | "partial" — see module docstring
    completeness: str = "prop"
    events: list = field(default_factory=list)
    groundness: object | None = None
    #: per-pass seconds: redundant_clauses / groundness_backend / adornment
    timings: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return self.completeness != "prop"

    def determinism_lines(self) -> list[str]:
        """Human-readable ``p(bf): semidet`` lines, sorted."""
        out = []
        for (indicator, adornment), detism in sorted(
            self.determinism.items(), key=lambda item: (item[0][0], item[0][1])
        ):
            out.append(f"{_witness(indicator, adornment)}: {detism}")
        return out


def entry_patterns(program: Program, query: Term | None = None) -> list[tuple[Indicator, str]]:
    """Entry call patterns: ``:- entry_point(...)`` directives + query.

    ``g`` arguments are bound, anything else free — the same convention
    the groundness driver uses for its abstract entry goals.
    """
    entries: list[tuple[Indicator, str]] = []
    for directive in program.directives:
        if not (
            isinstance(directive, Struct)
            and directive.indicator == ("entry_point", 1)
        ):
            continue
        pattern = directive.args[0]
        if isinstance(pattern, Struct):
            adornment = "".join("b" if a == "g" else "f" for a in pattern.args)
            entries.append((pattern.indicator, adornment))
        elif isinstance(pattern, str):
            entries.append(((pattern, 0), ""))
    if query is not None:
        if isinstance(query, Struct):
            entries.append((query.indicator, adornment_of(query)))
        elif isinstance(query, str):
            entries.append(((query, 0), ""))
    return entries


def check_modes(
    program: Program,
    query: Term | None = None,
    filename: str | None = None,
    budget=None,
    governor=None,
    fault=None,
    use_groundness: bool = True,
    groundness=None,
    summaries=None,
    prop_backend: str | None = None,
) -> ModeReport:
    """Run the groundness-flow mode check; see the module docstring.

    ``groundness`` may pass a precomputed
    :class:`~repro.core.groundness.GroundnessResult` (it must stem from
    the same program); otherwise the backend runs here, sharing this
    pass's governor so one budget covers the whole check.

    ``summaries`` is an optional
    :class:`~repro.analysis.summaries.SummaryStore`: the groundness
    backend is then computed modularly, reusing per-component
    summaries across files.  The escalation ladder is *summary →
    whole-program → adorn-only*: any failure of the modular backend
    (budget trip, store error) falls back to the exact whole-program
    analysis, never to an unsound claim.
    """
    import time

    from repro.runtime.budget import ResourceExhausted, governor_for
    from repro.runtime.degrade import record_trip

    report = ModeReport()
    gov = governor_for(budget, governor, fault)

    t0 = time.perf_counter()
    report.diagnostics.extend(_redundant_clauses(program, filename))
    report.timings["redundant_clauses"] = time.perf_counter() - t0

    entries = entry_patterns(program, query)
    if not entries:
        if filename:
            _attach_file(report, filename)
        return report

    t0 = time.perf_counter()
    if use_groundness and groundness is None and summaries is not None:
        try:
            from repro.analysis.summaries import groundness_via_summaries

            groundness = groundness_via_summaries(
                program, store=summaries, governor=gov,
                prop_backend=prop_backend,
            )
        except ResourceExhausted:
            # modular backend tripped the shared governor: re-arm it
            # and escalate to the whole-program analysis below
            gov = None if gov is None else gov.restarted()
            groundness = None
        except Exception:  # noqa: BLE001 — a broken store must never
            # block the check; escalate to the whole-program backend
            groundness = None
    if use_groundness and groundness is None:
        try:
            from repro.core.groundness import analyze_groundness

            groundness = analyze_groundness(
                program, governor=gov, degrade=False, prop_backend=prop_backend
            )
        except ResourceExhausted as exc:
            record_trip("modecheck", "prop", exc, report.events)
            report.completeness = "adorn"
            groundness = None
            gov = None if gov is None else gov.restarted()
    report.timings["groundness_backend"] = time.perf_counter() - t0
    if groundness is not None and groundness.degraded:
        # a degraded backend's tables under-approximate: claim nothing
        groundness = None
    if groundness is None and report.completeness == "prop":
        # disabled, exhausted, or degraded: the optimistic tier only
        report.completeness = "adorn"
    report.groundness = groundness

    t0 = time.perf_counter()
    checker = _FlowChecker(program, groundness, gov, report)
    try:
        checker.run(entries)
        checker.finish()
        _estimate_determinism(program, checker, report)
    except ResourceExhausted as exc:
        record_trip("modecheck", report.completeness, exc, report.events)
        report.completeness = "partial"
    report.timings["adornment"] = time.perf_counter() - t0

    if filename:
        _attach_file(report, filename)
    return report


def _attach_file(report: ModeReport, filename: str) -> None:
    report.diagnostics = [d.with_file(filename) for d in report.diagnostics]


def _witness(indicator: Indicator, adornment: str) -> str:
    name, arity = indicator
    if not arity:
        return name
    if not adornment:
        adornment = "f" * arity
    return f"{name}({','.join(adornment)})"


# ----------------------------------------------------------------------
# The two-tier binding flow


class _State:
    """Bound-variable sets of both tiers at one program point."""

    __slots__ = ("opt", "prop")

    def __init__(self, opt: set[int], prop: set[int]):
        self.opt = opt
        self.prop = prop

    def copy(self) -> "_State":
        return _State(set(self.opt), set(self.prop))

    def merge(self, other: "_State") -> None:
        """Join of two branches: bound afterwards = bound in both."""
        self.opt &= other.opt
        self.prop &= other.prop


class _FlowChecker:
    """Worklist fixpoint over (predicate, adornment) pairs."""

    def __init__(self, program: Program, groundness, governor, report: ModeReport):
        self.program = program
        self.groundness = groundness
        self.governor = governor
        self.report = report
        self.worklist: deque[tuple[Indicator, str]] = deque()
        self.seen: set[tuple[Indicator, str]] = set()
        #: diagnostics deduplicated across call patterns (the worst
        #: severity wins; first witness at that severity)
        self.found: dict[tuple, Diagnostic] = {}
        #: clause key -> reaching patterns / patterns with a certain error
        self.clause_patterns: dict[tuple[Indicator, int], set[str]] = {}
        self.clause_errors: dict[tuple[Indicator, int], set[str]] = {}
        #: body call sites per (clause key, pattern), for determinism
        self.clause_lines: dict[tuple[Indicator, int], int] = {}

    # -- worklist ------------------------------------------------------
    def enqueue(self, indicator: Indicator, adornment: str) -> None:
        key = (indicator, adornment)
        if key in self.seen:
            return
        self.seen.add(key)
        self.worklist.append(key)
        self.report.reached.setdefault(indicator, set()).add(adornment)

    def run(self, entries: list[tuple[Indicator, str]]) -> None:
        for indicator, adornment in entries:
            self.enqueue(indicator, adornment)
        while self.worklist:
            indicator, adornment = self.worklist.popleft()
            for index, clause in enumerate(self.program.clauses_for(indicator)):
                if self.governor is not None:
                    self.governor.charge("steps", clause.head)
                self._check_clause(indicator, index, clause, adornment)

    def finish(self) -> None:
        """Emit the deduplicated diagnostics and clause-level rollups."""
        self.report.diagnostics.extend(self.found.values())
        for key, reaching in self.clause_patterns.items():
            indicator, index = key
            erring = self.clause_errors.get(key, set())
            if reaching and erring == reaching:
                patterns = ", ".join(
                    _witness(indicator, a) for a in sorted(reaching)
                )
                self.report.diagnostics.append(
                    Diagnostic(
                        "mode-conflict",
                        Severity.ERROR,
                        "clause satisfies no inferred call pattern "
                        f"(all of: {patterns})",
                        indicator,
                        index,
                        self.clause_lines.get(key, 0),
                        witness=_witness(indicator, sorted(reaching)[0]),
                    )
                )

    # -- per clause ----------------------------------------------------
    def _check_clause(
        self, indicator: Indicator, index: int, clause: Clause, adornment: str
    ) -> None:
        key = (indicator, index)
        self.clause_lines[key] = clause.line
        self.clause_patterns.setdefault(key, set()).add(adornment)
        head_bound = head_bound_vars(clause.head, adornment)
        bound = self.report.entry_bound.get(key)
        if bound is None:
            self.report.entry_bound[key] = set(head_bound)
        else:
            bound &= head_bound
        context = _Context(self, indicator, index, clause, adornment)
        state = _State(set(head_bound), set(head_bound))
        context.walk(clause.body, state)
        if context.certain_error:
            self.clause_errors.setdefault(key, set()).add(adornment)

    # -- diagnostics ---------------------------------------------------
    def record(self, dedup_key: tuple, diagnostic: Diagnostic) -> None:
        existing = self.found.get(dedup_key)
        if existing is None or diagnostic.severity > existing.severity:
            self.found[dedup_key] = diagnostic


class _Context:
    """One (clause, call pattern) traversal; emits flow diagnostics."""

    def __init__(self, checker: _FlowChecker, indicator, index, clause, adornment):
        self.checker = checker
        self.indicator = indicator
        self.index = index
        self.clause = clause
        self.adornment = adornment
        self.certain_error = False

    @property
    def witness(self) -> str:
        return _witness(self.indicator, self.adornment)

    # -- traversal -----------------------------------------------------
    def walk(self, goal: Term, state: _State) -> None:
        if goal in ("true", "!", "fail", "false", "otherwise"):
            return
        if isinstance(goal, (Var, int)):
            return  # dynamic or ill-formed goal: handled elsewhere
        indicator = goal.indicator if isinstance(goal, Struct) else (goal, 0)
        name, arity = indicator
        if name == "," and arity == 2:
            self.walk(goal.args[0], state)
            self.walk(goal.args[1], state)
            return
        if name == ";" and arity == 2:
            left, right = goal.args
            left_state = state.copy()
            if isinstance(left, Struct) and left.indicator == ("->", 2):
                self.walk(left.args[0], left_state)
                self.walk(left.args[1], left_state)
            else:
                self.walk(left, left_state)
            self.walk(right, state)
            state.merge(left_state)
            return
        if name == "->" and arity == 2:
            self.walk(goal.args[0], state)
            self.walk(goal.args[1], state)
            return
        if indicator in _NEGATION:
            self._negation(goal, state)
            return
        if indicator in _ALL_SOLUTIONS:
            self._all_solutions(goal, state)
            return
        if name == "call" and arity >= 1:
            target = goal.args[0]
            if isinstance(target, Var):
                return
            if arity > 1:
                if isinstance(target, str):
                    target = Struct(target, tuple(goal.args[1:]))
                elif isinstance(target, Struct):
                    target = Struct(target.functor, target.args + tuple(goal.args[1:]))
            self.walk(target, state)
            return
        if is_builtin(indicator):
            self._builtin(goal, indicator, state)
            return
        self._user_call(goal, indicator, state)

    # -- negation ------------------------------------------------------
    def _negation(self, goal: Term, state: _State) -> None:
        inner = goal.args[0]
        # anonymous (_-prefixed) variables under \+ are the existential
        # idiom ("no such thing exists"), not a floundering bug
        unbound_opt = [
            v
            for v in term_variables(inner)
            if v.id not in state.opt and _named(v)
        ]
        unbound_prop = [
            v
            for v in term_variables(inner)
            if v.id not in state.prop and _named(v)
        ]
        if unbound_opt:
            self._report(
                "unsafe-negation",
                Severity.WARNING,
                f"negated goal {_goal_name(inner)} has unbound "
                f"{_var_list(unbound_opt)}; negation-as-failure over a "
                "non-ground goal flounders",
                ("unsafe-negation", self.indicator, self.index, _goal_name(inner)),
            )
        elif unbound_prop:
            self._report(
                "unsafe-negation",
                Severity.WARNING,
                f"negated goal {_goal_name(inner)} has possibly unbound "
                f"{_var_list(unbound_prop)} (groundness analysis cannot "
                "prove groundness); negation-as-failure may flounder",
                ("unsafe-negation", self.indicator, self.index, _goal_name(inner)),
            )
        # the inner goal still runs: check its flow in a sandbox
        self.walk(inner, state.copy())

    # -- all-solutions -------------------------------------------------
    def _all_solutions(self, goal: Term, state: _State) -> None:
        template, inner, result = goal.args
        sandbox = state.copy()
        self.walk(inner, sandbox)
        # the collected list is ground iff every template instance is
        if argument_bound(template, sandbox.opt):
            bind_literal(result, state.opt)
        if argument_bound(template, sandbox.prop):
            bind_literal(result, state.prop)

    # -- builtins ------------------------------------------------------
    def _builtin(self, goal: Term, indicator: Indicator, state: _State) -> None:
        decl = modes_for(indicator)
        if decl is None:
            return  # undeclared builtin: safety reports unknown-builtin
        args = goal.args if isinstance(goal, Struct) else ()
        certain = self._check_tier(goal, indicator, decl, args, state.opt, True)
        if certain:
            self.certain_error = True
        if self.checker.groundness is not None and not certain:
            self._check_tier(goal, indicator, decl, args, state.prop, False)
        self._apply_builtin(decl, args, state.opt, grounds=False)
        self._apply_builtin(decl, args, state.prop, grounds=True)

    def _check_tier(self, goal, indicator, decl, args, bound, certain: bool) -> bool:
        """Mode-check one tier; returns True when a violation fired."""
        satisfied = [
            alternative
            for alternative in decl.alternatives
            if self._requires_met(decl, args, alternative[0], bound)
        ]
        if satisfied:
            return False
        # name the inputs of the closest alternative (fewest unbound)
        best = min(
            decl.alternatives,
            key=lambda alt: len(self._unbound(args, alt[0], bound)),
        )
        offenders = self._unbound(args, best[0], bound)
        name = f"{indicator[0]}/{indicator[1]}"
        if certain:
            self._report(
                "instantiation-error",
                Severity.ERROR,
                f"builtin {name} needs {_var_list(offenders)} bound, but "
                "nothing on any path to this call binds "
                f"{'it' if len(offenders) == 1 else 'them'}",
                ("instantiation-error", self.indicator, self.index, _goal_name(goal)),
            )
        else:
            self._report(
                "instantiation-error",
                Severity.WARNING,
                f"builtin {name} needs {_var_list(offenders)} bound, and "
                "the groundness analysis cannot prove "
                f"{'it' if len(offenders) == 1 else 'them'} ground here",
                ("instantiation-error", self.indicator, self.index, _goal_name(goal)),
            )
        return True

    @staticmethod
    def _unbound(args, positions, bound) -> list[Var]:
        out: list[Var] = []
        seen: set[int] = set()
        for position in positions:
            for var in term_variables(args[position]):
                if var.id not in bound and var.id not in seen:
                    seen.add(var.id)
                    out.append(var)
        return out

    @staticmethod
    def _requires_met(decl, args, positions, bound) -> bool:
        """One alternative's inputs are satisfied in the given tier."""
        return all(
            argument_bound(args[p], bound)
            or (p in decl.skeleton and list_skeleton(args[p], bound))
            for p in positions
        )

    @staticmethod
    def _apply_builtin(decl, args, bound: set[int], grounds: bool) -> None:
        """Post-state of one tier: bindings of the satisfied modes.

        ``grounds`` marks the groundness tier: a mode satisfied only
        through a list skeleton instantiates its output without
        grounding it, so its binds apply to the optimistic tier alone
        (``propagates`` still grounds the output once the whole
        skeleton is ground).
        """
        satisfied = False
        for requires, binds in decl.alternatives:
            fully_ground = all(argument_bound(args[p], bound) for p in requires)
            if not fully_ground and not _Context._requires_met(
                decl, args, requires, bound
            ):
                continue
            satisfied = True
            if not fully_ground and grounds:
                continue
            for position in binds:
                bind_literal(args[position], bound)
        if not satisfied:
            # after reporting, assume the intended mode to avoid cascades
            for position in decl.all_binds():
                bind_literal(args[position], bound)
        for src, dst in decl.propagates:
            if argument_bound(args[src], bound):
                bind_literal(args[dst], bound)

    # -- user calls ----------------------------------------------------
    def _user_call(self, goal: Term, indicator: Indicator, state: _State) -> None:
        checker = self.checker
        args = goal.args if isinstance(goal, Struct) else ()
        if checker.program.clauses_for(indicator):
            adornment = literal_adornment(goal, state.opt)
            checker.enqueue(indicator, adornment)
            if checker.groundness is not None:
                pattern = tuple(
                    argument_bound(arg, state.prop) or None for arg in args
                )
                ground_out = checker.groundness.ground_on_success_for(
                    indicator, tuple(p is True for p in pattern)
                )
                for position, definite in enumerate(ground_out):
                    if definite:
                        bind_literal(args[position], state.prop)
            else:
                bind_literal(goal, state.prop)
        else:
            # undefined or dynamic: undefined-call reports it; stay lenient
            bind_literal(goal, state.prop)
        bind_literal(goal, state.opt)

    # -- helpers -------------------------------------------------------
    def _report(self, rule, severity, message, dedup_key) -> None:
        self.checker.record(
            dedup_key,
            Diagnostic(
                rule,
                severity,
                message,
                self.indicator,
                self.index,
                self.clause.line,
                witness=self.witness,
            ),
        )


def _named(var: Var) -> bool:
    """Variables the user wrote and did not mark as don't-care."""
    name = getattr(var, "name", None)
    return bool(name) and not name.startswith("_")


def _goal_name(goal: Term) -> str:
    if isinstance(goal, Struct):
        return f"{goal.functor}/{goal.arity}"
    if isinstance(goal, str):
        return f"{goal}/0"
    return repr(goal)


def _var_list(variables) -> str:
    names = ", ".join(v.name or f"_G{v.id}" for v in variables)
    if len(variables) == 1:
        return f"variable {names}"
    return f"variables {names}"


# ----------------------------------------------------------------------
# Determinism estimation


def _estimate_determinism(program: Program, checker: _FlowChecker, report: ModeReport) -> None:
    """Fixpoint multiplicity estimate per reached (predicate, adornment).

    Clause bodies combine builtin multiplicities sequentially; clauses
    combine by :func:`~repro.analysis.modes.join` when their heads are
    pairwise distinguishable at some bound argument position (at most
    one can match — but coverage is unknowable, so failure is assumed
    possible) and by :func:`~repro.analysis.modes.alternation`
    otherwise.
    """
    pairs = sorted(checker.seen)
    estimates: dict[tuple[Indicator, str], Determinism] = {
        pair: Determinism.DET for pair in pairs
    }
    for _round in range(4 * len(pairs) + 4):
        changed = False
        for pair in pairs:
            new = _pred_determinism(program, pair, estimates)
            if new != estimates[pair]:
                estimates[pair] = new
                changed = True
        if not changed:
            break
    report.determinism = estimates


def _pred_determinism(program: Program, pair, estimates) -> Determinism:
    indicator, adornment = pair
    clauses = program.clauses_for(indicator)
    if not clauses:
        return Determinism.NONDET
    per_clause = []
    for clause in clauses:
        bound = head_bound_vars(clause.head, adornment)
        detism = _head_determinism(clause.head, adornment)
        detism = seq(detism, _goal_determinism(clause.body, bound, program, estimates))
        per_clause.append(detism)
    result = per_clause[0]
    exclusive = _mutually_exclusive(clauses, adornment)
    for detism in per_clause[1:]:
        result = join(result, detism) if exclusive else alternation(result, detism)
    if exclusive and len(clauses) > 1:
        # at most one clause applies, but nothing proves one must
        result = Determinism((True, result.can_multi))
    return result


def _head_determinism(head: Term, adornment: str) -> Determinism:
    """Head unification: can it fail?  (Never yields extra solutions.)"""
    if not isinstance(head, Struct):
        return Determinism.DET
    seen: set[int] = set()
    for arg, kind in zip(head.args, adornment or "f" * head.arity):
        if kind == "b" and not isinstance(arg, Var):
            return Determinism.SEMIDET  # bound argument matched structurally
        if isinstance(arg, Var):
            if arg.id in seen:
                return Determinism.SEMIDET  # repeated variable: equality test
            seen.add(arg.id)
    return Determinism.DET


def _goal_determinism(goal: Term, bound: set[int], program, estimates) -> Determinism:
    if goal in ("true", "!", "otherwise"):
        return Determinism.DET
    if goal in ("fail", "false"):
        return Determinism.SEMIDET
    if isinstance(goal, (Var, int)):
        return Determinism.NONDET
    indicator = goal.indicator if isinstance(goal, Struct) else (goal, 0)
    name, arity = indicator
    if name == "," and arity == 2:
        left = _goal_determinism(goal.args[0], bound, program, estimates)
        right = _goal_determinism(goal.args[1], bound, program, estimates)
        return seq(left, right)
    if name == ";" and arity == 2:
        left_goal, right_goal = goal.args
        if isinstance(left_goal, Struct) and left_goal.indicator == ("->", 2):
            left_goal = Struct(",", left_goal.args)
        left = _goal_determinism(left_goal, set(bound), program, estimates)
        right = _goal_determinism(right_goal, set(bound), program, estimates)
        return alternation(left, right)
    if name == "->" and arity == 2:
        left = _goal_determinism(goal.args[0], bound, program, estimates)
        right = _goal_determinism(goal.args[1], bound, program, estimates)
        return seq(left, right)
    if indicator in _NEGATION:
        return Determinism.SEMIDET
    if indicator in _ALL_SOLUTIONS:
        return Determinism.DET
    if name == "call" and arity >= 1:
        return Determinism.NONDET
    if is_builtin(indicator):
        detism = _builtin_determinism(goal, indicator, bound)
        bind_literal(goal, bound)
        return detism
    adornment = literal_adornment(goal, bound)
    bind_literal(goal, bound)
    return estimates.get((indicator, adornment), Determinism.NONDET)


def _builtin_determinism(goal, indicator: Indicator, bound: set[int]) -> Determinism:
    # output modes of =/2 and is/2 cannot fail: a fresh variable on one
    # side takes whatever the other side produces
    if indicator == ("is", 2) or indicator == ("=", 2):
        target = goal.args[0]
        if isinstance(target, Var) and target.id not in bound:
            return Determinism.DET
        if indicator == ("=", 2):
            other = goal.args[1]
            if isinstance(other, Var) and other.id not in bound:
                return Determinism.DET
        return Determinism.SEMIDET
    decl = modes_for(indicator)
    return decl.detism if decl is not None else Determinism.NONDET


def _mutually_exclusive(clauses: list[Clause], adornment: str) -> bool:
    """True when at most one clause can succeed for any single call.

    Holds when every clause pair is distinguishable, either by distinct
    non-variable functors at some bound argument position, or by
    complementary arithmetic guards over the same head variables (the
    ``X =< P`` / ``X > P`` partition idiom).
    """
    if len(clauses) < 2:
        return True
    if not all(isinstance(c.head, Struct) for c in clauses):
        return False
    return all(
        _exclusive_pair(clauses[i], clauses[j], adornment)
        for i in range(len(clauses))
        for j in range(i + 1, len(clauses))
    )


def _exclusive_pair(a: Clause, b: Clause, adornment: str) -> bool:
    for position in range(min(a.head.arity, b.head.arity, len(adornment))):
        if adornment[position] != "b":
            continue
        x, y = a.head.args[position], b.head.args[position]
        if isinstance(x, Var) or isinstance(y, Var):
            continue
        key_x = x.indicator if isinstance(x, Struct) else (x, "atomic")
        key_y = y.indicator if isinstance(y, Struct) else (y, "atomic")
        if key_x != key_y:
            return True
    return _complementary_guards(a, b)


#: arithmetic/order test pairs where at most one can succeed on the
#: same (instantiated) arguments
_COMPLEMENT = {
    ("=<", ">"), (">", "=<"), ("<", ">="), (">=", "<"),
    ("=:=", "=\\="), ("=\\=", "=:="), ("==", "\\=="), ("\\==", "=="),
}


def _complementary_guards(a: Clause, b: Clause) -> bool:
    """First body goals are complementary tests on corresponding terms.

    Correspondence comes from the common structure of the two heads:
    variables sitting at the same path of structurally identical head
    parts receive the same value for any single call, so complementary
    guards over them cannot both succeed.
    """
    guard_a, guard_b = _first_goal(a.body), _first_goal(b.body)
    if not (isinstance(guard_a, Struct) and isinstance(guard_b, Struct)):
        return False
    if guard_a.arity != 2 or guard_b.arity != 2:
        return False
    if (guard_a.functor, guard_b.functor) not in _COMPLEMENT:
        return False
    mapping = _head_var_mapping(a.head, b.head)
    if mapping is None:
        return False
    return all(
        _mapped_equal(x, y, mapping)
        for x, y in zip(guard_a.args, guard_b.args)
    )


def _first_goal(body: Term) -> Term | None:
    while isinstance(body, Struct) and body.indicator == (",", 2):
        body = body.args[0]
    return body


def _head_var_mapping(head_a: Term, head_b: Term) -> dict[int, int] | None:
    """Variable correspondence from the heads' common structure.

    Positions where the two heads have different shapes constrain
    nothing and are skipped; an inconsistent mapping aborts (claim
    nothing rather than guess).
    """
    if not (
        isinstance(head_a, Struct)
        and isinstance(head_b, Struct)
        and head_a.arity == head_b.arity
    ):
        return None
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    stack = list(zip(head_a.args, head_b.args))
    while stack:
        x, y = stack.pop()
        if isinstance(x, Var) and isinstance(y, Var):
            if forward.get(x.id, y.id) != y.id or backward.get(y.id, x.id) != x.id:
                return None
            forward[x.id] = y.id
            backward[y.id] = x.id
        elif (
            isinstance(x, Struct)
            and isinstance(y, Struct)
            and x.indicator == y.indicator
        ):
            stack.extend(zip(x.args, y.args))
    return forward


def _mapped_equal(x: Term, y: Term, forward: dict[int, int]) -> bool:
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, Var):
            if not (isinstance(y, Var) and forward.get(x.id) == y.id):
                return False
        elif isinstance(x, Struct):
            if not (
                isinstance(y, Struct)
                and x.indicator == y.indicator
            ):
                return False
            stack.extend(zip(x.args, y.args))
        else:
            if isinstance(y, (Var, Struct)) or x != y:
                return False
    return True


# ----------------------------------------------------------------------
# Redundant clauses (syntactic subsumption)


def _redundant_clauses(program: Program, filename: str | None) -> list[Diagnostic]:
    """Clauses that can contribute no answer under any call pattern.

    Two sound cases: a clause that is a *variant* of an earlier clause
    of the same predicate (an exact duplicate), and a clause whose head
    is an instance of an earlier *fact*'s head (every answer it could
    produce is already an answer of that fact).
    """
    out: list[Diagnostic] = []
    for indicator in program.predicates():
        clauses = program.clauses_for(indicator)
        if len(clauses) < 2:
            continue
        keys = [
            variant_key(Struct(":-", (c.head, c.body)), EMPTY_SUBST) for c in clauses
        ]
        for later_index in range(1, len(clauses)):
            later = clauses[later_index]
            for earlier_index in range(later_index):
                earlier = clauses[earlier_index]
                duplicate = keys[earlier_index] == keys[later_index]
                # subsumes never binds the later head: its variables stay
                # constants even where two clauses share variable ids
                subsumed = earlier.is_fact() and subsumes(earlier.head, later.head)
                if not duplicate and not subsumed:
                    continue
                reason = (
                    "is an exact duplicate of"
                    if duplicate
                    else "is subsumed by fact"
                )
                out.append(
                    Diagnostic(
                        "redundant-clause",
                        Severity.WARNING,
                        f"clause {reason} clause {earlier_index + 1}; it can "
                        "contribute no new answer under any call pattern",
                        indicator,
                        later_index,
                        later.line,
                        witness=f"clause {earlier_index + 1}",
                    )
                )
                break
    return out
