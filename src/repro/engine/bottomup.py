"""Semi-naive bottom-up evaluation — the Coral-style comparator.

Computes the minimal model of a definite program by fixed-point
iteration with delta sets (semi-naive evaluation): each round joins the
*new* facts of the previous round with the full store, so no rule
instance is re-derived needlessly.  This is the deductive-database
evaluation strategy the paper contrasts with top-down tabling
(sections 2 and 7).

Evaluation is **SCC-guided** by default: the predicate dependency graph
(:mod:`repro.analysis.depgraph`) is condensed into strongly connected
components and evaluated callees-first.  Rules whose bodies only
reference lower components fire exactly once against the already
complete relations; only genuinely recursive components run the
semi-naive loop, and the delta join is restricted to same-component
body positions.  ``scc=False`` selects the flat whole-program loop
(kept as the ablation baseline); both modes produce the same minimal
model, the SCC mode with strictly fewer rule applications on layered
programs (compare :attr:`BottomUpEngine.rule_firings`).

Supported programs: clauses whose body literals are user predicates,
deterministic builtins, or **stratified negation** (``\\+ Goal`` /
``not(Goal)``).  A negative literal is evaluated as negation-as-failure
against the *frozen* relations of a strictly lower stratum
(:func:`repro.analysis.stratify.stratum_numbers`): Tarjan's
callees-first component order already completes the negated component
before its negating caller starts, so no stratum-*k+1* rule ever reads
a stratum-*k* table that is still growing.  Programs that negate inside
a recursive component are rejected up front with
:class:`UnstratifiedProgramError`, which carries the same
``unstratified-negation`` diagnostics the lint pass reports.
Derived facts may contain variables (non-ground facts are stored
canonically), which the Prop-domain abstract programs need
(``sp_f(n, X, Y)`` style answers).
"""

from __future__ import annotations

from repro.engine.builtins import DET_BUILTINS, NONDET_BUILTINS, PrologError
from repro.obs.observer import resolve_observer
from repro.prolog.program import Indicator, Program, flatten_conjunction
from repro.terms.subst import EMPTY_SUBST, Subst
from repro.terms.term import Struct, Term, Var
from repro.terms.unify import unify
from repro.terms.variant import canonical, rename_apart, variant_key


#: goal wrappers evaluated as negation-as-failure
_NEG: frozenset[Indicator] = frozenset({("\\+", 1), ("not", 1)})


class UnstratifiedProgramError(PrologError):
    """The program negates inside a recursive component.

    Raised before evaluation starts; :attr:`diagnostics` carries the
    ``unstratified-negation`` lint diagnostics
    (:func:`repro.analysis.stratify.unstratified_sites`) for the
    offending call sites, so engine callers surface exactly what
    ``python -m repro.lint`` would.
    """

    rule = "unstratified-negation"

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(d.format() for d in self.diagnostics)
        super().__init__(
            "[unstratified-negation] program is not stratified: "
            + (detail or "a predicate depends on its own negation")
        )


class _Relation:
    """Fact store for one predicate, with delta tracking."""

    __slots__ = ("facts", "keys")

    def __init__(self):
        self.facts: list[Term] = []
        self.keys: set = set()

    def add(self, fact: Term) -> bool:
        key = variant_key(fact)
        if key in self.keys:
            return False
        self.keys.add(key)
        self.facts.append(fact)
        return True


class _Rule:
    """One non-fact clause, flattened, with source provenance.

    ``user_positions`` are the *positive* user-predicate positions (the
    only ones eligible for the semi-naive delta join); negative
    literals live in ``neg_positions`` and are evaluated inline as
    existence checks against completed lower-stratum relations — they
    bind nothing, so they never participate in a delta.
    """

    __slots__ = ("indicator", "head", "body", "line", "user_positions",
                 "neg_positions")

    def __init__(self, indicator: Indicator, head: Term, body: list[Term], line: int):
        self.indicator = indicator
        self.head = head
        self.body = body
        self.line = line
        self.neg_positions = [
            i for i, literal in enumerate(body) if _indicator(literal) in _NEG
        ]
        self.user_positions = [
            i
            for i, literal in enumerate(body)
            if not _is_builtin(_indicator(literal))
            and _indicator(literal) not in _NEG
        ]


class BottomUpEngine:
    """Semi-naive evaluation of a definite program's minimal model.

    ``scc=True`` (default) evaluates the dependency condensation
    callees-first; ``scc=False`` runs the flat single-loop strategy.
    ``rounds`` counts semi-naive iterations and ``rule_firings`` counts
    rule applications (one delta-join pass over one rule) — the metric
    the SCC schedule reduces.  The counters accumulate on the engine as
    work happens, so a run stopped by its budget still reports what it
    spent.
    """

    def __init__(
        self,
        program: Program,
        scc: bool = True,
        governor=None,
        obs=None,
    ):
        self.program = program
        self.scc = scc
        self.governor = governor
        self.obs = resolve_observer(obs)
        self.relations: dict[Indicator, _Relation] = {}
        self.rounds = 0
        self.derivations = 0
        self.rule_firings = 0
        self.neg_checks = 0
        self.scc_count = 0
        self.strata: dict[Indicator, int] | None = None
        self._evaluated = False

    # ------------------------------------------------------------------
    def evaluate(self) -> "BottomUpEngine":
        """Run to fixed point; idempotent."""
        if self._evaluated:
            return self
        obs = self.obs
        if not obs.enabled:
            return self._evaluate()
        with obs.span("engine.bottomup.evaluate", scc=self.scc) as span:
            rounds0 = self.rounds
            derivations0 = self.derivations
            firings0 = self.rule_firings
            negs0 = self.neg_checks
            try:
                return self._evaluate()
            finally:
                span.attrs["rounds"] = self.rounds
                span.attrs["derivations"] = self.derivations
                span.attrs["rule_firings"] = self.rule_firings
                span.attrs["scc_count"] = self.scc_count
                registry = obs.registry
                registry.counter("engine.bottomup.rounds").value += (
                    self.rounds - rounds0
                )
                registry.counter("engine.bottomup.derivations").value += (
                    self.derivations - derivations0
                )
                registry.counter("engine.bottomup.rule_firings").value += (
                    self.rule_firings - firings0
                )
                if self.neg_checks != negs0:
                    registry.counter("engine.negation.calls").value += (
                        self.neg_checks - negs0
                    )

    def _evaluate(self) -> "BottomUpEngine":
        rules: list[_Rule] = []
        initial: dict[Indicator, list[Term]] = {}
        for indicator in self.program.predicates():
            for clause in self.program.clauses_for(indicator):
                body = flatten_conjunction(clause.body)
                if not body:
                    fact = canonical(clause.head)
                    if self._relation(indicator).add(fact):
                        initial.setdefault(indicator, []).append(fact)
                else:
                    rules.append(_Rule(indicator, clause.head, body, clause.line))
        has_negation = any(rule.neg_positions for rule in rules)
        if has_negation and not self.scc:
            raise PrologError(
                "negation requires SCC-guided evaluation (scc=True): the "
                "flat loop has no strata to freeze negated relations against"
            )
        if self.scc:
            self._evaluate_by_scc(rules, initial, has_negation)
        else:
            self._evaluate_flat(rules, initial)
        self._evaluated = True
        return self

    def facts(self, indicator: Indicator) -> list[Term]:
        """All derived facts for a predicate (after :meth:`evaluate`)."""
        self.evaluate()
        relation = self.relations.get(indicator)
        return list(relation.facts) if relation else []

    def holds(self, goal: Term) -> list[Term]:
        """Instances of ``goal`` in the minimal model."""
        self.evaluate()
        results = []
        for fact in self.facts(_indicator(goal)):
            subst = unify(goal, rename_apart(fact), EMPTY_SUBST)
            if subst is not None:
                results.append(subst.resolve(goal))
        return results

    # ------------------------------------------------------------------
    # SCC-guided evaluation: condensation order, callees first.

    def _evaluate_by_scc(
        self, rules: list[_Rule], initial, has_negation: bool = False
    ) -> None:
        from repro.analysis.depgraph import DependencyGraph

        graph = DependencyGraph(self.program)
        components = graph.sccs()  # callees before callers
        index = graph.scc_index()
        self.scc_count = len(components)
        if has_negation:
            from repro.analysis.stratify import stratum_numbers, unstratified_sites

            sites = unstratified_sites(graph)
            numbers = stratum_numbers(graph)
            if sites or numbers is None:
                raise UnstratifiedProgramError(sites)
            self.strata = numbers
        rules_by_scc: dict[int, list[_Rule]] = {}
        for rule in rules:
            rules_by_scc.setdefault(index[rule.indicator], []).append(rule)
        if self.obs.enabled:
            registry = self.obs.registry
            registry.gauge("engine.scc.largest_component").set(
                max((len(component) for component in components), default=0)
            )
            registry.gauge("engine.scc.components").set(len(components))

        # Tarjan's callees-first order covers negative edges too (they are
        # ordinary condensation edges), so every negated relation is
        # frozen before its negating component runs
        for position, component in enumerate(components):
            self._evaluate_component(
                component, rules_by_scc.get(position, ()), initial
            )

    def _evaluate_component(self, component, component_rules, initial) -> None:
        """Evaluate one SCC against already-complete callee relations."""
        members = set(component)
        delta: list[Term] = []
        for indicator in component:
            delta.extend(initial.get(indicator, ()))
        recursive: list[tuple[_Rule, list[int]]] = []
        for rule in component_rules:
            scc_positions = [
                i
                for i in rule.user_positions
                if _indicator(rule.body[i]) in members
            ]
            if scc_positions:
                recursive.append((rule, scc_positions))
            else:
                # every dependency is already complete: fire once
                self._fire_full(rule, delta)
        if recursive:
            self._seminaive(recursive, delta)

    def _seminaive(self, recursive: list, delta: list[Term]) -> None:
        """Delta iteration over one recursive component."""
        by_pred: dict[Indicator, list] = {}
        for entry in recursive:
            rule, scc_positions = entry
            for i in scc_positions:
                by_pred.setdefault(_indicator(rule.body[i]), []).append(entry)
        while delta:
            self.rounds += 1
            if self.governor is not None:
                self.governor.charge("rounds", delta[0])
            delta_keys = {variant_key(f) for f in delta}
            delta_by_pred: dict[Indicator, list[Term]] = {}
            for fact in delta:
                delta_by_pred.setdefault(_indicator(fact), []).append(fact)
            next_delta: list[Term] = []
            seen = set()
            for indicator in delta_by_pred:
                for entry in by_pred.get(indicator, ()):
                    if id(entry) in seen:
                        continue
                    seen.add(id(entry))
                    rule, scc_positions = entry
                    self._fire(rule, scc_positions, delta_keys, delta_by_pred,
                               next_delta)
            delta = next_delta

    # ------------------------------------------------------------------
    # Flat evaluation: the original whole-program loop (ablation baseline).

    def _evaluate_flat(self, rules: list[_Rule], initial) -> None:
        delta: list[Term] = [f for group in initial.values() for f in group]
        by_pred: dict[Indicator, list[_Rule]] = {}
        for rule in rules:
            if not rule.user_positions:
                # builtin-only body: derivable immediately, no delta to wait on
                self._fire_full(rule, delta)
                continue
            for i in rule.user_positions:
                by_pred.setdefault(_indicator(rule.body[i]), []).append(rule)
        while delta:
            self.rounds += 1
            if self.governor is not None:
                self.governor.charge("rounds", delta[0])
            delta_keys = {variant_key(f) for f in delta}
            delta_by_pred: dict[Indicator, list[Term]] = {}
            for fact in delta:
                delta_by_pred.setdefault(_indicator(fact), []).append(fact)
            next_delta: list[Term] = []
            seen_rules = set()
            for indicator in delta_by_pred:
                for rule in by_pred.get(indicator, ()):
                    if id(rule) in seen_rules:
                        continue
                    seen_rules.add(id(rule))
                    self._fire(
                        rule, rule.user_positions, delta_keys, delta_by_pred,
                        next_delta
                    )
            delta = next_delta

    # ------------------------------------------------------------------
    def _relation(self, indicator: Indicator) -> _Relation:
        relation = self.relations.get(indicator)
        if relation is None:
            relation = _Relation()
            self.relations[indicator] = relation
        return relation

    def _fire_full(self, rule: _Rule, next_delta: list[Term]) -> None:
        """Apply a rule once, joining every position against the store."""
        self.rule_firings += 1
        if self.governor is not None:
            self.governor.poll(rule.head)
        renamed = rename_apart(Struct("$rule", (rule.head, *rule.body)))
        head, body = renamed.args[0], list(renamed.args[1:])
        self._join(rule, head, body, 0, EMPTY_SUBST, None, None, next_delta)

    def _fire(self, rule: _Rule, positions, delta_keys, delta_by_pred,
              next_delta):
        """Semi-naive firing: require >= 1 delta fact among body matches.

        For each eligible body position (``positions``), join that
        position against the delta and the remaining positions against
        the full store; deduplicate via the canonical fact keys.
        """
        for delta_position in positions:
            if _indicator(rule.body[delta_position]) not in delta_by_pred:
                continue
            self.rule_firings += 1
            if self.governor is not None:
                self.governor.poll(rule.head)
            renamed = rename_apart(Struct("$rule", (rule.head, *rule.body)))
            head, body = renamed.args[0], list(renamed.args[1:])
            self._join(
                rule,
                head,
                body,
                0,
                EMPTY_SUBST,
                delta_position,
                delta_keys,
                next_delta,
            )

    def _join(
        self,
        rule: _Rule,
        head,
        body,
        position,
        subst: Subst,
        delta_position,
        delta_keys,
        next_delta,
    ):
        if position == len(body):
            fact = canonical(head, subst)
            self.derivations += 1
            if self._relation(rule.indicator).add(fact):
                next_delta.append(fact)
            return
        literal = body[position]
        lit_ind = _indicator(literal)
        if lit_ind in _NEG:
            # negation-as-failure against frozen lower-stratum relations:
            # succeeds iff the (renamed) inner goal has no solution, and
            # binds nothing either way
            self.neg_checks += 1
            if not self._neg_exists(
                flatten_conjunction(literal.args[0]), 0, subst, rule.line
            ):
                self._join(
                    rule,
                    head,
                    body,
                    position + 1,
                    subst,
                    delta_position,
                    delta_keys,
                    next_delta,
                )
            return
        if _is_builtin(lit_ind):
            for extended in _eval_builtin(literal, lit_ind, subst, rule.line):
                self._join(
                    rule,
                    head,
                    body,
                    position + 1,
                    extended,
                    delta_position,
                    delta_keys,
                    next_delta,
                )
            return
        relation = self.relations.get(lit_ind)
        if relation is None:
            return
        for fact in relation.facts:
            if position == delta_position and variant_key(fact) not in delta_keys:
                continue
            extended = unify(literal, rename_apart(fact), subst)
            if extended is not None:
                self._join(
                    rule,
                    head,
                    body,
                    position + 1,
                    extended,
                    delta_position,
                    delta_keys,
                    next_delta,
                )

    def _neg_exists(self, literals, position, subst: Subst, line: int) -> bool:
        """Does the negated conjunction have at least one solution?

        Solved against the already-complete relations of strictly lower
        strata (stratification guarantees every predicate reachable
        under a negation is frozen by the time the negating rule
        fires).  Supports conjunction, disjunction, builtins, and
        nested negation; stops at the first witness.
        """
        if position == len(literals):
            return True
        literal = literals[position]
        lit_ind = _indicator(literal)
        if lit_ind == (";", 2):
            rest = literals[position + 1 :]
            for branch in literal.args:
                if isinstance(branch, Struct) and branch.indicator == ("->", 2):
                    raise PrologError(
                        "if-then-else under \\+ is not supported in "
                        f"bottom-up evaluation (line {line})"
                    )
                if self._neg_exists(
                    flatten_conjunction(branch) + rest, 0, subst, line
                ):
                    return True
            return False
        if lit_ind == ("->", 2):
            raise PrologError(
                "if-then-else under \\+ is not supported in bottom-up "
                f"evaluation (line {line})"
            )
        if lit_ind in _NEG:
            if self._neg_exists(flatten_conjunction(literal.args[0]), 0, subst, line):
                return False
            return self._neg_exists(literals, position + 1, subst, line)
        if _is_builtin(lit_ind):
            for extended in _eval_builtin(literal, lit_ind, subst, line):
                if self._neg_exists(literals, position + 1, extended, line):
                    return True
            return False
        relation = self.relations.get(lit_ind)
        if relation is None:
            return False
        for fact in relation.facts:
            extended = unify(literal, rename_apart(fact), subst)
            if extended is not None and self._neg_exists(
                literals, position + 1, extended, line
            ):
                return True
        return False


def _indicator(term: Term) -> Indicator:
    if isinstance(term, Struct):
        return term.indicator
    if isinstance(term, str):
        return (term, 0)
    raise PrologError(f"not a literal: {term!r}")


def _is_builtin(indicator: Indicator) -> bool:
    return indicator in DET_BUILTINS or indicator in NONDET_BUILTINS


def _eval_builtin(literal: Term, indicator: Indicator, subst: Subst, line: int = 0):
    args = literal.args if isinstance(literal, Struct) else ()
    det = DET_BUILTINS.get(indicator)
    try:
        if det is not None:
            extended = det(args, subst)
            return [extended] if extended is not None else []
        return list(NONDET_BUILTINS[indicator](args, subst))
    except PrologError as exc:
        if line and getattr(exc, "line", None) is None:
            raise PrologError(str(exc), line=line) from exc
        raise
