"""Tabled (OLDT/SLG-style) evaluation — the XSB stand-in.

At a high level (paper section 2): subgoals of *tabled* predicates and
their provable instances are recorded in a table.  A tabled subgoal
already present (up to variance) is resolved against the recorded
answers; a new subgoal is entered into the table and its answers,
produced by program-clause resolution, are entered as they are derived.
Nontabled predicates use ordinary clause resolution.

The machine here is task-based: every node of the OLDT forest is an
explicit task ``(goals, subst, context)``.  Encountering a tabled call
registers a *consumer* continuation on the call's table; new answers
wake consumers.  For definite programs over finite domains the task
pool drains and evaluation is complete — exactly the fixed-point
guarantee the paper relies on.

Engine options reproduce the paper's discussion points:

* ``scheduling`` — ``"lifo"`` (depth-biased, local-style) or ``"fifo"``
  (breadth-first, section 6.2's aggregation-friendly strategy);
* ``call_abstraction`` / ``answer_abstraction`` — hooks used by the
  depth-k analysis (section 5) and by widening (section 6.1);
* ``answer_join`` — in-table widening: may replace the recorded answer
  set when a new answer arrives (section 6.1);
* ``subsumption`` / ``open_calls`` — forward subsumption and the
  open-call strategy for bottom-up-style analyses (section 6.2);
* ``cut`` — ``"ignore"`` treats ``!`` as ``true`` (sound for the
  over-approximating analyses here), ``"error"`` rejects it.
"""

from __future__ import annotations

from collections import deque

from repro.engine.builtins import (
    DET_BUILTINS,
    NONDET_BUILTINS,
    PrologError,
)
from repro.engine.clausedb import ClauseDB
from repro.obs.observer import resolve_observer
from repro.obs.registry import MetricsRegistry
from repro.prolog.program import Program
from repro.terms.subst import EMPTY_SUBST, Subst
from repro.terms.term import Struct, Term, Var, printed_size, term_to_str
from repro.terms.unify import subsumes, unify
from repro.terms.variant import canonical, rename_apart, variant_key


class TableStats:
    """Per-run evaluation counters, as a view over a metrics registry.

    Historically a bag of plain int fields; the fields survive as
    properties backed by named ``engine.tabled.*`` counters in a
    :class:`~repro.obs.registry.MetricsRegistry`, so the same numbers
    appear in metric snapshots and bench JSON.  ``TableStats()`` with
    no registry is self-contained (private registry), preserving the
    original constructor's behaviour.
    """

    #: field name -> metric key suffix under ``engine.tabled.``
    FIELDS = {
        "tasks": "tasks",
        "calls": "calls",
        "answers": "answers",
        "duplicate_answers": "answer_dedup_hits",
        "resumptions": "resumptions",
    }
    PREFIX = "engine.tabled."

    __slots__ = ("_counters",)

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        self._counters = {
            field: registry.counter(self.PREFIX + suffix)
            for field, suffix in self.FIELDS.items()
        }

    def counter(self, field: str):
        """The bound :class:`~repro.obs.registry.Counter` for a field."""
        return self._counters[field]

    def as_dict(self) -> dict:
        return {field: c.value for field, c in self._counters.items()}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"TableStats({parts})"


def _stats_field(field: str) -> property:
    def _get(self):
        return self._counters[field].value

    def _set(self, value):
        self._counters[field].value = value

    return property(_get, _set)


for _field in TableStats.FIELDS:
    setattr(TableStats, _field, _stats_field(_field))
del _field


class Table:
    """One call-table entry: the canonical call, its answers, consumers.

    ``answer_keys`` (the variant keys of the answers) and
    ``answer_index`` (under answer subsumption, the non-ground answers
    filed by shape; see :func:`_covered`) exist only to reject new
    answers, so both are dropped, as ``None``, once the table is
    complete: a complete table gets no new answer.
    """

    __slots__ = (
        "call",
        "key",
        "answers",
        "answer_keys",
        "answer_index",
        "consumers",
        "complete",
        "ground_call",
        "satisfied",
    )

    def __init__(self, call: Term, key):
        self.call = call
        self.key = key
        self.answers: list[Term] = []
        self.answer_keys: set | None = set()
        self.answer_index: dict | None = {}
        self.consumers: list[_Consumer] = []
        self.complete = False
        self.ground_call = False
        self.satisfied = False

    def indicator(self):
        if isinstance(self.call, Struct):
            return self.call.indicator
        return (self.call, 0)


class _Consumer:
    """A derivation suspended on a table, waiting for (more) answers."""

    __slots__ = ("call_instance", "goals", "subst", "context", "next_answer",
                 "prov")

    def __init__(self, call_instance, goals, subst, context, prov=None):
        self.call_instance = call_instance
        self.goals = goals
        self.subst = subst
        self.context = context
        self.next_answer = 0
        #: provenance state of the suspended derivation: a
        #: ``(clause_info, premises)`` pair, or None when not recording
        self.prov = prov


class _Context:
    """Where a finished derivation delivers its answer."""

    __slots__ = ("table", "template", "sink")

    def __init__(self, table: Table | None, template: Term, sink=None):
        self.table = table
        self.template = template
        self.sink = sink  # top-level query collector


class TabledEngine:
    """Complete tabled evaluation over a :class:`ClauseDB`.

    Tables persist across :meth:`solve` calls (an XSB session style);
    use a fresh engine for independent runs.
    """

    def __init__(
        self,
        program: Program | ClauseDB,
        compiled: bool = False,
        scheduling: str = "lifo",
        call_abstraction=None,
        answer_abstraction=None,
        answer_join=None,
        subsumption: bool = False,
        open_calls: bool = False,
        cut: str = "ignore",
        table_all: bool = False,
        feed_unify=None,
        answer_subsumption: bool = False,
        early_completion: bool = False,
        governor=None,
        obs=None,
    ):
        if isinstance(program, ClauseDB):
            self.db = program
        else:
            prepared = getattr(program, "prepared_db", None)
            self.db = prepared if prepared is not None else ClauseDB(program, compiled)
        if scheduling not in ("lifo", "fifo"):
            raise ValueError(f"unknown scheduling strategy {scheduling!r}")
        self.scheduling = scheduling
        self.call_abstraction = call_abstraction
        self.answer_abstraction = answer_abstraction
        self.answer_join = answer_join
        self.subsumption = subsumption or open_calls
        self.open_calls = open_calls
        self.cut = cut
        self.table_all = table_all
        self.feed_unify = feed_unify if feed_unify is not None else unify
        self.answer_subsumption = answer_subsumption
        self.early_completion = early_completion
        self.governor = governor
        # Observability: the engine always owns a private metrics
        # registry (the stats view below is backed by it); spans and
        # provenance happen only under an enabled observer, guarded by
        # one ``obs.enabled`` attribute check on the cold edges.
        self.obs = resolve_observer(obs)
        self._registry = MetricsRegistry()
        self._merge_state: dict = {}
        self.stats = TableStats(self._registry)
        self._n_tasks = self.stats.counter("tasks")
        self._n_calls = self.stats.counter("calls")
        self._n_answers = self.stats.counter("answers")
        self._n_dup = self.stats.counter("duplicate_answers")
        self._n_resumptions = self.stats.counter("resumptions")
        self._record_provenance = bool(self.obs.enabled and self.obs.provenance)
        #: (table_key, answer_key) -> (clause_info, premises); see
        #: :mod:`repro.obs.provenance`
        self.provenance: dict = {}
        self.tables: dict = {}
        self.tables_by_pred: dict = {}
        self._table_bytes = 0
        self._worklist: deque = deque()

    # ------------------------------------------------------------------
    # Public interface

    def solve(self, goal: Term) -> list[Term]:
        """Evaluate ``goal`` to completion; return its answer instances.

        ``goal`` may be any body goal (conjunctions and disjunctions
        included).  All tables touched by the evaluation are complete
        when this returns.
        """
        obs = self.obs
        if not obs.enabled:
            return self._solve(goal)
        with obs.span("engine.tabled.solve", goal=term_to_str(goal)) as span:
            try:
                return self._solve(goal)
            finally:
                # flush even when a budget trip unwinds through here, so
                # partial runs still report what they consumed
                span.attrs["tables"] = len(self.tables)
                span.attrs["table_space_bytes"] = self._table_bytes
                self._registry.gauge("engine.tabled.table_space_bytes").set(
                    self._table_bytes
                )
                self._registry.merge_deltas_into(obs.registry, self._merge_state)

    def _solve(self, goal: Term) -> list[Term]:
        results: list[Term] = []
        seen: set = set()

        def sink(term: Term):
            key = variant_key(term)
            if key not in seen:
                seen.add(key)
                results.append(term)

        context = _Context(None, goal, sink)
        self._push_task((goal, None), EMPTY_SUBST, context)
        self._run()
        return results

    def table_for(self, goal: Term) -> Table | None:
        """The table entry whose call is a variant of ``goal``, if any."""
        return self.tables.get(variant_key(goal))

    def all_tables(self) -> list[Table]:
        return list(self.tables.values())

    def table_space_bytes(self) -> int:
        """Printed-size proxy for XSB's table space metric, in O(1).

        Bytes of the canonically printed calls and answers across all
        tables (documented substitute for XSB's internal byte counts),
        with variables numbered within each term
        (:func:`~repro.terms.term.printed_size`), so the figure depends
        only on the tables, not on what the process ran before.
        The counter is maintained incrementally as tables and answers
        are created; :meth:`recompute_table_space_bytes` re-derives it
        from the tables for verification.
        """
        return self._table_bytes

    def recompute_table_space_bytes(self) -> int:
        """Re-derive the table-space counter by full traversal (O(n))."""
        total = 0
        for table in self.tables.values():
            total += printed_size(table.call) + 16
            for answer in table.answers:
                total += printed_size(answer) + 8
        return total

    # ------------------------------------------------------------------
    # Scheduler

    def _push_task(self, goals, subst: Subst, context: _Context, prov=None):
        self._worklist.append(("task", goals, subst, context, prov))

    def _push_consume(self, consumer: _Consumer, table: Table):
        self._worklist.append(("consume", consumer, table))

    def _run(self):
        pop = self._worklist.pop if self.scheduling == "lifo" else self._worklist.popleft
        governor = self.governor
        n_tasks = self._n_tasks
        while self._worklist:
            item = pop()
            if item[0] == "task":
                _, goals, subst, context, prov = item
                if (
                    context.table is not None
                    and context.table.satisfied
                ):
                    continue  # early completion: ground call already answered
                n_tasks.value += 1
                if governor is not None:
                    governor.charge(
                        "tasks", goals[0] if goals is not None else context.template
                    )
                self._step(goals, subst, context, prov)
            else:
                _, consumer, table = item
                if governor is not None:
                    governor.poll(table.call)
                self._feed_consumer(consumer, table)
        for table in self.tables.values():
            table.complete = True
            # no new answer reaches a complete table, so its consumers
            # are done; dropping them breaks the table -> consumer ->
            # context -> table cycle, so a dropped engine is freed at
            # once rather than by the cyclic garbage collector.  Its
            # dedup state is dead for the same reason.
            table.consumers.clear()
            table.answer_keys = None
            table.answer_index = None

    # ------------------------------------------------------------------
    # One resolution step of a task

    def _step(self, goals, subst: Subst, context: _Context, prov=None):
        while True:
            if goals is None:
                self._deliver_answer(subst, context, prov)
                return
            goal, rest = goals
            goal = subst.walk(goal)

            if isinstance(goal, Var):
                raise PrologError("call: unbound goal")
            indicator = goal.indicator if isinstance(goal, Struct) else (goal, 0)
            name, arity = indicator

            # -- control ---------------------------------------------------
            if arity == 0:
                if name == "true" or name == "otherwise":
                    goals = rest
                    continue
                if name == "fail" or name == "false":
                    return
                if name == "!":
                    if self.cut == "error":
                        raise PrologError("cut is not supported under tabling")
                    goals = rest  # sound: ignoring cut over-approximates
                    continue
            if name == "," and arity == 2:
                goals = (goal.args[0], (goal.args[1], rest))
                continue
            if name == ";" and arity == 2:
                left, right = goal.args
                walked = subst.walk(left)
                if isinstance(walked, Struct) and walked.indicator == ("->", 2):
                    # Logical (complete) reading: (C,T) ; (\+C, E).
                    cond, then = walked.args
                    self._push_task((cond, (then, rest)), subst, context, prov)
                    neg = Struct("\\+", (cond,))
                    self._push_task((neg, (right, rest)), subst, context, prov)
                    return
                self._push_task((left, rest), subst, context, prov)
                goals = (right, rest)
                continue
            if name == "->" and arity == 2:
                goals = (goal.args[0], (goal.args[1], rest))
                continue
            if (name == "\\+" or name == "not") and arity == 1:
                if self._nested_holds(goal.args[0], subst):
                    return
                goals = rest
                continue
            if name == "call" and arity >= 1:
                target = subst.walk(goal.args[0])
                if arity > 1:
                    target = _add_args(target, goal.args[1:])
                goals = (target, rest)
                continue

            # -- user predicates (tabled or not) ----------------------------
            if self.db.defines(indicator):
                if self.table_all or self.db.is_tabled(indicator):
                    self._tabled_call(goal, rest, subst, context, prov)
                    return
                first = True
                for body, extended in self.db.resolve(indicator, goal, subst):
                    if first:
                        # continue this task in-place for the first clause
                        first_state = (body, extended)
                        first = False
                    else:
                        self._push_task((body, rest), extended, context, prov)
                if first:
                    return
                body, extended = first_state
                goals, subst = (body, rest), extended
                continue

            # -- builtins ---------------------------------------------------
            det = DET_BUILTINS.get(indicator)
            if det is not None:
                args = goal.args if isinstance(goal, Struct) else ()
                extended = det(args, subst)
                if extended is None:
                    return
                goals, subst = rest, extended
                continue
            nondet = NONDET_BUILTINS.get(indicator)
            if nondet is not None:
                args = goal.args if isinstance(goal, Struct) else ()
                for extended in nondet(args, subst):
                    self._push_task(rest, extended, context, prov)
                return

            raise PrologError(f"undefined predicate {name}/{arity}")

    # ------------------------------------------------------------------
    # Tabled call machinery

    def _tabled_call(
        self, goal: Term, rest, subst: Subst, context: _Context, prov=None
    ):
        instance = subst.resolve(goal)
        lookup = instance
        if self.call_abstraction is not None:
            lookup = self.call_abstraction(instance)
        key = variant_key(lookup)
        table = self.tables.get(key)
        if table is None and self.subsumption:
            table = self._find_subsuming(lookup)
        if table is None and self.open_calls:
            table = self._get_or_create_open(lookup)
        if table is None:
            table = self._create_table(lookup, key)
        consumer = _Consumer(instance, rest, subst, context, prov)
        table.consumers.append(consumer)
        self._push_consume(consumer, table)

    def _create_table(self, call: Term, key) -> Table:
        from repro.terms.term import term_variables

        call = canonical(call)
        table = Table(call, key)
        table.ground_call = not term_variables(call)
        self.tables[key] = table
        self.tables_by_pred.setdefault(table.indicator(), []).append(table)
        self._n_calls.value += 1
        delta = printed_size(call) + 16
        self._table_bytes += delta
        if self.governor is not None:
            self.governor.tick_table_bytes(delta, call)
        # schedule generators: clause resolution for the tabled call
        context = _Context(table, call)
        indicator = table.indicator()
        if self._record_provenance:
            # open-coded resolve: the derivation must remember *which*
            # clause it started from, which resolve() does not expose
            for record in self.db.candidates(indicator, call, EMPTY_SUBST):
                head, body = self.db.rename(record)
                extended = unify(call, head, EMPTY_SUBST)
                if extended is None:
                    continue
                source = getattr(record, "source", record)
                clause_info = (
                    f"{indicator[0]}/{indicator[1]}",
                    getattr(source, "line", 0),
                )
                self._push_task((body, None), extended, context,
                                (clause_info, ()))
        else:
            for body, extended in self.db.resolve(indicator, call, EMPTY_SUBST):
                self._push_task((body, None), extended, context)
        return table

    def _find_subsuming(self, call: Term) -> Table | None:
        indicator = call.indicator if isinstance(call, Struct) else (call, 0)
        for table in self.tables_by_pred.get(indicator, ()):
            if subsumes(table.call, call):
                return table
        return None

    def _get_or_create_open(self, call: Term) -> Table:
        from repro.terms.term import fresh_var

        if isinstance(call, Struct):
            open_call = Struct(call.functor, tuple(fresh_var() for _ in call.args))
        else:
            open_call = call
        key = variant_key(open_call)
        table = self.tables.get(key)
        if table is None:
            table = self._create_table(open_call, key)
        return table

    def _deliver_answer(self, subst: Subst, context: _Context, prov=None):
        answer = canonical(context.template, subst)
        if context.sink is not None:
            context.sink(answer)
            return
        table = context.table
        if self.answer_abstraction is not None:
            answer = canonical(self.answer_abstraction(answer))
        if self.answer_join is not None:
            self._join_answer(table, answer, prov)
            return
        self._add_answer(table, answer, prov)

    def _add_answer(self, table: Table, answer: Term, prov=None) -> bool:
        key = variant_key(answer)
        if key in table.answer_keys:
            self._n_dup.value += 1
            return False
        if (
            self.answer_subsumption
            and isinstance(answer, Struct)
            and _covered(table.answer_index, answer)
        ):
            self._n_dup.value += 1
            return False
        table.answer_keys.add(key)
        table.answers.append(answer)
        self._n_answers.value += 1
        if self._record_provenance and prov is not None:
            # first derivation wins; answers are append-only so the
            # (table key, index) premise references stay stable
            self.provenance[(table.key, key)] = prov
        delta = printed_size(answer) + 8
        self._table_bytes += delta
        if self.governor is not None:
            self.governor.charge("answers", answer)
            self.governor.tick_table_bytes(delta, answer)
        if self.early_completion and table.ground_call:
            table.satisfied = True
        for consumer in table.consumers:
            self._push_consume(consumer, table)
        return True

    def _join_answer(self, table: Table, answer: Term, prov=None):
        """Widening path: let the join hook replace the answer set."""
        replacement = self.answer_join(list(table.answers), answer)
        if replacement is None:
            self._add_answer(table, answer, prov)
            return
        for new_answer in replacement:
            self._add_answer(table, canonical(new_answer), prov)

    def _feed_consumer(self, consumer: _Consumer, table: Table):
        answers = table.answers
        while consumer.next_answer < len(answers):
            index = consumer.next_answer
            answer = answers[index]
            consumer.next_answer = index + 1
            extended = self.feed_unify(
                consumer.call_instance, rename_apart(answer), consumer.subst
            )
            if extended is not None:
                self._n_resumptions.value += 1
                prov = consumer.prov
                if self._record_provenance and prov is not None:
                    clause_info, premises = prov
                    prov = (clause_info, premises + ((table.key, index),))
                self._push_task(
                    consumer.goals, extended, consumer.context, prov
                )

    def _nested_holds(self, goal: Term, subst: Subst) -> bool:
        """Negation as failure via a nested, independent evaluation.

        Sound for stratified uses: the negated subgoal must not depend
        on tables currently under computation.  Fact-defined and
        builtin subgoals take a direct fast path (no nested engine).
        Every check — fast path or nested engine — counts one
        ``engine.negation.calls`` in the active observer, so negation
        cost is visible in traces and reports.
        """
        if self.obs.enabled:
            self.obs.registry.counter("engine.negation.calls").inc()
        walked = subst.walk(goal)
        indicator = (
            walked.indicator if isinstance(walked, Struct) else (walked, 0)
        )
        if isinstance(walked, (Struct, str)):
            records = self.db.clauses.get(indicator)
            if records is not None and all(
                getattr(r, "source", r).is_fact() for r in records
            ):
                for _body, _s in self.db.resolve(indicator, walked, subst):
                    return True
                return False
            det = DET_BUILTINS.get(indicator)
            if det is not None and records is None:
                args = walked.args if isinstance(walked, Struct) else ()
                return det(args, subst) is not None
        nested = TabledEngine(
            self.db,
            scheduling=self.scheduling,
            cut=self.cut,
            table_all=self.table_all,
            # share the governor: nested work charges the parent budget
            # directly instead of being re-granted a fresh allowance
            governor=self.governor,
            obs=self.obs,
        )
        return bool(nested.solve(subst.resolve(goal)))


def _covered(index: dict, answer: Struct) -> bool:
    """Whether a non-ground answer filed in ``index`` subsumes ``answer``.

    The index files each stored non-ground answer under its *shape*,
    one kind per argument: a variable is a wildcard and no part of the
    key; a constant is keyed by itself and a ground structure by its
    (cached) variant key; a non-ground structure by its functor and
    arity.  It maps the shape, as a bit mask over ``2 * arity`` token
    slots, to ``(positions, {tokens at those positions: [answers]})``.
    A stored answer that subsumes ``answer`` equals it wherever it is
    ground and shares its functor and arity wherever it holds a
    non-ground structure, so it sits in the one bucket of its shape
    that ``answer``'s own tokens select; ``subsumes`` runs only there.
    Ground answers are never filed: one covers only its variants, which
    the table's variant-key set rejects first.

    An uncovered non-ground ``answer`` is filed before this returns
    False: the caller keeps every answer that no stored answer covers.
    """
    ground = answer._vkey is not None
    if ground and not index:
        return False
    args = answer.args
    n = len(args)
    # slot i: argument i's key as a ground term; slot n + i: its
    # functor and arity as a structure; None where it has no such key
    tokens = [None] * (2 * n)
    present = 0
    own = 0  # answer's own shape: each argument's most specific slot
    for i, arg in enumerate(args):
        if isinstance(arg, Struct):
            tokens[n + i] = (arg.functor, len(arg.args))
            present |= 1 << (n + i)
            if arg._vkey is None:
                own |= 1 << (n + i)
                continue
            tokens[i] = arg._vkey
        elif isinstance(arg, Var):
            continue
        else:
            tokens[i] = arg
        present |= 1 << i
        own |= 1 << i
    for mask, (positions, buckets) in index.items():
        if mask & ~present:
            continue  # the shape wants a key that answer lacks
        for existing in buckets.get(tuple([tokens[j] for j in positions]), ()):
            if subsumes(existing, answer):
                return True
    if not ground:
        entry = index.get(own)
        if entry is None:
            positions = [j for j in range(2 * n) if own >> j & 1]
            entry = index[own] = (positions, {})
        key = tuple([tokens[j] for j in entry[0]])
        entry[1].setdefault(key, []).append(answer)
    return False


def _add_args(target: Term, extra: tuple) -> Term:
    if isinstance(target, str):
        return Struct(target, tuple(extra))
    if isinstance(target, Struct):
        return Struct(target.functor, target.args + tuple(extra))
    raise PrologError("call/N: not callable")
