"""Polymorphic predicate summaries: modular analysis + persistent store.

The whole-program analyses (:mod:`repro.core.groundness`,
:mod:`repro.core.depthk`) re-derive every predicate of every file from
scratch; a corpus of N files sharing a library does the library work N
times.  This module makes the analyses *modular* in the sense of
Lunjin Lu's polymorphic groundness analysis (PAPERS.md): each SCC
component of the dependency condensation is analysed once with **open
calls** — placeholder parameters standing in for call-site bindings —
against the *summaries* of its callees instead of their clauses, and
the open result is *instantiated* per call site
(:func:`instantiate`, :meth:`~repro.core.propdom.PropFunction.assume`).

Soundness of instantiation (the argument DESIGN.md §7 spells out): the
abstract success set of a predicate — the set of ground
(boolean-vector, for Prop; shape-vector, for depth-k) successes of its
abstract program — is a property of the *program*, independent of the
evaluation strategy and of the call patterns an evaluation happened to
record.  The open-call table materialises exactly that set; any
bound-call table materialises its restriction to the call's bound
arguments.  Conditioning the open set on a call pattern
(``assume``/abstract-unify) therefore reproduces what a direct
bound-call evaluation would have tabled, so summary-instantiated
claims coincide with whole-program claims wherever both are defined —
and a summary miss or any irregularity escalates to the whole-program
analysis (never to an unsound claim).

The :class:`SummaryStore` is content-addressed: a component's key is a
SHA-256 over the analysis domain and parameters, the component's own
clause fingerprints
(:func:`~repro.analysis.depgraph.component_clause_keys`, which the
serve cache keys by too), and the **digests of its callee components'
summaries**.  Digest-chaining makes invalidation condensation-aware
for free: editing a leaf component changes its digest, which changes
the key of every component that can reach it — exactly the
reverse-condensation closure :func:`repro.serve.cache.dirty_components`
computes explicitly — while untouched siblings keep their keys and
stay warm.  Entries live in a
bounded in-memory LRU backed by an on-disk directory (one JSON file
per key, written atomically), so worker processes of one
``map_corpus``/``--jobs N`` sweep share a store through the
filesystem.

Observability: ``summaries.hits`` / ``summaries.misses`` /
``summaries.stores`` / ``summaries.instantiations`` /
``summaries.invalidated`` counters on the ambient observer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from repro.analysis.depgraph import DependencyGraph, component_clause_keys
from repro.prolog.program import Indicator, Program
from repro.terms.term import Struct, Term, Var, fresh_var

#: bump when the serialized layout changes; part of every key
STORE_VERSION = 1


# ----------------------------------------------------------------------
# Canonical term serialization (JSON-able, variant-stable)


def term_to_data(term: Term, env: dict) -> object:
    """``term`` as nested JSON-able lists; variables numbered by first
    occurrence (the :func:`~repro.terms.variant.variant_key`
    discipline, so two variant answers serialize identically)."""
    if isinstance(term, Var):
        index = env.get(term.id)
        if index is None:
            index = env[term.id] = len(env)
        return ["v", index]
    if isinstance(term, Struct):
        return ["s", term.functor, [term_to_data(a, env) for a in term.args]]
    if isinstance(term, bool):  # bool before int: True is an int in Python
        raise ValueError(f"unexpected boolean in answer term: {term!r}")
    if isinstance(term, int):
        return ["i", term]
    if isinstance(term, float):
        return ["f", term]
    if isinstance(term, str):
        return ["a", term]
    raise ValueError(f"unserializable answer term: {term!r}")


def data_to_term(data: object, env: dict) -> Term:
    """Inverse of :func:`term_to_data`; ``env`` maps index -> fresh Var."""
    tag = data[0]
    if tag == "v":
        index = data[1]
        var = env.get(index)
        if var is None:
            var = env[index] = fresh_var()
        return var
    if tag == "s":
        return Struct(data[1], tuple(data_to_term(a, env) for a in data[2]))
    if tag in ("i", "f", "a"):
        return data[1]
    raise ValueError(f"corrupt serialized term: {data!r}")


# ----------------------------------------------------------------------
# Summaries


@dataclass
class PredicateSummary:
    """Open-call answers of one predicate in one analysis domain.

    ``answers`` are the abstract answer terms of the *open* (most
    general) call — for Prop, ``gp$p(...)`` instances over
    ``true``/``false``/variables; for depth-k, ``gpk$p(...)`` instances
    over shapes and ``$gamma``.  Variables are per-answer (answers do
    not share variables).
    """

    name: str
    arity: int
    answers: list = field(default_factory=list)

    @property
    def indicator(self) -> Indicator:
        return (self.name, self.arity)

    def answer_args(self, answer: Term) -> tuple:
        if self.arity == 0:
            return ()
        return answer.args

    def to_data(self) -> list:
        out = []
        for answer in self.answers:
            env: dict = {}
            out.append(
                [term_to_data(a, env) for a in self.answer_args(answer)]
            )
        return out

    @classmethod
    def from_data(cls, name: str, arity: int, data: list, head_name: str):
        answers = []
        for args_data in data:
            env: dict = {}
            args = tuple(data_to_term(a, env) for a in args_data)
            answers.append(Struct(head_name, args) if arity else head_name)
        return cls(name=name, arity=arity, answers=answers)


@dataclass
class ComponentSummary:
    """One SCC component's summaries under one (domain, params) setting."""

    domain: str  # "prop" | "depthk"
    params: dict
    component: list  # sorted indicators, as [name, arity] pairs
    predicates: dict  # Indicator -> PredicateSummary
    key: str = ""
    digest: str = ""

    def compute_digest(self) -> str:
        payload = {
            "version": STORE_VERSION,
            "domain": self.domain,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "predicates": {
                f"{name}/{arity}": self.predicates[(name, arity)].to_data()
                for name, arity in sorted(self.predicates)
            },
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        return {
            "version": STORE_VERSION,
            "domain": self.domain,
            "params": self.params,
            "component": [list(pair) for pair in self.component],
            "key": self.key,
            "digest": self.digest,
            "predicates": {
                f"{name}/{arity}": self.predicates[(name, arity)].to_data()
                for name, arity in sorted(self.predicates)
            },
        }

    @classmethod
    def from_json(cls, data: dict, head_prefix: str) -> "ComponentSummary":
        if data.get("version") != STORE_VERSION:
            raise ValueError("summary store version mismatch")
        predicates = {}
        for spec, answers_data in data["predicates"].items():
            name, _, arity_text = spec.rpartition("/")
            arity = int(arity_text)
            predicates[(name, arity)] = PredicateSummary.from_data(
                name, arity, answers_data, head_prefix + name
            )
        return cls(
            domain=data["domain"],
            params=data["params"],
            component=[tuple(pair) for pair in data["component"]],
            predicates=predicates,
            key=data["key"],
            digest=data["digest"],
        )


def component_key(
    domain: str, params: dict, clause_keys: tuple, callee_digests: list
) -> str:
    """Content address of one component's summary.

    ``clause_keys`` are the component's own clause fingerprints
    (:func:`~repro.analysis.depgraph.component_clause_keys`);
    ``callee_digests`` are ``(indicator, digest)`` pairs for every
    *defined* external callee.  Chaining callee digests into the key
    is what makes invalidation condensation-aware: a changed leaf
    re-keys everything condensation-upstream of it.
    """
    payload = repr((
        STORE_VERSION,
        domain,
        tuple(sorted(params.items())),
        clause_keys,
        tuple(sorted(callee_digests)),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The persistent store


class SummaryStore:
    """Content-addressed component-summary store (memory LRU + disk).

    ``path=None`` keeps the store purely in-memory.  With a directory,
    every entry is also written as ``<path>/<key>.json`` (atomic
    tempfile + rename, so concurrent worker processes of one corpus
    sweep race benignly — same key, same content), and misses fall
    back to disk before recomputing.  ``max_entries`` bounds memory,
    ``max_disk_entries`` bounds the directory (oldest files pruned).

    Because keys are content addresses there is no explicit
    invalidation protocol: a stale entry is simply never asked for
    again.  The store still *detects* staleness — storing a component
    (same predicate set, same domain) under a new key drops the old
    entry and counts ``summaries.invalidated`` — so edits show up in
    the metrics rather than as silent garbage growth.
    """

    def __init__(
        self,
        path: str | None = None,
        max_entries: int = 512,
        max_disk_entries: int = 4096,
    ):
        self.path = path
        self.max_entries = max_entries
        self.max_disk_entries = max_disk_entries
        self._entries: dict = {}        # key -> ComponentSummary (LRU order)
        self._by_component: dict = {}   # (domain, component-id) -> key
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0
        self._puts = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        from repro.obs.observer import get_observer

        obs = get_observer()
        if getattr(obs, "enabled", False):
            obs.registry.counter(f"summaries.{name}").inc(amount)

    def _disk_file(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.json")

    def get(self, key: str, head_prefix: str) -> ComponentSummary | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.pop(key)
            self._entries[key] = entry  # refresh recency
            self.hits += 1
            self._count("hits")
            return entry
        if self.path is not None:
            try:
                with open(self._disk_file(key), encoding="utf-8") as handle:
                    data = json.load(handle)
                entry = ComponentSummary.from_json(data, head_prefix)
            except (OSError, ValueError, KeyError, IndexError, TypeError):
                entry = None
            if entry is not None and entry.key == key:
                self._remember(entry)
                self.hits += 1
                self._count("hits")
                return entry
        self.misses += 1
        self._count("misses")
        return None

    def put(self, entry: ComponentSummary) -> None:
        self._remember(entry)
        self.stores += 1
        self._count("stores")
        if self.path is not None:
            self._write_disk(entry)

    def _remember(self, entry: ComponentSummary) -> None:
        stamp = (entry.domain, tuple(sorted(entry.component)))
        old_key = self._by_component.get(stamp)
        if old_key is not None and old_key != entry.key:
            # same component, new fingerprint: the old summary is stale
            if self._entries.pop(old_key, None) is not None:
                self.invalidated += 1
                self._count("invalidated")
        self._by_component[stamp] = entry.key
        self._entries.pop(entry.key, None)
        self._entries[entry.key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))

    def _write_disk(self, entry: ComponentSummary) -> None:
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.path, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry.to_json(), handle, sort_keys=True)
            os.replace(tmp, self._disk_file(entry.key))
        except OSError:
            return  # a read-only or vanished store dir degrades to memory-only
        self._puts += 1
        if self._puts % 64 == 0:
            self.prune_disk()

    def prune_disk(self) -> int:
        """Drop oldest on-disk entries beyond ``max_disk_entries``."""
        if self.path is None:
            return 0
        try:
            names = [
                n for n in os.listdir(self.path)
                if n.endswith(".json") and not n.startswith(".")
            ]
        except OSError:
            return 0
        excess = len(names) - self.max_disk_entries
        if excess <= 0:
            return 0
        def mtime(name: str) -> float:
            try:
                return os.path.getmtime(os.path.join(self.path, name))
            except OSError:
                return 0.0
        dropped = 0
        for name in sorted(names, key=mtime)[:excess]:
            try:
                os.remove(os.path.join(self.path, name))
                dropped += 1
            except OSError:
                pass
        return dropped


#: per-process store cache so one worker reuses warm memory across files
_STORES: dict = {}


def store_for(path: str | None) -> SummaryStore:
    """The per-process :class:`SummaryStore` for a directory (cached)."""
    if path is None:
        return SummaryStore()
    normalized = os.path.abspath(path)
    store = _STORES.get(normalized)
    if store is None:
        store = _STORES[normalized] = SummaryStore(normalized)
    return store


# ----------------------------------------------------------------------
# Instantiation


def instantiate(
    summary: PredicateSummary, call_pattern: tuple, prop_backend: str | None = None
):
    """Specialize an open Prop summary at one call pattern.

    ``call_pattern`` is argument-wise ``True`` (known ground at the
    call site) or anything else; the result is the per-argument
    definite-groundness tuple for calls matching that pattern — the
    same answer :meth:`PredicateGroundness.ground_on_success_for`
    computes from whole-program tables (see the module docstring for
    why).  Under the (default) BDD backend the summary's answer terms
    become one ROBDD directly — no 2^(free vars) row expansion.
    """
    _count_obs("instantiations")
    query = tuple(value is True for value in call_pattern)
    return _success_function(
        summary.arity, summary.answers, prop_backend
    ).assume(query).definitely_true()


def _success_function(arity: int, answers, prop_backend: str | None = None):
    """The Prop function of a summary's open answers, per backend.

    Serialization stays backend-independent: summaries store answer
    *terms* (``to_data``/``from_data`` above), and this is where terms
    become a Prop value — enum- and BDD-produced summaries are
    store-compatible by construction, with identical digests.
    """
    from repro.core.propdom import (
        MAX_IFF_NVARS,
        PropFunction,
        resolve_prop_backend,
    )

    if resolve_prop_backend(prop_backend) == "bdd" or arity > MAX_IFF_NVARS:
        from repro.bdd.propfn import BddPropFunction

        return BddPropFunction.from_answers(arity, answers)
    from repro.core.groundness import _expand

    rows: set = set()
    for answer in answers:
        rows.update(_expand(answer, arity))
    return PropFunction(arity, rows)


def _count_obs(name: str, amount: int = 1) -> None:
    from repro.obs.observer import get_observer

    obs = get_observer()
    if getattr(obs, "enabled", False):
        obs.registry.counter(f"summaries.{name}").inc(amount)


# ----------------------------------------------------------------------
# Modular groundness (Prop domain)


def _defined_components(program: Program):
    """Condensation pieces with clauses, callees before callers."""
    graph = DependencyGraph(program)
    out = []
    for component in graph.sccs():
        defined = sorted(
            ind for ind in component if program.clauses_for(ind)
        )
        if not defined:
            continue
        callees = set()
        for indicator in defined:
            callees.update(graph.successors(indicator))
        callees.difference_update(component)
        external = sorted(c for c in callees if program.clauses_for(c))
        out.append((defined, external))
    return out


def groundness_via_summaries(
    program: Program,
    store: SummaryStore | None = None,
    governor=None,
    optimize: bool = True,
    encoding: str = "compact",
    prop_backend: str | None = None,
):
    """Modular Prop groundness: per-component open-call summaries.

    Components are evaluated bottom-up in condensation order; each
    component's abstract clauses run against **stub facts** built from
    its callees' stored summaries (their open answers) instead of the
    callees' clauses.  Misses are computed and stored; hits skip the
    component's evaluation entirely.  The result is a
    :class:`~repro.core.groundness.GroundnessResult` whose per-
    predicate tables hold exactly the open (polymorphic) success set;
    per-call-site specialisation happens at query time via
    ``ground_on_success_for``'s instantiation step.

    Raises :class:`~repro.runtime.budget.ResourceExhausted` if the
    shared ``governor`` trips — the caller escalates to the
    whole-program analysis (the degradation ladder), never to a
    partial modular claim.

    ``prop_backend`` selects the Prop representation of the collected
    open success sets (``"bdd"`` by default); the *store* is backend-
    independent — answer terms, not truth rows, are what is keyed and
    persisted — so a store warmed under one backend hits under the
    other with unchanged digests.
    """
    from repro.core.groundness import (
        PredicateGroundness,
        abstract_program,
        gp_name,
    )
    from repro.obs.observer import get_observer

    obs = get_observer()
    t0 = time.perf_counter()
    abstract, info = abstract_program(program, optimize=optimize, encoding=encoding)
    support_clauses = []
    for indicator in abstract.predicates():
        if not indicator[0].startswith(gp_name("")):
            support_clauses.extend(abstract.clauses_for(indicator))
    components = _defined_components(program)
    params = {"optimize": optimize, "encoding": encoding}
    t1 = time.perf_counter()

    digests: dict = {}     # Indicator -> component digest
    summaries: dict = {}   # Indicator -> PredicateSummary
    table_space = 0
    stats: dict = {}
    with obs.maybe_span("analysis.summaries.groundness"):
        for defined, external in components:
            clause_keys = component_clause_keys(program, defined)
            callee_digests = [
                (f"{name}/{arity}", digests[(name, arity)])
                for name, arity in external
            ]
            key = component_key("prop", params, clause_keys, callee_digests)
            entry = None
            if store is not None:
                entry = store.get(key, gp_name(""))
            if entry is None:
                entry, space, engine_stats = _evaluate_prop_component(
                    abstract, support_clauses, defined, external,
                    summaries, governor,
                )
                entry.key = key
                entry.digest = entry.compute_digest()
                table_space += space
                for name, value in engine_stats.items():
                    if isinstance(value, (int, float)):
                        stats[name] = stats.get(name, 0) + value
                if store is not None:
                    store.put(entry)
            for indicator in defined:
                digests[indicator] = entry.digest
                summaries[indicator] = entry.predicates[indicator]
    t2 = time.perf_counter()

    predicates = {}
    table_completeness = {}
    for indicator in info.predicates:
        name, arity = indicator
        summary = summaries.get(indicator)
        answers = summary.answers if summary is not None else []
        success = _success_function(arity, answers, prop_backend)
        open_pattern = tuple(None for _ in range(arity))
        predicates[indicator] = PredicateGroundness(
            name=name,
            arity=arity,
            success=success,
            call_patterns=[open_pattern],
            answer_count=len(answers),
            tables=[(open_pattern, success)],
            claims=[open_pattern],
        )
        table_completeness[indicator] = True
    t3 = time.perf_counter()

    result = _summary_result_class()(
        predicates=predicates,
        times={
            "preprocess": t1 - t0,
            "analysis": t2 - t1,
            "collection": t3 - t2,
        },
        table_space=table_space,
        stats=stats,
        warnings=info.warnings,
        completeness="exact",
        table_completeness=table_completeness,
        backend="summaries",
    )
    if obs.enabled:
        obs.registry.counter("analysis.groundness.summary_runs").value += 1
    return result


def _summary_result_class():
    """``GroundnessResult`` subclass counting per-query instantiations."""
    from repro.core.groundness import GroundnessResult

    cls = getattr(_summary_result_class, "_cls", None)
    if cls is None:
        class SummaryBackedGroundness(GroundnessResult):
            def ground_on_success_for(self, indicator, pattern):
                if indicator in self.predicates:
                    _count_obs("instantiations")
                return super().ground_on_success_for(indicator, pattern)

        cls = _summary_result_class._cls = SummaryBackedGroundness
    return cls


def _never_clause(head_name: str, arity: int):
    """A never-succeeding clause for a callee with an empty summary.

    Keeps the predicate *defined* in the component module — calls to a
    provably-empty callee must fail, not raise ``undefined predicate``.
    """
    from repro.prolog.parser import Clause

    head: Term = (
        Struct(head_name, tuple(fresh_var() for _ in range(arity)))
        if arity
        else head_name
    )
    return Clause(head, "fail")


def _evaluate_prop_component(
    abstract: Program, support_clauses, defined, external, summaries, governor
):
    """Evaluate one component's abstract clauses against callee stubs."""
    from repro.core.groundness import gp_name
    from repro.engine.clausedb import ClauseDB
    from repro.engine.tabling import TabledEngine
    from repro.prolog.parser import Clause

    module = Program()
    for name, arity in defined:
        module.tabled.add((gp_name(name), arity))
        for clause in abstract.clauses_for((gp_name(name), arity)):
            module.add_clause(clause)
    for name, arity in external:
        module.tabled.add((gp_name(name), arity))
        callee = summaries[(name, arity)]
        if not callee.answers:
            module.add_clause(_never_clause(gp_name(name), arity))
            continue
        for answer in callee.answers:
            module.add_clause(Clause(answer, "true", {}, 0))
    for clause in support_clauses:
        module.add_clause(clause)

    engine = TabledEngine(ClauseDB(module), governor=governor)
    entry = ComponentSummary(
        domain="prop",
        params={},
        component=list(defined),
        predicates={},
    )
    for name, arity in defined:
        goal: Term = (
            Struct(gp_name(name), tuple(fresh_var() for _ in range(arity)))
            if arity
            else gp_name(name)
        )
        answers = engine.solve(goal)
        entry.predicates[(name, arity)] = PredicateSummary(
            name=name, arity=arity, answers=list(answers)
        )
    return entry, engine.table_space_bytes(), engine.stats.as_dict()


# ----------------------------------------------------------------------
# Modular depth-k (the failcheck backend, per-component budgets)


def depthk_via_summaries(
    program: Program,
    store: SummaryStore | None = None,
    depth: int = 2,
    component_tasks: int | None = None,
    budget=None,
    abstract_integers: bool = True,
):
    """Modular depth-k shapes with **per-component task budgets**.

    Each SCC component's abstract (``gpk$``) clauses are evaluated
    bottom-up with open calls against ``$aunify`` stub clauses built
    from callee summaries, under a *fresh* budget per component
    (``component_tasks`` tasks, or ``budget``'s limits re-armed per
    component).  A component that trips its budget — and everything
    condensation-upstream of it, which cannot be evaluated soundly
    without the tripped callee's answers — is marked incomplete and
    yields no claims; every other component keeps its exact result.
    This is what lets one expensive SCC stop forfeiting abstract
    claims for the whole file.

    Returns a :class:`~repro.core.depthk.DepthKResult`;
    ``completeness`` is ``"exact"`` or ``"partial(k/n components)"``
    and ``table_completeness`` carries the per-predicate claim
    eligibility.  Only fully evaluated components are stored.
    """
    from repro.core.depthk import (
        AUNIFY,
        DepthKResult,
        PredicateShapes,
        abstract_unify,
        depthk_program,
        gpk_name,
        truncate_goal,
    )
    from repro.engine.clausedb import ClauseDB
    from repro.engine.tabling import TabledEngine
    from repro.obs.observer import get_observer
    from repro.prolog.parser import Clause
    from repro.runtime.budget import (
        Budget,
        ResourceExhausted,
        governor_for,
    )

    obs = get_observer()
    t0 = time.perf_counter()
    abstract, warnings = depthk_program(program)
    components = _defined_components(program)
    params = {"depth": depth, "abstract_integers": abstract_integers}
    t1 = time.perf_counter()

    def component_governor():
        if budget is not None:
            return governor_for(budget, None, None)
        tasks = component_tasks
        if tasks is None:
            from repro.analysis.failcheck import DEFAULT_TASK_BUDGET

            tasks = DEFAULT_TASK_BUDGET
        return governor_for(Budget(tasks=tasks), None, None)

    digests: dict = {}
    summaries: dict = {}
    incomplete: set = set()
    trip_kinds: list = []
    table_space = 0
    stats: dict = {}
    total = len(components)
    done = 0
    with obs.maybe_span("analysis.summaries.depthk", depth=depth):
        for defined, external in components:
            if any(ind in incomplete for ind in external):
                incomplete.update(defined)
                continue
            clause_keys = component_clause_keys(program, defined)
            callee_digests = [
                (f"{name}/{arity}", digests[(name, arity)])
                for name, arity in external
            ]
            key = component_key("depthk", params, clause_keys, callee_digests)
            entry = None
            if store is not None:
                entry = store.get(key, gpk_name(""))
            if entry is None:
                module = Program()
                for name, arity in defined:
                    module.tabled.add((gpk_name(name), arity))
                    for clause in abstract.clauses_for((gpk_name(name), arity)):
                        module.add_clause(clause)
                for name, arity in external:
                    module.tabled.add((gpk_name(name), arity))
                    callee = summaries[(name, arity)]
                    if not callee.answers:
                        module.add_clause(
                            _never_clause(gpk_name(name), arity)
                        )
                        continue
                    for answer in callee.answers:
                        module.add_clause(_stub_clause(answer, gpk_name, AUNIFY))
                engine = TabledEngine(
                    ClauseDB(module),
                    governor=component_governor(),
                    call_abstraction=lambda goal: truncate_goal(
                        goal, depth, abstract_integers
                    ),
                    answer_abstraction=lambda answer: truncate_goal(
                        answer, depth, abstract_integers
                    ),
                    feed_unify=abstract_unify,
                    answer_subsumption=True,
                )
                entry = ComponentSummary(
                    domain="depthk",
                    params={},
                    component=list(defined),
                    predicates={},
                )
                try:
                    for name, arity in defined:
                        goal: Term = (
                            Struct(
                                gpk_name(name),
                                tuple(fresh_var() for _ in range(arity)),
                            )
                            if arity
                            else gpk_name(name)
                        )
                        answers = engine.solve(goal)
                        entry.predicates[(name, arity)] = PredicateSummary(
                            name=name, arity=arity, answers=list(answers)
                        )
                except ResourceExhausted as exc:
                    incomplete.update(defined)
                    trip_kinds.append(exc.kind)
                    continue
                entry.key = key
                entry.digest = entry.compute_digest()
                table_space += engine.table_space_bytes()
                for name, value in engine.stats.as_dict().items():
                    if isinstance(value, (int, float)):
                        stats[name] = stats.get(name, 0) + value
                if store is not None:
                    store.put(entry)
            done += 1
            for indicator in defined:
                digests[indicator] = entry.digest
                summaries[indicator] = entry.predicates[indicator]
    t2 = time.perf_counter()

    predicates = {}
    table_completeness = {}
    for indicator in program.predicates():
        name, arity = indicator
        summary = summaries.get(indicator)
        if summary is None:
            top: Term = (
                Struct(gpk_name(name), tuple(fresh_var() for _ in range(arity)))
                if arity
                else gpk_name(name)
            )
            predicates[indicator] = PredicateShapes(name, arity, [top], [])
            table_completeness[indicator] = False
            continue
        predicates[indicator] = PredicateShapes(
            name, arity, list(summary.answers), []
        )
        table_completeness[indicator] = True
    t3 = time.perf_counter()

    if done == total:
        completeness = "exact"
    else:
        completeness = f"partial({done}/{total} components)"
    if obs.enabled:
        obs.registry.counter("analysis.depthk.summary_runs").value += 1
        if done < total:
            obs.registry.counter(
                "analysis.depthk.incomplete_components"
            ).inc(total - done)
    result = DepthKResult(
        predicates=predicates,
        depth=depth,
        times={
            "preprocess": t1 - t0,
            "analysis": t2 - t1,
            "collection": t3 - t2,
        },
        table_space=table_space,
        stats=stats,
        warnings=warnings,
        completeness=completeness,
        effective_depth=depth,
        table_completeness=table_completeness,
    )
    result.trip_kinds = trip_kinds
    result.components_done = done
    result.components_total = total
    return result


def _stub_clause(answer: Term, gpk_name, aunify: str):
    """A callee stub in the depth-k idiom: flat head + ``$aunify`` body.

    Abstract heads must be flat (matching happens through the
    ``$aunify`` builtin, which knows the gamma rules) — a plain fact
    with ``$gamma`` in its head would be matched by *standard*
    unification and lose the gamma-matches-any-ground-term semantics.
    """
    from repro.prolog.parser import Clause

    if not isinstance(answer, Struct):
        return Clause(answer, "true", {}, 0)
    head_vars = tuple(fresh_var() for _ in answer.args)
    head = Struct(answer.functor, head_vars)
    literals = [
        Struct(aunify, (var, arg)) for var, arg in zip(head_vars, answer.args)
    ]
    body: Term = "true"
    if literals:
        body = literals[-1]
        for literal in reversed(literals[:-1]):
            body = Struct(",", (literal, body))
    return Clause(head, body, {}, 0)
