"""Warm result cache keyed by clause-set hashes, SCC-aware invalidation.

What makes the daemon worth keeping alive: a resubmitted file whose
clauses did not change is answered from memory.  Keys are *semantic*,
not textual — each component's clauses are fingerprinted by
:func:`~repro.analysis.depgraph.component_clause_keys` (the
:func:`~repro.terms.variant.variant_key` of every clause), so renaming
variables, reordering predicates, or editing comments does not miss
the cache (the same variant discipline XSB uses for its call tables).

Invalidation is condensation-aware.  A file's fingerprint is kept
per-SCC-component of its dependency graph; on resubmission the cache
computes the *dirty set* — components whose own clauses changed,
closed under the reverse condensation edges (every component that can
call into a dirty one is dirty too, because analysis results flow
callee-to-caller).  Today a non-empty dirty set still re-analyzes the
whole file (results are whole-file payloads), but the probe reports
exactly which components forced it — the invalidation half of the
ROADMAP's incremental re-evaluation item, ready for per-component
result reuse to plug into — and a *clean* resubmission (edits confined
to comments/formatting, or a textual change that is a variant) is a
full hit with zero analysis work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.depgraph import DependencyGraph, component_clause_keys
from repro.prolog.program import Program

#: component identity stable across edits: the set of its predicates
ComponentId = frozenset


@dataclass
class Fingerprint:
    """The cache key material of one parsed program."""

    #: component id -> hashable fingerprint of its predicates' clauses
    components: dict
    #: component id -> component ids it depends on (callee direction)
    depends_on: dict

    @property
    def whole(self) -> tuple:
        """One hashable key for the entire clause set."""
        return tuple(sorted(
            (sorted(comp), key) for comp, key in self.components.items()
        ))


def fingerprint_program(program: Program) -> Fingerprint:
    """Per-component clause fingerprints plus the condensation edges."""
    graph = DependencyGraph(program)
    sccs = graph.sccs()
    ids = [ComponentId(component) for component in sccs]
    components = {
        cid: component_clause_keys(program, component)
        for cid, component in zip(ids, sccs)
    }
    edges = graph.condensation_edges()
    depends_on = {
        ids[caller]: {ids[callee] for callee in callees}
        for caller, callees in edges.items()
    }
    return Fingerprint(components=components, depends_on=depends_on)


@dataclass
class CacheProbe:
    """Outcome of one cache lookup."""

    hit: bool
    payload: dict | None = None
    fingerprint: Fingerprint | None = None
    #: components whose own clauses changed (empty on a hit or cold miss)
    changed: list = field(default_factory=list)
    #: changed + everything condensation-upstream of it
    dirty: list = field(default_factory=list)

    @property
    def partial(self) -> bool:
        """A warm miss: some components were reusable in principle."""
        return (not self.hit and self.fingerprint is not None
                and bool(self.dirty)
                and len(self.dirty) < len(self.fingerprint.components))


class ResultCache:
    """Per-(task, path, options) result cache with LRU-ish eviction.

    One entry per request key (see
    :attr:`repro.serve.protocol.Request.key`); ``max_entries`` bounds
    memory, evicting the least recently used entry.  The caller parses
    the file and passes the :class:`Program` — parsing stays on the
    supervisor side, analysis stays in the workers.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: dict = {}  # key -> (Fingerprint, payload)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def probe(self, key, program: Program) -> CacheProbe:
        """Look ``key`` up against the current clause set of ``program``."""
        fingerprint = fingerprint_program(program)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return CacheProbe(hit=False, fingerprint=fingerprint)
        old, payload = entry
        if old.whole == fingerprint.whole:
            self.hits += 1
            # refresh recency
            self._entries.pop(key)
            self._entries[key] = (old, payload)
            return CacheProbe(hit=True, payload=payload, fingerprint=fingerprint)
        self.misses += 1
        changed = [
            cid for cid, comp_key in fingerprint.components.items()
            if old.components.get(cid) != comp_key
        ]
        return CacheProbe(
            hit=False,
            fingerprint=fingerprint,
            changed=sorted(changed, key=sorted),
            dirty=sorted(dirty_components(fingerprint, changed), key=sorted),
        )

    def store(self, key, probe: CacheProbe, payload: dict) -> None:
        """Remember ``payload`` for ``key`` under the probe's fingerprint."""
        if probe.fingerprint is None:
            return
        self._entries.pop(key, None)
        self._entries[key] = (probe.fingerprint, payload)
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))

    def invalidate(self, path: str) -> int:
        """Drop every entry for ``path`` (any task/options); returns count."""
        stale = [k for k in self._entries if k[1] == path]
        for k in stale:
            self._entries.pop(k)
        return len(stale)


def dirty_components(fingerprint: Fingerprint, changed) -> set:
    """``changed`` closed under reverse dependency (caller) edges.

    Analysis facts flow callee-to-caller, so a component is dirty when
    any component it (transitively) depends on changed — plus any
    component that is itself new or edited.
    """
    changed = set(changed)
    callers_of: dict = {}
    for caller, callees in fingerprint.depends_on.items():
        for callee in callees:
            callers_of.setdefault(callee, set()).add(caller)
    dirty = set(changed)
    stack = list(changed)
    while stack:
        component = stack.pop()
        for caller in callers_of.get(component, ()):
            if caller not in dirty:
                dirty.add(caller)
                stack.append(caller)
    return dirty
