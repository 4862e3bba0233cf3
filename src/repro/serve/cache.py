"""Warm result cache keyed by the parsed file up to variable renaming.

What makes the daemon worth keeping alive: a resubmitted file whose
parse did not change is answered from memory.  The key is the parsed
file, not its text: each clause's source line and
:func:`~repro.terms.variant.clause_key`, and each directive's
:func:`~repro.terms.variant.variant_key` (the same variant discipline
XSB uses for its call tables).  Renaming variables is a hit, and so
are whitespace and comment edits that move no clause to another line.
Any other edit is a miss, because every reply may depend on it: a
directive changes entry points, tabling and declared-dynamic
predicates, and a moved clause changes the line numbers lint reports.
One caveat remains: a cached lint message names variables as they were
spelled when the file was first analysed.

A miss re-analyses the whole file in a worker.  What a worker can reuse
across edits — per-SCC component fixpoints, with early cutoff — is the
summary store's business (:mod:`repro.analysis.summaries`), which
keys components by their clauses and their callees' summary digests.
Those digests hash a component's *answers*, so they exist only after
a worker has run the analysis; the supervisor cannot key by them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.prolog.program import Program
from repro.terms.variant import clause_key, variant_key


@dataclass(frozen=True)
class Fingerprint:
    """The cache key material of one parsed program."""

    #: ``((line, clause key) per clause, directive keys)``: one
    #: hashable key for the whole file
    whole: tuple


def fingerprint_program(program: Program) -> Fingerprint:
    """The parsed ``program`` up to variable renaming, clause lines kept."""
    clauses = tuple(
        (clause.line, clause_key(clause))
        for indicator in program.predicates()
        for clause in program.clauses_for(indicator)
    )
    directives = tuple(variant_key(directive) for directive in program.directives)
    return Fingerprint(whole=(clauses, directives))


@dataclass
class CacheProbe:
    """Outcome of one cache lookup."""

    hit: bool
    payload: dict | None = None
    fingerprint: Fingerprint | None = None


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
        """Look ``key`` up against the current parse of ``program``."""
        fingerprint = fingerprint_program(program)
        entry = self._entries.get(key)
        if entry is None or entry[0] != fingerprint:
            self.misses += 1
            return CacheProbe(hit=False, fingerprint=fingerprint)
        self.hits += 1
        # refresh recency
        self._entries.pop(key)
        self._entries[key] = entry
        return CacheProbe(hit=True, payload=entry[1], fingerprint=fingerprint)

    def store(self, key, probe: CacheProbe, payload: dict) -> None:
        """Remember ``payload`` for ``key`` under the probe's fingerprint."""
        if probe.fingerprint is None:
            return
        self._entries.pop(key, None)
        self._entries[key] = (probe.fingerprint, payload)
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))
