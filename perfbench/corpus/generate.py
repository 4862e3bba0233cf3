"""Seeded corpus and request stream for the ``serve-edits`` workload.

The corpus models a project whose files all embed one shared list/tree
library (``library.pl``, kept beside this file) and add a few driver
predicates of their own.  The stream stands in for lint-on-save traffic
against those files, as whole *rounds*: every round holds the same
number of requests of each kind, in a seeded order against seeded
files, so every seed gives the same mix.  The mix itself (a fifth each
of resubmits, renames, driver edits, cutoff and changing library edits),
the driver bodies and the library are assumptions: the repository holds
no recorded traffic to take them from.  The benchmark therefore reports
each kind's rate, and aggregates them with equal weight per kind.

Request kinds (per round):

* ``resubmit`` — the file as last sent: a cache hit;
* ``rename`` — the same clauses with every variable renamed: a cache
  hit, since the cache keys clauses up to variable renaming;
* ``driver`` — the file's own predicate switched to its next body, with
  a fresh revision tag, so the edited component is always new while
  the library components still hit the summary store;
* ``lib-cutoff-<depth>`` — a library predicate edited without changing
  its abstract summary (a redundant ``true`` in its recursive clause):
  its component is re-derived, its callers hit the store (early cutoff);
* ``lib-change-<depth>`` — a library predicate given one more clause,
  which changes its summary: its callers are re-keyed and re-derived.

``<depth>`` is the edited predicate's place in the library's
condensation: ``leaf`` (``app``, called by most components), ``mid``
(``part``, called by ``qs``) or ``top`` (``isort``, called by drivers
only).  A second edit of the same kind on a file reverts the first, so
the library moves among seven known texts: after one warm-up round
every library component is in the store, and the cost of a round does
not drift as the run goes on.

The seed picks file names, the order of each round and the target
files, but not the mix: every corpus holds each driver body equally
often, and each kind walks its own seeded permutation of the files, so
that within a *block* of :data:`BLOCK` rounds every file receives every
kind equally often.  Runs measure whole blocks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

LIBRARY = (Path(__file__).parent / "library.pl").read_text()

#: files in the corpus
FILES = 12
#: requests of each kind in one round of the stream
ROUND = {
    "resubmit": 6,
    "rename": 6,
    "driver": 6,
    "lib-cutoff-leaf": 2,
    "lib-cutoff-mid": 2,
    "lib-cutoff-top": 2,
    "lib-change-leaf": 2,
    "lib-change-mid": 2,
    "lib-change-top": 2,
}
#: rounds in which every kind reaches every file equally often
BLOCK = FILES // min(ROUND.values())
#: request kinds whose file is unchanged up to variable renaming
HIT_KINDS = ("resubmit", "rename")

#: library edits: (predicate, clause to find, replacement) per kind
LIBRARY_EDITS = {
    "lib-cutoff-leaf": (
        "app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).",
        "app([X|Xs], Ys, [X|Zs]) :- true, app(Xs, Ys, Zs).",
    ),
    "lib-cutoff-mid": (
        "part([X|Xs], P, [X|L], H) :- le(X, P), part(Xs, P, L, H).",
        "part([X|Xs], P, [X|L], H) :- true, le(X, P), part(Xs, P, L, H).",
    ),
    "lib-cutoff-top": (
        "isort([X|Xs], S) :- isort(Xs, T), ins(X, T, S).",
        "isort([X|Xs], S) :- true, isort(Xs, T), ins(X, T, S).",
    ),
    "lib-change-leaf": (
        "app([], Ys, Ys).",
        "app([], Ys, Ys).\napp(nil, Ys, Ys).",
    ),
    "lib-change-mid": (
        "part([], _, [], []).",
        "part([], _, [], []).\npart(nil, _, nil, nil).",
    ),
    "lib-change-top": (
        "isort([], []).",
        "isort([], []).\nisort(nil, nil).",
    ),
}

#: driver bodies: (library calls, the dead helper's impossible call)
DRIVER_BODIES = [
    "qs(Xs, S), nrev(S, Ys)",
    "isort(Xs, S), app(S, [], Ys)",
    "tsort(Xs, S), nrev(S, Ys)",
    "qs(Xs, S), isort(S, Ys)",
    "nrev(Xs, S), tsort(S, Ys)",
    "isort(Xs, S), len(S, N), tsize(T, N), tlist(T, Ys)",
]

_VARIABLE = re.compile(r"\b([A-Z][A-Za-z0-9_]*)")


@dataclass
class FileState:
    """What a file holds now: its driver body and its library edit."""

    driver: int
    library_edit: str | None = None
    #: bumped by every ``rename`` request: the variable-name suffix
    naming: int = 0
    #: bumped by every ``driver`` request: the driver's revision tag
    revision: int = 0


@dataclass
class Corpus:
    """The generated files and their current states."""

    seed: int
    names: list = field(default_factory=list)
    bodies: list = field(default_factory=list)   # per file: its driver bodies
    states: list = field(default_factory=list)   # per file: FileState

    def render(self, index: int) -> str:
        """The text of file ``index`` in its current state."""
        state = self.states[index]
        name = self.names[index]
        library = LIBRARY
        if state.library_edit is not None:
            old, new = LIBRARY_EDITS[state.library_edit]
            library = library.replace(old, new)
        body = self.bodies[index][state.driver]
        text = (
            f":- entry_point({name}(g, any)).\n\n{library}\n"
            f"% driver\n{name}(Xs, Ys) :- {body}, {name}_tag(r{state.revision}).\n"
            f"{name}_tag(_).\n"
            f"{name}_count(Xs, N) :- len(Xs, N).\n"
            f"{name}_never(Xs) :- nrev(Xs, Ys), Ys = leaf.\n"
        )
        if state.naming:
            suffix = f"_{state.naming}"
            text = "\n".join(
                line if line.lstrip().startswith("%")
                else _VARIABLE.sub(lambda m: m.group(1) + suffix, line)
                for line in text.split("\n")
            )
        return text


def make_corpus(seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus(seed=seed)
    offset = rng.randrange(len(DRIVER_BODIES))
    for index in range(FILES):
        corpus.names.append(f"drv{index}_{rng.randrange(1000):03d}")
        corpus.bodies.append([
            DRIVER_BODIES[(offset + index + 2 * step) % len(DRIVER_BODIES)]
            for step in range(3)
        ])
        corpus.states.append(FileState(driver=0))
    return corpus


def group(kind: str) -> str:
    """The request kind without its library depth, as rates are reported:
    ``lib-cutoff-leaf`` counts as ``lib-cutoff``."""
    return kind.rsplit("-", 1)[0] if kind.startswith("lib-") else kind


@dataclass
class Request:
    """One stream request: which file, and what kind of save."""

    file: int
    kind: str


class Stream:
    """Endless seeded rounds of requests."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.targets = {kind: [] for kind in ROUND}

    def _target(self, kind: str) -> int:
        queue = self.targets[kind]
        if not queue:
            queue.extend(self.rng.sample(range(FILES), FILES))
        return queue.pop()

    def next_round(self) -> list[Request]:
        """One round: the fixed mix of kinds, in a seeded order."""
        kinds = [kind for kind, count in ROUND.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        return [Request(self._target(kind), kind) for kind in kinds]


def apply(corpus: Corpus, request: Request) -> None:
    """Move the request's file to the state the request sends."""
    state = corpus.states[request.file]
    kind = request.kind
    if kind == "rename":
        state.naming += 1
    elif kind == "driver":
        state.driver = (state.driver + 1) % len(corpus.bodies[request.file])
        state.revision += 1
    elif kind.startswith("lib-"):
        state.library_edit = None if state.library_edit == kind else kind
