"""Spans around the program's public functions, recorded from outside.

The traced run wraps the public entry points of each ``src/repro``
layer (parsing, abstract compilation, clause-database construction,
``TabledEngine.solve``, BDD construction from answers, the serve cache
probe) in spans.  A span records its name, start, end, parent and the
*group* it belongs to: one group per analysed program in a pass, or
per served request.  Nothing under ``src/`` is changed: the wrappers
are installed on the module and class attributes the program looks up
at call time, and removed again by :meth:`SpanRecorder.uninstall`.

Spans stay in memory and are written as JSONL at the end of the run.
A layer's *self time* is its spans' durations minus the durations of
their child spans.  ``TabledEngine.solve`` spans also carry the
engine's counter deltas (tasks, answers, duplicate answers,
resumptions, tables created, table bytes), read from the engine's
public ``stats`` view before and after the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

#: (module, attribute, span name) of every wrapped public function
FUNCTIONS = [
    ("repro.prolog.program", "load_program", "prolog.parse"),
    ("repro.funlang.parser", "parse_fun_program", "funlang.parse"),
    ("repro.core.groundness", "abstract_program", "core.groundness.compile"),
    ("repro.core.strictness", "strictness_program", "core.strictness.compile"),
    ("repro.magic.supptab", "supplementary_tables", "magic.supptab"),
    ("repro.core.depthk", "depthk_program", "core.depthk.compile"),
]

#: (module, class, method, span name) of every wrapped public method
METHODS = [
    ("repro.engine.clausedb", "ClauseDB", "__init__", "engine.clausedb.build"),
    ("repro.engine.tabling", "TabledEngine", "solve", "engine.tabling.solve"),
    ("repro.serve.cache", "ResultCache", "probe", "serve.cache.probe"),
]

#: classmethods, wrapped so that they stay classmethods
CLASSMETHODS = [
    ("repro.bdd.propfn", "BddPropFunction", "from_answers", "bdd.from_answers"),
]

ENGINE_COUNTERS = ("tasks", "answers", "duplicate_answers", "resumptions")


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.group = None
        self._stack: list[dict] = []
        self._restore: list = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans) + 1,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "group": self.group,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(span)

        return traced

    def _wrap_solve(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def traced(engine, *args, **kwargs):
            before = engine.stats.as_dict()
            tables = len(engine.tables)
            space = engine.table_space_bytes()
            span = recorder._open(name)
            try:
                return fn(engine, *args, **kwargs)
            finally:
                recorder._close(span)
                after = engine.stats.as_dict()
                for counter in ENGINE_COUNTERS:
                    span[counter] = after[counter] - before[counter]
                span["tables"] = len(engine.tables) - tables
                span["table_bytes"] = engine.table_space_bytes() - space

        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            wrap = self._wrap_solve if attr == "solve" else self.wrap
            setattr(cls, attr, wrap(original, name))
        for module_name, cls_name, attr, name in CLASSMETHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, classmethod(self.wrap(original.__func__, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived figures ------------------------------------------------
    def self_times(self) -> dict:
        """Span name -> summed self time (duration minus children)."""
        spans = self.spans
        child_time: dict = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict = defaultdict(float)
        for span in spans:
            totals[span["name"]] += (
                span["end"] - span["start"] - child_time[span["id"]]
            )
        return dict(totals)

    def by_group(self) -> dict:
        groups: dict = defaultdict(list)
        for span in self.spans:
            groups[span["group"]].append(span)
        return dict(groups)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
