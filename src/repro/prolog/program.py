"""Program container: clauses grouped by predicate, table declarations.

A :class:`Program` is the front end's output and every engine's input.
Directives recognised:

* ``:- table p/2.`` (or a comma list) marks predicates as tabled;
* ``:- table_all.`` marks every predicate as tabled (used by the
  analysis drivers, which table the whole abstract program);
* other directives are retained in :attr:`Program.directives` and
  otherwise ignored.
"""

from __future__ import annotations

from repro.prolog.parser import Clause, parse_program
from repro.terms.term import Struct, Term, fresh_var

Indicator = tuple[str, int]


class Program:
    """Clauses grouped by predicate indicator, in source order."""

    def __init__(self):
        self.clauses: dict[Indicator, list[Clause]] = {}
        self.order: list[Indicator] = []
        self.tabled: set[Indicator] = set()
        self.table_all = False
        self.directives: list[Term] = []
        self.source_lines = 0

    # ------------------------------------------------------------------
    def add_clause(self, clause: Clause) -> None:
        indicator = clause.indicator
        if indicator == (":-", 0):
            self._handle_directive(clause.body)
            return
        group = self.clauses.get(indicator)
        if group is None:
            group = []
            self.clauses[indicator] = group
            self.order.append(indicator)
        group.append(clause)

    def add_clauses(self, clauses) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def _handle_directive(self, body: Term) -> None:
        self.directives.append(body)
        if isinstance(body, Struct) and body.functor == "table" and body.arity == 1:
            for spec in flatten_conjunction(body.args[0]):
                indicator = _parse_indicator(spec)
                if indicator is not None:
                    self.tabled.add(indicator)
        elif body == "table_all":
            self.table_all = True

    # ------------------------------------------------------------------
    def is_tabled(self, indicator: Indicator) -> bool:
        return self.table_all or indicator in self.tabled

    def predicates(self) -> list[Indicator]:
        """All defined predicate indicators, in order of first clause."""
        return list(self.order)

    def clauses_for(self, indicator: Indicator) -> list[Clause]:
        return self.clauses.get(indicator, [])

    def clause_count(self) -> int:
        return sum(len(group) for group in self.clauses.values())

    def __len__(self) -> int:
        return self.clause_count()

    def copy(self) -> "Program":
        dup = Program()
        dup.clauses = {k: list(v) for k, v in self.clauses.items()}
        dup.order = list(self.order)
        dup.tabled = set(self.tabled)
        dup.table_all = self.table_all
        dup.directives = list(self.directives)
        dup.source_lines = self.source_lines
        return dup


def flatten_conjunction(body: Term) -> list[Term]:
    """Top-level conjuncts of a body, in order, ``true`` removed."""
    if body == "true":
        return []
    items: list[Term] = []
    stack = [body]
    while stack:
        term = stack.pop()
        if isinstance(term, Struct) and term.functor == "," and term.arity == 2:
            stack.append(term.args[1])
            stack.append(term.args[0])
        elif term != "true":
            items.append(term)
    return items


def conjunction(literals: list[Term]) -> Term:
    """The right-nested ``,``/2 conjunction of ``literals`` (``true`` if none)."""
    if not literals:
        return "true"
    body = literals[-1]
    for literal in reversed(literals[:-1]):
        body = Struct(",", (literal, body))
    return body


def open_goal(name: str, arity: int) -> Term:
    """``name`` over ``arity`` fresh variables: a predicate's open call."""
    if not arity:
        return name
    return Struct(name, tuple(fresh_var() for _ in range(arity)))


def entry_points(program: Program, rename, ground: Term) -> list[Term]:
    """``:- entry_point(p(g, any)).`` directives, as abstract goals.

    ``rename`` maps a source predicate name to its abstract counterpart;
    a ``g`` argument (known ground at entry) becomes ``ground`` and any
    other argument a fresh variable.  Without entry points an analysis
    falls back to open calls.
    """
    entries = []
    for directive in program.directives:
        if isinstance(directive, Struct) and directive.indicator == ("entry_point", 1):
            pattern = directive.args[0]
            if isinstance(pattern, Struct):
                args = tuple(ground if a == "g" else fresh_var() for a in pattern.args)
                entries.append(Struct(rename(pattern.functor), args))
            elif isinstance(pattern, str):
                entries.append(rename(pattern))
    return entries


def _parse_indicator(spec: Term) -> Indicator | None:
    if (
        isinstance(spec, Struct)
        and spec.functor == "/"
        and spec.arity == 2
        and isinstance(spec.args[0], str)
        and isinstance(spec.args[1], int)
    ):
        return (spec.args[0], spec.args[1])
    return None


def load_program(text: str) -> Program:
    """Parse ``text`` and load it as *dynamic* code (the ``assert`` path).

    This is the cheap-preprocessing route the paper advocates: clauses
    are stored as terms and interpreted by the engines.  See
    :func:`compile_program` for the full-compilation comparator.
    """
    program = Program()
    program.add_clauses(parse_program(text))
    program.source_lines = _count_source_lines(text)
    return program


def compile_program(text: str) -> Program:
    """Parse and *fully compile* ``text`` for fastest resolution.

    On top of :func:`load_program` this precompiles every clause into
    the template form used by the engines' fast path (variable
    numbering, ground-subterm sharing, first-argument index).  It costs
    more preprocessing time — the trade-off studied in the paper's
    Section 4 and our E6 ablation.
    """
    # Imported here to keep the front end free of engine dependencies.
    from repro.engine.clausedb import ClauseDB

    program = load_program(text)
    database = ClauseDB(program, compiled=True)
    program.prepared_db = database
    return program


def _count_source_lines(text: str) -> int:
    """Non-blank, non-comment-only source lines (the paper's size metric)."""
    count = 0
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("%"):
            count += 1
    return count
