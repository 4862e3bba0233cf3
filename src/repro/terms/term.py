"""Core term representation: variables, atoms, integers and structures.

A *term* is one of:

* :class:`Var` — a logic variable, identified by a unique integer id;
* ``str`` — an atom (constant symbol);
* ``int`` — an integer constant;
* :class:`Struct` — a compound term ``f(t1, ..., tn)`` with ``n >= 1``.

Terms are immutable; all state lives in substitutions
(:mod:`repro.terms.subst`).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Union


class Var:
    """A logic variable.

    Variables are compared by identity of their integer ``id``.  The
    optional ``name`` is a hint used only for printing (parser-created
    variables carry their source name).
    """

    __slots__ = ("id", "name")

    def __init__(self, vid: int, name: str | None = None):
        self.id = vid
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("$var", self.id))

    def __repr__(self) -> str:
        if self.name:
            return f"Var({self.id}, {self.name!r})"
        return f"Var({self.id})"

    def display(self) -> str:
        """Printable form: the source name if any, else ``_G<id>``."""
        return self.name if self.name else f"_G{self.id}"


class Struct:
    """A compound term ``functor(args...)`` with at least one argument.

    Zero-arity symbols are plain ``str`` atoms, never ``Struct``.
    """

    __slots__ = ("functor", "args", "_hash", "_vkey")

    def __init__(self, functor: str, args: tuple):
        if not args:
            raise ValueError("Struct requires at least one argument; use a str atom")
        self.functor = functor
        self.args = args
        self._hash = None
        # variant-key cache, filled only for ground subtrees (whose key
        # is independent of any substitution or variable numbering); see
        # repro.terms.variant
        self._vkey = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Struct)
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.functor, self.args))
        return self._hash

    def __repr__(self) -> str:
        return f"Struct({self.functor!r}, {self.args!r})"

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple[str, int]:
        """The predicate/functor indicator ``(name, arity)``."""
        return (self.functor, len(self.args))


Term = Union[Var, Struct, str, int]

_var_counter = itertools.count(1)


def fresh_var(name: str | None = None) -> Var:
    """Create a globally fresh variable."""
    return Var(next(_var_counter), name)


def reset_var_counter() -> None:
    """Reset the fresh-variable counter (tests only: keeps ids small)."""
    global _var_counter
    _var_counter = itertools.count(1)


NIL = "[]"
CONS = "."


def make_list(elements, tail: Term = NIL) -> Term:
    """Build a Prolog list term from a Python iterable."""
    result = tail
    for element in reversed(list(elements)):
        result = Struct(CONS, (element, result))
    return result


def list_elements(term: Term) -> tuple[list, Term]:
    """Decompose a list term into ``(elements, tail)``.

    The tail is ``'[]'`` for a proper list, and a variable or other term
    for a partial/improper list.
    """
    elements = []
    while isinstance(term, Struct) and term.functor == CONS and term.arity == 2:
        elements.append(term.args[0])
        term = term.args[1]
    return elements, term


def is_list(term: Term) -> bool:
    """True iff ``term`` is a proper (nil-terminated) list."""
    _, tail = list_elements(term)
    return tail == NIL


def term_variables(term: Term) -> list[Var]:
    """All distinct variables of ``term`` in first-occurrence order."""
    seen: dict[int, Var] = {}
    stack = [term]
    out: list[Var] = []
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if t.id not in seen:
                seen[t.id] = t
                out.append(t)
        elif isinstance(t, Struct):
            stack.extend(reversed(t.args))
    return out


def term_depth(term: Term) -> int:
    """Depth of a term: constants and variables have depth 0."""
    if isinstance(term, Struct):
        return 1 + max(term_depth(a) for a in term.args)
    return 0


def term_size(term: Term) -> int:
    """Number of symbol occurrences (variables and constants count 1)."""
    size = 0
    stack = [term]
    while stack:
        t = stack.pop()
        size += 1
        if isinstance(t, Struct):
            stack.extend(t.args)
    return size


def term_functor(term: Term) -> tuple[str | int | None, int]:
    """``(name, arity)`` of the principal functor; variables give ``(None, 0)``."""
    if isinstance(term, Struct):
        return term.indicator
    if isinstance(term, Var):
        return (None, 0)
    return (term, 0)


def _iter_list_str(term: Term) -> Iterator[str]:
    elements, tail = list_elements(term)
    for i, element in enumerate(elements):
        if i:
            yield ","
        yield term_to_str(element)
    if tail != NIL:
        yield "|"
        yield term_to_str(tail)


def term_to_str(term: Term) -> str:
    """Render a term in plain (canonical-ish) Prolog syntax.

    Lists are rendered with bracket notation; operators are not
    reconstructed (``1 + 2`` prints as ``+(1,2)``) — the pretty writer in
    :mod:`repro.prolog.writer` handles operators.
    """
    if isinstance(term, Var):
        return term.display()
    if isinstance(term, int):
        return str(term)
    if isinstance(term, str):
        return _atom_str(term)
    if term.functor == CONS and term.arity == 2:
        return "[" + "".join(_iter_list_str(term)) + "]"
    args = ",".join(term_to_str(a) for a in term.args)
    return f"{_atom_str(term.functor)}({args})"


def printed_size(term: Term) -> int:
    """``len(term_to_str(term))`` of the term's canonical variant.

    The ``k``-th distinct variable (first occurrence, left to right —
    the numbering of :func:`~repro.terms.variant.canonical` and
    :func:`~repro.terms.variant.variant_key`) counts as if printed
    ``_G<k>``, whatever its id or source name, so variants have one
    size and the size does not depend on how many variables a process
    has created.  Computed in one walk, without building the string.
    """
    return _printed_size(term, {})


def _printed_size(term: Term, numbering: dict) -> int:
    if isinstance(term, Var):
        index = numbering.setdefault(term.id, len(numbering))
        return 2 + len(str(index))
    if isinstance(term, int):
        return len(str(term))
    if isinstance(term, str):
        return _atom_size(term)
    if term.functor == CONS and len(term.args) == 2:
        size = 2  # the brackets
        while True:
            size += _printed_size(term.args[0], numbering)
            term = term.args[1]
            if isinstance(term, Struct) and term.functor == CONS and len(term.args) == 2:
                size += 1  # ","
                continue
            if term != NIL:
                size += 1 + _printed_size(term, numbering)  # "|" tail
            return size
    # functor, parentheses and the commas between arguments
    size = _atom_size(term.functor) + 1 + len(term.args)
    for arg in term.args:
        size += _printed_size(arg, numbering)
    return size


_PLAIN_ATOM_OK = set("abcdefghijklmnopqrstuvwxyz")
_SYMBOLIC = set("+-*/\\^<>=~:.?@#&$")


def _atom_str(name: str) -> str:
    """Quote an atom when its spelling requires it."""
    if not name:
        return "''"
    if name[0] in _PLAIN_ATOM_OK and all(c.isalnum() or c == "_" for c in name):
        return name
    if all(c in _SYMBOLIC for c in name):
        return name
    if name in ("[]", "!", ";", "{}"):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


@functools.lru_cache(maxsize=1 << 14)
def _atom_size(name: str) -> int:
    return len(_atom_str(name))
