"""Adornment: annotate predicates with bound/free argument patterns.

An adornment is a string over ``{'b', 'f'}``, one character per
argument.  Starting from the query's adornment, rules are specialised
left-to-right (the standard sideways-information-passing strategy): an
argument is bound if all its variables are bound by the head's bound
arguments or by earlier body literals.

The lattice primitives of that strategy — which head variables an
adornment binds (:func:`head_bound_vars`), the adornment a literal gets
under a binding set (:func:`literal_adornment`) and the binding a
literal contributes (:func:`bind_literal`) — are exposed for reuse: the mode checker
(:mod:`repro.analysis.modecheck`) drives the same left-to-right flow
with a *checking* interpretation of the per-literal binding sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.engine.builtins import is_builtin
from repro.prolog.parser import Clause
from repro.prolog.program import (
    Indicator,
    Program,
    conjunction,
    flatten_conjunction,
)
from repro.terms.subst import EMPTY_SUBST
from repro.terms.term import Struct, Term, Var, term_variables


def adornment_of(goal: Term) -> str:
    """Adornment of a query goal: 'b' for ground args, 'f' otherwise."""
    if not isinstance(goal, Struct):
        return ""
    return "".join(
        "b" if EMPTY_SUBST.is_ground(arg) else "f" for arg in goal.args
    )


def adorned_name(name: str, adornment: str) -> str:
    return f"{name}__{adornment}" if adornment else name


@dataclass
class AdornedProgram:
    """The adorned rules plus bookkeeping for the magic rewrite."""

    program: Program
    query_indicator: Indicator
    query_adornment: str
    # (original indicator, adornment) pairs reached from the query
    reached: set[tuple[Indicator, str]] = field(default_factory=set)


def adorn_program(program: Program, query: Term) -> AdornedProgram:
    """Adorn ``program`` for ``query``; returns a new program.

    Predicate ``p/n`` with adornment ``a`` becomes ``p__a/n``.  Builtins
    are untouched and treated as binding all their variables afterwards
    (safe for the left-to-right strategy used here).
    """
    if not isinstance(query, Struct):
        raise ValueError("query must be a compound goal")
    query_adornment = adornment_of(query)
    out = Program()
    result = AdornedProgram(out, query.indicator, query_adornment)
    worklist: deque[tuple[Indicator, str]] = deque([(query.indicator, query_adornment)])
    while worklist:
        indicator, adornment = worklist.popleft()
        if (indicator, adornment) in result.reached:
            continue
        result.reached.add((indicator, adornment))
        for clause in program.clauses_for(indicator):
            adorned = _adorn_clause(clause, adornment, worklist)
            out.add_clause(adorned)
    return result


def _adorn_clause(clause: Clause, adornment: str, worklist: deque) -> Clause:
    head = clause.head
    if not isinstance(head, Struct):
        raise ValueError(f"cannot adorn 0-ary head {head!r}")
    bound = head_bound_vars(head, adornment)
    new_body: list[Term] = []
    for literal in flatten_conjunction(clause.body):
        indicator = _literal_indicator(literal)
        if indicator is None or is_builtin(indicator):
            new_body.append(literal)
            bind_literal(literal, bound)
            continue
        lit_adornment = literal_adornment(literal, bound)
        worklist.append((indicator, lit_adornment))
        new_body.append(_rename_literal(literal, lit_adornment))
        bind_literal(literal, bound)
    new_head = Struct(adorned_name(head.functor, adornment), head.args)
    return Clause(new_head, conjunction(new_body), clause.varmap, clause.line)


def _literal_indicator(literal: Term) -> Indicator | None:
    if isinstance(literal, Struct):
        return literal.indicator
    if isinstance(literal, str):
        return (literal, 0)
    return None


def head_bound_vars(head: Term, adornment: str) -> set[int]:
    """Variable ids bound at clause entry under a head adornment."""
    bound: set[int] = set()
    if isinstance(head, Struct):
        for arg, kind in zip(head.args, adornment):
            if kind == "b":
                bound.update(v.id for v in term_variables(arg))
    return bound


def literal_adornment(literal: Term, bound: set[int]) -> str:
    """Adornment of a body literal given the current binding set."""
    if not isinstance(literal, Struct):
        return ""
    return "".join(
        "b" if all(v.id in bound for v in term_variables(arg)) else "f"
        for arg in literal.args
    )


def argument_bound(arg: Term, bound: set[int]) -> bool:
    """True when every variable of ``arg`` is in the binding set."""
    return all(v.id in bound for v in term_variables(arg))


def _rename_literal(literal: Term, adornment: str) -> Term:
    if isinstance(literal, Struct):
        return Struct(adorned_name(literal.functor, adornment), literal.args)
    return adorned_name(literal, adornment)


def bind_literal(literal: Term, bound: set[int]) -> None:
    """Bind every variable of ``literal`` (the optimistic SIPS step)."""
    bound.update(v.id for v in term_variables(literal))
