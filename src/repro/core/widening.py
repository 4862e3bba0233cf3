"""Infinite-domain analysis with widening (paper section 6.1).

The paper: analyses over domains with infinite ascending chains need
on-the-fly approximation — widening — and "in the context of tabled
evaluation, widening operations require (1) the knowledge of other
returns already present in the table, and (2) a mechanism to modify any
or all of the returns in the table."  Our engine exposes exactly that
pair through the ``answer_join`` hook; this module uses it to build an
*interval analysis* of integer logic programs, the canonical
infinite-domain example (Cousot & Halbwachs).

Abstract domain: intervals ``interval(Lo, Hi)`` with ``Lo, Hi`` integers
or the atoms ``ninf`` / ``pinf``.  The abstract program replaces
``is/2`` with interval evaluation and comparisons with sound interval
tests; the widening operator extrapolates unstable bounds to infinity,
so evaluation terminates even for programs like::

    count(0).
    count(N) :- count(M), N is M + 1.

whose exact answer set is infinite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.builtins import DET_BUILTINS, PrologError
from repro.engine.clausedb import ClauseDB
from repro.engine.tabling import TabledEngine
from repro.prolog.parser import Clause
from repro.prolog.program import Indicator, Program, open_goal
from repro.terms.subst import Subst
from repro.terms.term import Struct, Term, Var
from repro.terms.unify import unify

NEG_INF = "ninf"
POS_INF = "pinf"
GPI_PREFIX = "gpi$"
IEVAL = "$ieval"
ITEST = "$itest"


def gpi_name(name: str) -> str:
    return GPI_PREFIX + name


# ----------------------------------------------------------------------
# Interval arithmetic over ('ninf' | int, int | 'pinf')


def interval(lo, hi) -> Term:
    return Struct("interval", (lo, hi))


def iv_bounds(term: Term) -> tuple:
    if isinstance(term, Struct) and term.indicator == ("interval", 2):
        return term.args
    raise PrologError(f"not an interval: {term!r}")


def _lo_min(a, b):
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return min(a, b)


def _hi_max(a, b):
    if a == POS_INF or b == POS_INF:
        return POS_INF
    return max(a, b)


def iv_join(a: Term, b: Term) -> Term:
    (alo, ahi), (blo, bhi) = iv_bounds(a), iv_bounds(b)
    return interval(_lo_min(alo, blo), _hi_max(ahi, bhi))


def iv_widen(old: Term, new: Term) -> Term:
    """Classic interval widening: unstable bounds jump to infinity."""
    (olo, ohi), (nlo, nhi) = iv_bounds(old), iv_bounds(new)
    lo = olo if _lo_ge(nlo, olo) else NEG_INF
    hi = ohi if _hi_le(nhi, ohi) else POS_INF
    return interval(lo, hi)


def _lo_ge(a, b):
    if b == NEG_INF:
        return True
    if a == NEG_INF:
        return False
    return a >= b


def _hi_le(a, b):
    if b == POS_INF:
        return True
    if a == POS_INF:
        return False
    return a <= b


def _add(a, b):
    if a in (NEG_INF, POS_INF):
        return a
    if b in (NEG_INF, POS_INF):
        return b
    return a + b


def iv_add(a: Term, b: Term) -> Term:
    (alo, ahi), (blo, bhi) = iv_bounds(a), iv_bounds(b)
    return interval(_add(alo, blo), _add(ahi, bhi))


def iv_sub(a: Term, b: Term) -> Term:
    (alo, ahi), (blo, bhi) = iv_bounds(a), iv_bounds(b)
    lo = NEG_INF if (alo == NEG_INF or bhi == POS_INF) else alo - bhi
    hi = POS_INF if (ahi == POS_INF or blo == NEG_INF) else ahi - blo
    return interval(lo, hi)


def iv_mul(a: Term, b: Term) -> Term:
    (alo, ahi), (blo, bhi) = iv_bounds(a), iv_bounds(b)
    if NEG_INF in (alo, blo) or POS_INF in (ahi, bhi):
        return interval(NEG_INF, POS_INF)
    products = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
    return interval(min(products), max(products))


def iv_possibly(op: str, a: Term, b: Term) -> bool:
    """Sound test: could some concrete pair satisfy the comparison?"""
    (alo, ahi), (blo, bhi) = iv_bounds(a), iv_bounds(b)

    def lt(x, y):  # x < y possible given x can be as low as..., y as high as
        if x == NEG_INF or y == POS_INF:
            return True
        if x == POS_INF or y == NEG_INF:
            return False
        return x < y

    if op == "<":
        return lt(alo, bhi)
    if op == ">":
        return lt(blo, ahi)
    if op == "=<":
        return lt(alo, bhi) or alo == bhi
    if op == ">=":
        return lt(blo, ahi) or blo == ahi
    if op == "=:=":
        return not (lt(ahi, blo) or lt(bhi, alo))
    if op == "=\\=":
        return True
    raise PrologError(f"unknown comparison {op}")


# ----------------------------------------------------------------------
# Builtins used by the abstract program


def _to_interval(term: Term) -> Term:
    if isinstance(term, int):
        return interval(term, term)
    return term


def _ieval_expr(term: Term, subst: Subst) -> Term:
    term = subst.walk(term)
    if isinstance(term, int):
        return interval(term, term)
    if isinstance(term, Struct):
        if term.indicator == ("interval", 2):
            return term
        if term.arity == 2 and term.functor in ("+", "-", "*"):
            a = _ieval_expr(term.args[0], subst)
            b = _ieval_expr(term.args[1], subst)
            op = {"+": iv_add, "-": iv_sub, "*": iv_mul}[term.functor]
            return op(a, b)
        if term.arity == 1 and term.functor == "-":
            zero = interval(0, 0)
            return iv_sub(zero, _ieval_expr(term.args[0], subst))
    if isinstance(term, Var):
        # an unconstrained variable: any integer
        return interval(NEG_INF, POS_INF)
    raise PrologError(f"interval eval: unsupported {term!r}")


def _bi_ieval(args, subst):
    result = _ieval_expr(args[1], subst)
    return unify(args[0], result, subst)


def _bi_itest(args, subst):
    op = subst.walk(args[0])
    a = _ieval_expr(args[1], subst)
    b = _ieval_expr(args[2], subst)
    return subst if iv_possibly(op, a, b) else None


DET_BUILTINS[(IEVAL, 2)] = _bi_ieval
DET_BUILTINS[(ITEST, 3)] = _bi_itest


# ----------------------------------------------------------------------
# Abstract compilation for integer programs


_COMPARISONS = {"<", ">", "=<", ">=", "=:=", "=\\="}


def interval_program(program: Program) -> Program:
    """Abstract an integer logic program to the interval domain.

    Supported constructs: integer constants and variables in arguments,
    ``is/2`` over ``+ - *``, arithmetic comparisons, conjunction and
    user predicate calls.  Anything else raises, keeping the demo
    honest about its scope.
    """
    out = Program()
    for indicator in program.predicates():
        name, arity = indicator
        out.tabled.add((gpi_name(name), arity))
        for clause in program.clauses_for(indicator):
            head = clause.head
            if isinstance(head, Struct):
                new_head: Term = Struct(
                    gpi_name(name), tuple(_abstract_arg(a) for a in head.args)
                )
            else:
                new_head = gpi_name(name)
            body = _abstract_body(clause.body, program)
            out.add_clause(Clause(new_head, body, {}, clause.line))
    return out


def _abstract_arg(arg: Term) -> Term:
    if isinstance(arg, int):
        return interval(arg, arg)
    if isinstance(arg, Var):
        return arg
    raise PrologError(f"interval analysis: unsupported argument {arg!r}")


def _abstract_body(goal: Term, program: Program) -> Term:
    if goal == "true":
        return "true"
    if isinstance(goal, Struct) and goal.indicator == (",", 2):
        return Struct(
            ",",
            (
                _abstract_body(goal.args[0], program),
                _abstract_body(goal.args[1], program),
            ),
        )
    if isinstance(goal, Struct) and goal.indicator == ("is", 2):
        return Struct(IEVAL, (goal.args[0], goal.args[1]))
    if isinstance(goal, Struct) and goal.arity == 2 and goal.functor in _COMPARISONS:
        return Struct(ITEST, (goal.functor, goal.args[0], goal.args[1]))
    if isinstance(goal, Struct) and program.clauses_for(goal.indicator):
        return Struct(gpi_name(goal.functor), goal.args)
    if isinstance(goal, str) and program.clauses_for((goal, 0)):
        return gpi_name(goal)
    raise PrologError(f"interval analysis: unsupported goal {goal!r}")


def widening_join(existing: list[Term], new: Term) -> list[Term] | None:
    """``answer_join`` hook: keep one widened interval tuple per table.

    Joins the new answer into the accumulated one and widens when the
    join grows — satisfying the paper's two requirements (sees existing
    returns; replaces returns) through the engine hook.
    """
    if not existing:
        return None  # first answer: store as-is
    accumulated = existing[-1]
    joined = _tuple_join(accumulated, new)
    if joined == accumulated:
        return []  # no growth: drop the new answer
    widened = _tuple_widen(accumulated, joined)
    return [widened]


def _tuple_join(a: Term, b: Term) -> Term:
    if isinstance(a, Struct) and isinstance(b, Struct):
        args = tuple(
            iv_join(x, y) if _is_interval(x) and _is_interval(y) else x
            for x, y in zip(a.args, b.args)
        )
        return Struct(a.functor, args)
    return a


def _tuple_widen(old: Term, new: Term) -> Term:
    if isinstance(old, Struct) and isinstance(new, Struct):
        args = tuple(
            iv_widen(x, y) if _is_interval(x) and _is_interval(y) else y
            for x, y in zip(old.args, new.args)
        )
        return Struct(new.functor, args)
    return new


def _is_interval(term: Term) -> bool:
    return isinstance(term, Struct) and term.indicator == ("interval", 2)


@dataclass
class IntervalResult:
    """Joined interval per argument, per predicate."""

    predicates: dict[Indicator, Term | None]
    times: dict[str, float]
    stats: dict

    def bounds(self, indicator: Indicator) -> list[tuple] | None:
        answer = self.predicates.get(indicator)
        if answer is None:
            return None
        assert isinstance(answer, Struct)
        return [iv_bounds(a) for a in answer.args]


def analyze_intervals(program: Program) -> IntervalResult:
    """Interval analysis with widening of every predicate's success set."""
    t0 = time.perf_counter()
    abstract = interval_program(program)
    db = ClauseDB(abstract)
    t1 = time.perf_counter()
    engine = TabledEngine(db, answer_join=widening_join)
    results: dict[Indicator, Term | None] = {}
    for indicator in program.predicates():
        name, arity = indicator
        goal = open_goal(gpi_name(name), arity)
        engine.solve(goal)
        table = engine.table_for(goal)
        answers = table.answers if table is not None else []
        joined: Term | None = None
        for answer in answers:
            joined = answer if joined is None else _tuple_join(joined, answer)
        results[indicator] = joined
    t2 = time.perf_counter()
    return IntervalResult(
        predicates=results,
        times={"preprocess": t1 - t0, "analysis": t2 - t1},
        stats=engine.stats.as_dict(),
    )
