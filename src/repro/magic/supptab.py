"""Supplementary tabling (paper section 4.2).

The strictness clauses of deeply nested equations have long bodies full
of existentially quantified demand variables; resolving them by plain
backtracking multiplies the alternatives of every literal (the paper
observes exactly this on ``pcprove``).  The remedy named by the paper —
XSB's compile-time *supplementary tabling*, the top-down analogue of
supplementary magic sets — factors each long clause body into a chain
of tabled intermediate predicates::

    h(H) :- l1, l2, ..., ln.
    ==>
    supp$c_1(S1) :- l1.
    supp$c_i(Si) :- supp$c_{i-1}(S(i-1)), li.        (i = 2..n-1)
    h(H)        :- supp$c_{n-1}(S(n-1)), ln.

where ``Si`` is the set of variables shared between the prefix
``l1..li`` (plus the head) and the rest of the clause.  Tabling each
``supp$`` predicate deduplicates the intermediate join results and
projects away variables used only inside the prefix, collapsing the
multiplicative search into per-step variant-checked tables.
"""

from __future__ import annotations

from repro.prolog.parser import Clause
from repro.prolog.program import Program, flatten_conjunction
from repro.terms.term import Struct, Term, term_variables

SUPP_PREFIX = "supp$"


def supplementary_tables(
    program: Program, min_body: int = 3, only_tabled: bool = True
) -> Program:
    """Rewrite long clause bodies into tabled supplementary chains.

    Clauses with fewer than ``min_body`` body literals, or with
    non-conjunctive bodies at the top level, are kept as-is (control
    constructs appearing as single literals are treated opaquely and
    never split apart).  With ``only_tabled`` (default) only clauses of
    tabled predicates are rewritten.
    """
    out = Program()
    out.table_all = program.table_all
    out.tabled = set(program.tabled)
    out.directives = list(program.directives)
    out.source_lines = program.source_lines
    counter = 0
    for indicator in program.predicates():
        for clause in program.clauses_for(indicator):
            if only_tabled and not program.is_tabled(indicator):
                out.add_clause(clause)
                continue
            literals = flatten_conjunction(clause.body)
            if len(literals) < min_body or any(_is_control(l) for l in literals):
                out.add_clause(clause)
                continue
            counter += 1
            _rewrite(clause, literals, counter, out)
    return out


def _rewrite(clause: Clause, literals: list[Term], cid: int, out: Program) -> None:
    head_vars = _var_ids(clause.head)
    suffix_vars: list[set] = [set() for _ in literals]
    seen: set = set(head_vars)
    for i in range(len(literals) - 1, -1, -1):
        suffix_vars[i] = set(seen)
        seen |= set(_var_ids(literals[i]))
    # suffix_vars[i] = vars needed strictly after literal i (incl. head)

    available: dict[int, object] = {}
    for var in term_variables(clause.head):
        available[var.id] = var

    state: Term | None = None
    for i, literal in enumerate(literals[:-1]):
        for var in term_variables(literal):
            available.setdefault(var.id, var)
        shared = [
            available[vid] for vid in sorted(available) if vid in suffix_vars[i]
        ]
        name = f"{SUPP_PREFIX}{cid}_{i + 1}"
        supp_head: Term = Struct(name, tuple(shared)) if shared else name
        body = literal if state is None else Struct(",", (state, literal))
        out.add_clause(Clause(supp_head, body, {}, clause.line))
        out.tabled.add((name, len(shared)))
        state = supp_head
    final_body = (
        literals[-1] if state is None else Struct(",", (state, literals[-1]))
    )
    out.add_clause(Clause(clause.head, final_body, clause.varmap, clause.line))


def _var_ids(term: Term) -> list[int]:
    return [v.id for v in term_variables(term)]


def _is_control(literal: Term) -> bool:
    if isinstance(literal, Struct):
        return literal.functor in (";", "->", "\\+", "not", "call", "findall")
    return False
