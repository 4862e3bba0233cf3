"""The magic (and supplementary magic) rewriting proper.

Given an adorned program, produce the magic program:

* for each adorned rule ``p__a(t) :- l1, ..., ln`` add the guarded rule
  ``p__a(t) :- m_p__a(t_bound), l1, ..., ln``;
* for each derived body literal ``li = q__c(s)`` add the magic rule
  ``m_q__c(s_bound) :- m_p__a(t_bound), l1, ..., l(i-1)``;
* seed with the fact ``m_query(query_bound_args)``.

The *supplementary* variant (Beeri & Ramakrishnan's supplementary magic
sets; the paper's section 4.2 mentions XSB's analogous "supplementary
tabling") factors the shared rule prefixes into ``sup`` predicates so
each prefix join is computed once.
"""

from __future__ import annotations

from repro.analysis.depgraph import prune_unreachable
from repro.magic.adorn import AdornedProgram, adorn_program, adorned_name
from repro.prolog.parser import Clause
from repro.prolog.program import Program, conjunction, flatten_conjunction
from repro.terms.term import Struct, Term, Var, term_variables
from repro.terms.unify import unify
from repro.terms.subst import EMPTY_SUBST
from repro.terms.variant import rename_apart
from repro.engine.builtins import is_builtin


def _magic_literal(literal: Term) -> Term | None:
    """The magic guard for an adorned literal (None for all-free)."""
    if not isinstance(literal, Struct):
        return f"m_{literal}"
    name = literal.functor
    if "__" not in name:
        return None
    base, adornment = name.rsplit("__", 1)
    bound_args = tuple(
        arg for arg, kind in zip(literal.args, adornment) if kind == "b"
    )
    magic_name = f"m_{name}"
    if not bound_args:
        return magic_name
    return Struct(magic_name, bound_args)


def _is_adorned(literal: Term) -> bool:
    if isinstance(literal, Struct):
        return "__" in literal.functor
    return isinstance(literal, str) and "__" in literal


def magic_transform(program: Program, query: Term) -> tuple[Program, Term]:
    """Adorn + magic rewrite; returns (magic program, adorned query).

    Predicates the query's call graph cannot reach are pruned before
    adornment (:func:`repro.analysis.depgraph.prune_unreachable`), so
    the rewrite's output is proportional to the query-relevant slice.
    """
    return _observed_rewrite(program, query, "magic", _magic_transform)


def _magic_transform(program: Program, query: Term) -> tuple[Program, Term]:
    program = prune_unreachable(program, query)
    adorned = adorn_program(program, query)
    out = Program()
    for indicator in adorned.program.predicates():
        for clause in adorned.program.clauses_for(indicator):
            _rewrite_clause(clause, out, supplementary=False)
    adorned_query = _adorned_query(adorned, query)
    _seed(out, adorned_query)
    return out, adorned_query


def supplementary_transform(program: Program, query: Term) -> tuple[Program, Term]:
    """Supplementary magic: shared prefix joins become sup predicates."""
    return _observed_rewrite(
        program, query, "supplementary", _supplementary_transform
    )


def _supplementary_transform(
    program: Program, query: Term
) -> tuple[Program, Term]:
    program = prune_unreachable(program, query)
    adorned = adorn_program(program, query)
    out = Program()
    counter = [0]
    for indicator in adorned.program.predicates():
        for clause in adorned.program.clauses_for(indicator):
            _rewrite_clause(clause, out, supplementary=True, counter=counter)
    adorned_query = _adorned_query(adorned, query)
    _seed(out, adorned_query)
    return out, adorned_query


def _observed_rewrite(program: Program, query: Term, variant: str, transform):
    """Run a rewrite under the current observer (span + rule counters)."""
    from repro.obs.observer import get_observer
    from repro.terms.term import term_to_str

    obs = get_observer()
    if not obs.enabled:
        return transform(program, query)
    with obs.span(
        "magic.rewrite", variant=variant, query=term_to_str(query)
    ) as span:
        with obs.registry.time(f"magic.rewrite.{variant}"):
            out, adorned_query = transform(program, query)
        rules = sum(len(out.clauses_for(i)) for i in out.predicates())
        span.attrs["rules"] = rules
        obs.registry.counter("magic.rewrite.rules").value += rules
        obs.registry.counter("magic.rewrite.runs").value += 1
        return out, adorned_query


def _adorned_query(adorned: AdornedProgram, query: Term) -> Term:
    assert isinstance(query, Struct)
    return Struct(adorned_name(query.functor, adorned.query_adornment), query.args)


def _seed(out: Program, adorned_query: Term) -> None:
    guard = _magic_literal(adorned_query)
    if guard is None:
        return
    out.add_clause(Clause(guard, "true"))


def _rewrite_clause(
    clause: Clause, out: Program, supplementary: bool, counter: list | None = None
) -> None:
    literals = flatten_conjunction(clause.body)
    head_guard = _magic_literal(clause.head)

    if not supplementary:
        prefix: list[Term] = [head_guard] if head_guard is not None else []
        for literal in literals:
            if _is_adorned(literal):
                guard = _magic_literal(literal)
                if guard is not None:
                    out.add_clause(Clause(
                        guard, conjunction(prefix), clause.varmap, clause.line
                    ))
            prefix.append(literal)
        out.add_clause(
            Clause(clause.head, conjunction(prefix), clause.varmap, clause.line)
        )
        return

    # Supplementary variant: thread the prefix state through sup predicates.
    assert counter is not None
    bound_vars: list[Var] = []
    if head_guard is not None:
        seen: set[int] = set()
        if isinstance(head_guard, Struct):
            for v in term_variables(head_guard):
                if v.id not in seen:
                    seen.add(v.id)
                    bound_vars.append(v)
    state_literal: Term | None = head_guard
    prefix_vars = list(bound_vars)
    for index, literal in enumerate(literals):
        if _is_adorned(literal):
            guard = _magic_literal(literal)
            if guard is not None:
                body = [state_literal] if state_literal is not None else []
                out.add_clause(
                    Clause(guard, conjunction(body), clause.varmap, clause.line)
                )
        # extend the sup state with this literal
        counter[0] += 1
        for v in term_variables(literal):
            if all(v.id != u.id for u in prefix_vars):
                prefix_vars.append(v)
        sup_name = f"sup_{counter[0]}"
        sup_head = (
            Struct(sup_name, tuple(prefix_vars)) if prefix_vars else sup_name
        )
        body = ([state_literal] if state_literal is not None else []) + [literal]
        out.add_clause(Clause(sup_head, conjunction(body), clause.varmap, clause.line))
        state_literal = sup_head
    final_body = [state_literal] if state_literal is not None else []
    out.add_clause(
        Clause(clause.head, conjunction(final_body), clause.varmap, clause.line)
    )


def magic_answers(engine_facts: list[Term], adorned_query: Term) -> list[Term]:
    """Filter bottom-up facts to instances of the (adorned) query."""
    results = []
    for fact in engine_facts:
        subst = unify(adorned_query, rename_apart(fact), EMPTY_SUBST)
        if subst is not None:
            results.append(subst.resolve(adorned_query))
    return results
