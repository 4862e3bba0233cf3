"""Unification over persistent substitutions, and one-way subsumption."""

from __future__ import annotations

from repro.terms.subst import Subst
from repro.terms.term import Struct, Term, Var


def occurs_in(var: Var, term: Term, subst: Subst) -> bool:
    """True iff ``var`` occurs in ``term`` under ``subst``."""
    stack = [term]
    while stack:
        t = subst.walk(stack.pop())
        if isinstance(t, Var):
            if t.id == var.id:
                return True
        elif isinstance(t, Struct):
            stack.extend(t.args)
    return False


def unify(t1: Term, t2: Term, subst: Subst, occur_check: bool = False) -> Subst | None:
    """Most general unifier of ``t1`` and ``t2`` extending ``subst``.

    Returns the extended substitution, or None when unification fails.
    With ``occur_check=True`` binding a variable to a term containing it
    fails (needed e.g. by Hindley-Milner type analysis, paper section
    6.1); the default matches standard Prolog behaviour.
    """
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = subst.walk(a)
        b = subst.walk(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.id == a.id:
                continue
            if occur_check and occurs_in(a, b, subst):
                return None
            subst = subst.bind(a, b)
        elif isinstance(b, Var):
            if occur_check and occurs_in(b, a, subst):
                return None
            subst = subst.bind(b, a)
        elif isinstance(a, Struct):
            if (
                not isinstance(b, Struct)
                or a.functor != b.functor
                or len(a.args) != len(b.args)
            ):
                return None
            stack.extend(zip(a.args, b.args))
        else:
            if a != b:
                return None
    return subst


def subsumes(general: Term, specific: Term) -> bool:
    """True iff ``specific`` is an instance of ``general``.

    One-way: only ``general``'s variables take bindings, kept in a
    private dict, and ``specific`` is never walked or bound, so its
    variables act as constants that equal only themselves.  The two
    terms may share variable ids and nothing is renamed.  Both terms
    are taken as fully resolved.  This is the answer and call
    subsumption check of the tabled engine (paper section 6.2).
    """
    bindings: dict[int, Term] = {}
    stack = [(general, specific)]
    while stack:
        g, s = stack.pop()
        if isinstance(g, Struct):
            if g is s and g._vkey is not None:
                continue  # one shared ground subtree
            if (
                not isinstance(s, Struct)
                or g.functor != s.functor
                or len(g.args) != len(s.args)
            ):
                return False
            pairs = zip(g.args, s.args)
        else:
            pairs = ((g, s),)
        # settle variables and constants at once; only structures wait
        for a, b in pairs:
            if isinstance(a, Struct):
                stack.append((a, b))
            elif isinstance(a, Var):
                bound = bindings.setdefault(a.id, b)
                if bound is not b and bound != b:
                    return False
            elif a != b:
                return False
    return True
