"""Variant checking and canonical forms.

Tabled evaluation in XSB keys the call and answer tables by *variants*:
two terms are variants when they are identical up to a renaming of
variables (paper section 2, footnote 1).  We implement this by mapping
each term to a hashable *canonical key* in which variables are numbered
in order of first occurrence; two terms are variants iff their keys are
equal.
"""

from __future__ import annotations

from repro.terms.subst import EMPTY_SUBST, Subst
from repro.terms.term import Struct, Term, Var, fresh_var

VariantKey = tuple

#: shared leaf keys: one ``("a", atom)`` per atom and one ``("v", i)``
#: per small ``i``, so the keys a table stores hold references to these
#: rather than tuples of their own (equal values, equal hashes).  Like
#: the interpreter's own string interning, the atom map grows with the
#: distinct atoms a process meets.
_ATOM_KEYS: dict = {}
_VAR_KEYS = tuple(("v", i) for i in range(64))


def variant_key(term: Term, subst: Subst = EMPTY_SUBST) -> VariantKey:
    """A hashable key equal for exactly the variants of ``term``.

    The term is resolved under ``subst`` on the fly, so callers need not
    build the resolved term first.

    Keys of *ground* structures are memoized on the term
    (``Struct._vkey``): a subtree containing no variable occurrence has
    a key independent of both the substitution and the surrounding
    variable numbering, so tabled calls, answer inserts and semi-naive
    delta dedup — which rekey the same stored facts over and over — pay
    the tree walk once per term.  A keyed subtree is also one that
    :func:`canonical` and :func:`rename_apart` share instead of copying.
    The cache write is idempotent (always the same value for a given
    term), so racing worker threads are harmless.
    """
    if isinstance(term, Struct):
        cached = term._vkey
        if cached is not None:
            return cached
    numbering: dict[int, int] = {}
    return _key(term, subst, numbering, [0])


def _key(term: Term, subst: Subst, numbering: dict[int, int],
         var_occurrences: list) -> tuple:
    if isinstance(term, Var):
        # count the occurrence *before* walking: even a var bound to a
        # ground term makes every enclosing key substitution-dependent,
        # so no ancestor may cache
        var_occurrences[0] += 1
        term = subst.walk(term)
        if isinstance(term, Var):
            index = numbering.setdefault(term.id, len(numbering))
            if index < len(_VAR_KEYS):
                return _VAR_KEYS[index]
            return ("v", index)
    if isinstance(term, Struct):
        cached = term._vkey
        if cached is not None:
            return cached
        before = var_occurrences[0]
        key = ("s", term.functor,
               tuple(_key(a, subst, numbering, var_occurrences) for a in term.args))
        if var_occurrences[0] == before:
            term._vkey = key
        return key
    if isinstance(term, int):
        return ("i", term)
    key = _ATOM_KEYS.get(term)
    if key is None:
        key = _ATOM_KEYS.setdefault(term, ("a", term))
    return key


def clause_key(clause) -> VariantKey:
    """The variant key of a clause ``head :- body``.

    The one clause fingerprint the serve cache and the summary store
    both key by: equal exactly when two clauses differ only in the
    names of their variables.
    """
    return variant_key(Struct(":-", (clause.head, clause.body)))


def is_variant(t1: Term, t2: Term, subst: Subst = EMPTY_SUBST) -> bool:
    """True iff ``t1`` and ``t2`` are identical up to variable renaming."""
    if t1 is t2:
        return True
    return variant_key(t1, subst) == variant_key(t2, subst)


def canonical(term: Term, subst: Subst = EMPTY_SUBST) -> Term:
    """The canonical representative of ``term``'s variant class.

    Variables are replaced by fresh ones numbered in first-occurrence
    order, so canonical terms of distinct table entries share no
    variables; answers stored in tables are canonical terms.
    """
    renaming: dict[int, Var] = {}
    return _canon(term, subst.walk, renaming)


def _canon(term: Term, walk, renaming: dict[int, Var]) -> Term:
    """``term`` with each variable, dereferenced by ``walk`` unless
    ``walk`` is None, replaced by its fresh image in ``renaming``."""
    if isinstance(term, Var):
        if walk is not None:
            term = walk(term)
        if isinstance(term, Var):
            replacement = renaming.get(term.id)
            if replacement is None:
                replacement = fresh_var()
                renaming[term.id] = replacement
            return replacement
    if isinstance(term, Struct):
        if term._vkey is not None:
            # a keyed subtree holds no variable: nothing to rename, so
            # the stored term is shared rather than copied
            return term
        return Struct(term.functor, tuple(_canon(a, walk, renaming) for a in term.args))
    return term


def rename_apart(term: Term) -> Term:
    """Rename all variables of a (fully resolved) term to fresh ones.

    This is the "standardize apart" step of resolution: program clauses
    and table answers are renamed before unifying with a goal.  The
    term is taken as resolved, so nothing is walked.
    """
    renaming: dict[int, Var] = {}
    return _canon(term, None, renaming)
