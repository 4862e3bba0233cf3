"""First-order term layer: the WAM-level substrate of the reproduction.

This package provides the term representation shared by every other
component — the Prolog reader, the SLD and tabled engines, the abstract
compilers and the analysis collectors.

Representation choices (kept deliberately lightweight):

* variables   -- :class:`Var` instances (identity by integer id)
* atoms       -- Python ``str``
* integers    -- Python ``int``
* structures  -- :class:`Struct` (functor string + tuple of args)

Lists use the conventional ``'.'/2`` functor with the atom ``'[]'`` as
nil; :func:`make_list` / :func:`list_elements` convert to and from
Python lists.
"""

from repro.terms.term import (
    Var,
    Struct,
    Term,
    fresh_var,
    reset_var_counter,
    make_list,
    list_elements,
    is_list,
    term_variables,
    term_depth,
    term_size,
    term_functor,
    term_to_str,
)
from repro.terms.subst import Subst, EMPTY_SUBST
from repro.terms.unify import unify, subsumes, occurs_in
from repro.terms.variant import canonical, variant_key, is_variant, rename_apart

__all__ = [
    "Var",
    "Struct",
    "Term",
    "fresh_var",
    "reset_var_counter",
    "make_list",
    "list_elements",
    "is_list",
    "term_variables",
    "term_depth",
    "term_size",
    "term_functor",
    "term_to_str",
    "Subst",
    "EMPTY_SUBST",
    "unify",
    "subsumes",
    "occurs_in",
    "canonical",
    "variant_key",
    "is_variant",
    "rename_apart",
]
