"""Persistent substitutions (binding environments).

The tabled engine suspends and resumes derivations, so bindings must be
shareable between independent continuations.  We therefore use
*persistent* substitutions: a substitution is never changed once other
code can see it.  It is a chain of layers, each a small dict over its
parent.  A unifier adds *one* layer per unification, not one per
binding: :meth:`Subst.extend` hands it a new, still private layer, it
writes every binding of the unification into that layer in place, and
only then returns the new substitution.  A unification that binds
nothing returns its input.  Once a chain is ``_MAX_DEPTH`` layers deep,
the next layer is a flattened copy of the whole chain instead.
"""

from __future__ import annotations

from repro.terms.term import Struct, Term, Var

_MAX_DEPTH = 8


class Subst:
    """An immutable mapping from variables to terms.

    Bindings may be to other variables (chains); :meth:`walk`
    dereferences a term to its representative, and :meth:`resolve`
    deeply applies the substitution.
    """

    __slots__ = ("_bindings", "_parent", "_depth")

    def __init__(self, bindings=None, parent: "Subst | None" = None):
        self._bindings: dict[int, Term] = bindings if bindings is not None else {}
        self._parent = parent
        self._depth = parent._depth + 1 if parent is not None else 0

    def lookup(self, var: Var) -> Term | None:
        """The direct binding of ``var``, or None if unbound."""
        node: Subst | None = self
        vid = var.id
        while node is not None:
            value = node._bindings.get(vid)
            if value is not None:
                return value
            node = node._parent
        return None

    def extend(self) -> "tuple[Subst, dict[int, Term]]":
        """A new substitution over this one, and its private top layer.

        The caller writes its bindings into the returned dict, keyed by
        variable id, before it hands the substitution to anyone else;
        after that the layer must not change.  At ``_MAX_DEPTH`` the new
        substitution is a flattened copy of this one with no parent, and
        the dict is that copy.
        """
        if self._depth >= _MAX_DEPTH:
            layer = self._flatten()
            return Subst(layer), layer
        layer = {}
        return Subst(layer, self), layer

    def bind(self, var: Var, value: Term) -> "Subst":
        """A new substitution extending this one with ``var -> value``."""
        subst, layer = self.extend()
        layer[var.id] = value
        return subst

    def _flatten(self) -> dict[int, Term]:
        layers = []
        node: Subst | None = self
        while node is not None:
            layers.append(node._bindings)
            node = node._parent
        flat: dict[int, Term] = {}
        for layer in reversed(layers):
            flat.update(layer)
        return flat

    def walk(self, term: Term) -> Term:
        """Dereference ``term`` through variable chains (shallow)."""
        while isinstance(term, Var):
            vid = term.id
            node = self
            while True:
                value = node._bindings.get(vid)
                if value is not None:
                    break
                node = node._parent
                if node is None:
                    return term
            term = value
        return term

    def resolve(self, term: Term) -> Term:
        """Deeply apply the substitution to ``term``."""
        term = self.walk(term)
        if isinstance(term, Struct):
            args = tuple(self.resolve(a) for a in term.args)
            if args == term.args:
                return term
            return Struct(term.functor, args)
        return term

    def is_ground(self, term: Term) -> bool:
        """True iff ``term`` contains no unbound variables under self."""
        stack = [term]
        while stack:
            t = self.walk(stack.pop())
            if isinstance(t, Var):
                return False
            if isinstance(t, Struct):
                stack.extend(t.args)
        return True

    def __repr__(self) -> str:
        flat = self._flatten()
        items = ", ".join(f"_G{k}={v!r}" for k, v in sorted(flat.items()))
        return f"Subst({{{items}}})"


EMPTY_SUBST = Subst()
