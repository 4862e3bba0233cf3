"""Variant checking and canonical forms (the tabling key discipline)."""

from hypothesis import given

from repro.terms import (
    EMPTY_SUBST,
    Struct,
    Var,
    canonical,
    fresh_var,
    is_variant,
    rename_apart,
    term_variables,
    unify,
    variant_key,
)
from tests.test_unify import terms


def test_variants_differ_only_in_names():
    x, y = fresh_var("X"), fresh_var("Y")
    a, b = fresh_var("A"), fresh_var("B")
    t1 = Struct("f", (x, Struct("g", (x, y))))
    t2 = Struct("f", (a, Struct("g", (a, b))))
    t3 = Struct("f", (a, Struct("g", (b, b))))  # different sharing
    assert is_variant(t1, t2)
    assert not is_variant(t1, t3)


def test_variant_respects_subst():
    x, y = fresh_var(), fresh_var()
    s = unify(x, "a", EMPTY_SUBST)
    assert variant_key(Struct("f", (x,)), s) == variant_key(Struct("f", ("a",)))
    assert variant_key(Struct("f", (y,)), s) != variant_key(Struct("f", ("a",)))


def test_canonical_produces_fresh_variables():
    x = fresh_var("X")
    t = Struct("f", (x, x))
    c = canonical(t)
    variables = term_variables(c)
    assert len(variables) == 1
    assert variables[0].id != x.id
    assert is_variant(t, c)


def test_rename_apart_shares_structure():
    x = fresh_var()
    t = Struct("f", (x, Struct("g", (x,)), "const"))
    r = rename_apart(t)
    assert is_variant(t, r)
    assert term_variables(r)[0].id != x.id


def test_keyed_ground_subtrees_are_shared_not_copied():
    x = fresh_var()
    ground = Struct("g", ("a", Struct("h", (1,))))
    unkeyed = Struct("g", ("a", Struct("h", (1,))))
    variant_key(ground)  # keys (and marks) the ground subtree
    t = Struct("f", (x, ground, unkeyed))
    for copy in (rename_apart(t), canonical(t)):
        assert copy.args[1] is ground
        assert copy.args[2] is not unkeyed and copy.args[2] == unkeyed
    assert rename_apart(ground) is ground
    # a ground term reached through a binding is shared as well
    s = unify(x, ground, EMPTY_SUBST)
    assert canonical(Struct("f", (x,)), s).args[0] is ground


@given(terms())
def test_canonical_is_variant_of_original(t):
    assert is_variant(t, canonical(t))


@given(terms())
def test_rename_apart_is_variant(t):
    assert is_variant(t, rename_apart(t))


@given(terms(), terms())
def test_variant_key_separates_non_variants(t1, t2):
    """Equal keys imply variance (checked via canonical equality)."""
    if variant_key(t1) == variant_key(t2):
        # canonicalize both with a deterministic renaming to compare
        def normal(t):
            mapping = {}

            def go(x):
                from repro.terms import Var

                if isinstance(x, Var):
                    return mapping.setdefault(x.id, f"v{len(mapping)}")
                if isinstance(x, Struct):
                    return Struct(x.functor, tuple(go(a) for a in x.args))
                return x

            return go(t)

        assert normal(t1) == normal(t2)


@given(terms())
def test_variant_key_invariant_under_renaming(t):
    assert variant_key(t) == variant_key(rename_apart(t))


def _unshared_key(term, numbering):
    """A variant key built the plain way: a new tuple for every leaf."""
    if isinstance(term, Var):
        return ("v", numbering.setdefault(term.id, len(numbering)))
    if isinstance(term, Struct):
        return ("s", term.functor,
                tuple(_unshared_key(a, numbering) for a in term.args))
    if isinstance(term, int):
        return ("i", term)
    return ("a", term)


@given(terms())
def test_shared_leaf_keys_leave_values_and_hashes_unchanged(t):
    key, plain = variant_key(t), _unshared_key(t, {})
    assert key == plain
    assert hash(key) == hash(plain)
    assert repr(key) == repr(plain)


def test_leaf_keys_are_shared():
    x, y = fresh_var(), fresh_var()
    one = variant_key(Struct("f", ("a", x)))
    two = variant_key(Struct("g", (y, "a")))
    assert one[2][0] is two[2][1]  # ("a", "a")
    assert one[2][1] is two[2][0]  # ("v", 0)
    # past the shared range, a variable's key is built as before
    many = [fresh_var() for _ in range(100)]
    assert variant_key(Struct("f", tuple(many)))[2][99] == ("v", 99)
    assert variant_key(Struct("f", (1, "1")))[2] == (("i", 1), ("a", "1"))
