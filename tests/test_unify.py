"""Unification, subsumption and substitutions — including property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.core.depthk import GAMMA, abstract_unify
from repro.terms import (
    EMPTY_SUBST,
    Struct,
    Subst,
    Var,
    fresh_var,
    occurs_in,
    subsumes,
    term_to_str,
    unify,
    variant_key,
)
from repro.terms.subst import _MAX_DEPTH

# ----------------------------------------------------------------------
# hypothesis term generator: terms over a small signature with shared vars

_VARS = [Var(1_000_000 + i, f"H{i}") for i in range(4)]


def terms(max_depth=3):
    leaves = st.one_of(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from(_VARS),
    )

    def extend(children):
        return st.builds(
            lambda f, args: Struct(f, tuple(args)),
            st.sampled_from(["f", "g"]),
            st.lists(children, min_size=1, max_size=2),
        )

    return st.recursive(leaves, extend, max_leaves=6)


# ----------------------------------------------------------------------


def test_unify_basics():
    x, y = fresh_var(), fresh_var()
    s = unify(Struct("f", (x, "b")), Struct("f", ("a", y)), EMPTY_SUBST)
    assert s is not None
    assert s.resolve(x) == "a"
    assert s.resolve(y) == "b"


def test_unify_failure_modes():
    assert unify("a", "b", EMPTY_SUBST) is None
    assert unify(Struct("f", (1,)), Struct("g", (1,)), EMPTY_SUBST) is None
    assert unify(Struct("f", (1,)), Struct("f", (1, 2)), EMPTY_SUBST) is None
    assert unify(1, "a", EMPTY_SUBST) is None


def test_unify_var_chains():
    x, y, z = fresh_var(), fresh_var(), fresh_var()
    s = unify(x, y, EMPTY_SUBST)
    s = unify(y, z, s)
    s = unify(z, 42, s)
    assert s.resolve(x) == 42


def test_occur_check():
    x = fresh_var()
    t = Struct("f", (x,))
    assert unify(x, t, EMPTY_SUBST) is not None  # default: no occur check
    assert unify(x, t, EMPTY_SUBST, occur_check=True) is None
    assert occurs_in(x, t, EMPTY_SUBST)
    assert not occurs_in(x, Struct("f", ("a",)), EMPTY_SUBST)


def test_subsumes_is_one_way():
    x = fresh_var()
    y = fresh_var()
    # a general variable binds
    assert subsumes(Struct("f", (x,)), Struct("f", ("a",)))
    # a specific variable does NOT bind: f(Y) is no instance of f(a)
    assert not subsumes(Struct("f", ("a",)), Struct("f", (y,)))


def _list(*items, tail="[]"):
    for item in reversed(items):
        tail = Struct(".", (item, tail))
    return tail


def test_subsumes_never_binds_a_specific_variable():
    x, t, c, y, t2 = (fresh_var() for _ in range(5))
    # m(X,[X|T]) would need X = C and X = Y: only by binding C to Y
    assert not subsumes(
        Struct("m", (x, _list(x, tail=t))),
        Struct("m", (c, _list(y, c, tail=t2))),
    )
    assert subsumes(
        Struct("m", (x, _list(x, tail=t))),
        Struct("m", (c, _list(c, tail=t2))),
    )


def test_subsumes_with_shared_variable_ids():
    x, y = fresh_var(), fresh_var()
    assert not subsumes(Struct("f", (x, x)), Struct("f", (x, y)))
    assert subsumes(Struct("f", (x, y)), Struct("f", (x, x)))
    assert subsumes(Struct("f", (x,)), Struct("f", (x,)))
    assert subsumes(Struct("f", (x, y)), Struct("f", (y, x)))


def _apply(theta, t):
    """``t`` with every variable replaced at once by its image (no chains)."""
    if isinstance(t, Var):
        return theta.get(t, t)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(_apply(theta, a) for a in t.args))
    return t


@given(terms(), st.dictionaries(st.sampled_from(_VARS), terms()))
def test_subsumes_every_instance(t, theta):
    assert subsumes(t, _apply(theta, t))


@given(terms(), terms())
def test_mutual_subsumption_is_variance(t1, t2):
    mutual = subsumes(t1, t2) and subsumes(t2, t1)
    assert mutual == (variant_key(t1) == variant_key(t2))


# NOTE: the property tests run with the occur check ON.  Without it,
# standard Prolog unification is subject-to-occurs-check incomplete:
# unify(X, f(X)) builds a cyclic binding whose resolve diverges — by
# design (same as real Prolog systems); covered by test_occur_check.


@given(terms(), terms())
def test_unifier_makes_terms_equal(t1, t2):
    s = unify(t1, t2, EMPTY_SUBST, occur_check=True)
    if s is not None:
        assert s.resolve(t1) == s.resolve(t2)


@given(terms(), terms())
def test_unify_symmetric(t1, t2):
    s12 = unify(t1, t2, EMPTY_SUBST, occur_check=True)
    s21 = unify(t2, t1, EMPTY_SUBST, occur_check=True)
    assert (s12 is None) == (s21 is None)
    if s12 is not None:
        # the two mgus may orient var-var bindings differently, but the
        # unified terms must be variants of each other
        from repro.terms import is_variant

        assert is_variant(s12.resolve(t1), s21.resolve(t2))


@given(terms())
def test_unify_reflexive(t):
    s = unify(t, t, EMPTY_SUBST)
    assert s is not None
    assert s.resolve(t) == EMPTY_SUBST.resolve(t)


@given(terms(), terms())
def test_unifier_is_stable(t1, t2):
    """Applying the unifier twice changes nothing (idempotence)."""
    s = unify(t1, t2, EMPTY_SUBST, occur_check=True)
    if s is not None:
        once = s.resolve(t1)
        assert s.resolve(once) == once


# ----------------------------------------------------------------------


def test_subst_persistence():
    x, y = fresh_var(), fresh_var()
    s1 = EMPTY_SUBST.bind(x, "a")
    s2 = s1.bind(y, "b")
    assert s1.lookup(y) is None
    assert s2.resolve(Struct("f", (x, y))) == Struct("f", ("a", "b"))
    # the original is untouched
    assert EMPTY_SUBST.lookup(x) is None


def test_subst_deep_chains_flatten():
    s = EMPTY_SUBST
    variables = [fresh_var() for _ in range(40)]
    for i, v in enumerate(variables):
        s = s.bind(v, i)
    for i, v in enumerate(variables):
        assert s.walk(v) == i
    # the depth bound counts unifications, each binding two variables
    s = EMPTY_SUBST
    pairs = [(fresh_var(), fresh_var()) for _ in range(1000)]
    for i, (x, y) in enumerate(pairs):
        s = unify(Struct("p", (x, y)), Struct("p", (i, Struct("s", (x,)))), s)
        assert s._depth <= _MAX_DEPTH
    for i, (x, y) in enumerate(pairs):
        assert s.walk(x) == i
        assert s.resolve(y) == Struct("s", (i,))


@pytest.mark.parametrize("unifier", [unify, abstract_unify])
def test_one_layer_per_unification(unifier):
    x, y, z = fresh_var(), fresh_var(), fresh_var()
    base = unify(x, "a", EMPTY_SUBST)
    s = unifier(Struct("f", (y, z)), Struct("f", ("b", Struct("g", (y,)))), base)
    assert s._parent is base and s._depth == base._depth + 1
    assert s.resolve(z) == Struct("g", ("b",))
    # binding nothing returns the input itself
    assert unifier(Struct("f", (x, "c")), Struct("f", ("a", "c")), base) is base
    # failing after a binding leaves the input as it was
    before = repr(base)
    assert unifier(Struct("f", ("c", y)), Struct("f", ("d", "b")), base) is None
    assert repr(base) == before and base.walk(y) is y


def test_abstract_unify_grounds_in_one_layer():
    y, z = fresh_var(), fresh_var()
    term = Struct("f", (y, Struct("g", (z, y))))
    for left, right in ((term, GAMMA), (GAMMA, term)):
        s = abstract_unify(left, right, EMPTY_SUBST)
        assert s._parent is EMPTY_SUBST
        assert (s.walk(y), s.walk(z)) == (GAMMA, GAMMA)
    assert abstract_unify(GAMMA, Struct("f", ("a",)), EMPTY_SUBST) is EMPTY_SUBST


def test_is_ground():
    x = fresh_var()
    s = EMPTY_SUBST
    assert s.is_ground(Struct("f", ("a", 1)))
    assert not s.is_ground(Struct("f", (x,)))
    assert s.bind(x, "a").is_ground(Struct("f", (x,)))
