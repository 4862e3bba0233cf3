"""Unit tests for the term representation layer."""

import pytest

from repro.terms import (
    Var,
    Struct,
    fresh_var,
    make_list,
    list_elements,
    is_list,
    term_variables,
    term_depth,
    term_size,
    term_functor,
    term_to_str,
)
from repro.terms.term import printed_size


def test_var_identity():
    a, b = fresh_var("X"), fresh_var("X")
    assert a != b
    assert a == Var(a.id)
    assert hash(a) == hash(Var(a.id))
    assert a.display() == "X"
    assert Var(99).display() == "_G99"


def test_struct_equality_and_hash():
    t1 = Struct("f", ("a", 1))
    t2 = Struct("f", ("a", 1))
    t3 = Struct("f", ("a", 2))
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != t3
    assert t1.indicator == ("f", 2)


def test_struct_requires_args():
    with pytest.raises(ValueError):
        Struct("f", ())


def test_make_list_roundtrip():
    xs = make_list([1, 2, 3])
    elements, tail = list_elements(xs)
    assert elements == [1, 2, 3]
    assert tail == "[]"
    assert is_list(xs)


def test_partial_list():
    tail_var = fresh_var("T")
    xs = make_list(["a"], tail_var)
    elements, tail = list_elements(xs)
    assert elements == ["a"]
    assert tail == tail_var
    assert not is_list(xs)


def test_term_variables_order_and_dedup():
    x, y = fresh_var("X"), fresh_var("Y")
    t = Struct("f", (x, Struct("g", (y, x))))
    assert term_variables(t) == [x, y]


def test_term_depth_and_size():
    assert term_depth("a") == 0
    assert term_depth(Struct("f", ("a",))) == 1
    nested = Struct("f", (Struct("g", (Struct("h", (1,)),)),))
    assert term_depth(nested) == 3
    assert term_size(nested) == 4
    assert term_size("a") == 1


def test_term_functor():
    assert term_functor("a") == ("a", 0)
    assert term_functor(7) == (7, 0)
    assert term_functor(Struct("f", (1, 2))) == ("f", 2)
    assert term_functor(fresh_var()) == (None, 0)


def test_term_to_str_atoms_need_quotes():
    assert term_to_str("abc") == "abc"
    assert term_to_str("hello world") == "'hello world'"
    assert term_to_str("Upper") == "'Upper'"
    assert term_to_str("[]") == "[]"
    assert term_to_str("+") == "+"
    assert term_to_str("it's") == "'it\\'s'"


def test_term_to_str_lists_and_structs():
    assert term_to_str(make_list([1, 2])) == "[1,2]"
    t = make_list([1], fresh_var("T"))
    assert term_to_str(t) == "[1|T]"
    assert term_to_str(Struct("f", ("a", 1))) == "f(a,1)"


def test_printed_size_is_the_canonical_variant_printed():
    x, y = fresh_var("X"), fresh_var()
    term = Struct("f", (x, make_list([y, "it's", 12], x), Struct("g", (y,))))
    # variables print as _G0, _G1 in first-occurrence order
    assert printed_size(term) == len("f(_G0,[_G1,'it\\'s',12|_G0],g(_G1))")
    renamed = Struct("f", (Var(10**9), make_list([Var(7), "it's", 12], Var(10**9)),
                           Struct("g", (Var(7),))))
    assert printed_size(renamed) == printed_size(term)
    assert printed_size(make_list([1, 2])) == len(term_to_str(make_list([1, 2])))
    assert printed_size("[]") == 2 and printed_size(-5) == 2
