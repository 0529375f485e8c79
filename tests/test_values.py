import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import values_st
from setforge.errors import KindError
from setforge.values import Atom, IntV, SeqV, SetV, TupV, atom, intv, tup, vset

a1, a2, a3 = atom("a1"), atom("a2"), atom("a3")


def test_namespace_inference():
    assert atom("a7").ns == "addr"
    assert atom("n2").ns == "addr"
    assert atom("this").ns == "addr"
    assert atom("h1").ns == "hash"
    assert atom("pr1").ns == "proof"
    assert atom("tx3").ns == "tx"
    assert atom("addrMsg").ns == "msg"
    assert atom("as").ns == "field"
    assert atom("whatever").ns == "opaque"


def test_given_sets_pairwise_disjoint():
    # same name in different namespaces is a different atom
    assert Atom("x", "hash") != Atom("x", "proof")
    assert Atom("a1", "addr") == atom("a1")


def test_set_equality_order_insensitive():
    assert vset([a2, a1, a3]) == vset([a1, a2, a3])
    assert vset([a1, a1, a2]) == vset([a2, a1])


def test_seq_and_tuple_order_sensitive():
    assert SeqV([a1, a2]) != SeqV([a2, a1])
    assert tup(a1, a2) != tup(a2, a1)


def test_tuple_needs_two_components():
    with pytest.raises(KindError):
        TupV([a1])


def test_set_rejects_non_values():
    with pytest.raises(KindError):
        SetV([1, 2])


def test_int_requires_python_int():
    with pytest.raises(KindError):
        IntV("5")
    assert intv(2**80).n == 2**80


def test_values_are_immutable():
    with pytest.raises(AttributeError):
        a1.name = "a9"


def test_total_order_is_strict_and_consistent():
    items = [intv(3), a1, vset([a1]), SeqV([a1]), tup(a1, a2), intv(-1), a3]
    ordered = sorted(items)
    for x, y in zip(ordered, ordered[1:]):
        assert x < y or x == y


@given(values_st(), values_st())
def test_equality_agrees_with_key(x, y):
    assert (x == y) == (x._key == y._key)
    if x == y:
        assert hash(x) == hash(y)
    for v in (x, y):
        assert hash(v) == hash(v._key)
        assert hash(v) == hash(v._key)  # the remembered hash


@given(st.lists(values_st(max_leaves=6), max_size=5))
def test_set_construction_dedupes(elems):
    s = SetV(elems)
    assert len(set(s.elems)) == len(s.elems)
    for e in elems:
        assert e in s
