import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import values_st
from setforge.errors import KindError
from setforge.values import (
    FIELD_ATOMS,
    Atom,
    IntV,
    SeqV,
    SetV,
    TupV,
    atom,
    infer_namespace,
    intv,
    tup,
    vset,
)

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


def _five_pattern_namespace(name):
    """The namespace rule as five separate anchored patterns, checked in turn."""
    if name in ("this", "env", "null") or re.match(r"(?:a|n)\d+$", name):
        return "addr"
    for ns, pattern in (("hash", r"h\d+$"), ("proof", r"pr\d+$"), ("tx", r"tx\d+$"),
                        ("opaque", r"u\d+$")):
        if re.match(pattern, name):
            return ns
    if name.endswith("Msg"):
        return "msg"
    if name in FIELD_ATOMS:
        return "field"
    return "opaque"


def test_namespace_rule_matches_five_separate_patterns():
    # \d takes any Unicode decimal digit and $ allows one trailing newline
    names = sorted(FIELD_ATOMS) + [
        "this", "env", "null", "fooMsg", "a1x", "n01", "pr", "tx7", "u3", "h1\n", "a\u0661",
        "a", "n", "h", "u", "tx", "prx1", "pr1\n\n", "this\n", "a1Msg", "tx1Msg", "\u0661",
    ]
    rng = random.Random(12)
    alphabet = "anhprtxuMsgbe01\u0661\u00b2\n_"
    names += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
              for _ in range(3000)]
    names += [rng.choice(["a", "n", "h", "pr", "tx", "u", "x"]) + str(rng.randint(0, 999))
              + rng.choice(["", "", "\n", "x", "Msg"]) for _ in range(1000)]
    for name in names:
        assert infer_namespace(name) == _five_pattern_namespace(name), repr(name)
    assert infer_namespace("h1\n") == "hash" and infer_namespace("a\u0661") == "addr"


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


def test_a_set_built_from_an_iterator_keeps_its_elements():
    assert SetV(x for x in [a1, a2]) == SetV([a1, a2])
    assert vset(iter([a1])) == vset([a1])
    assert SetV(iter([a2, a1, a2])).elems == SetV([a2, a1, a2]).elems == (a1, a2)


def test_int_requires_python_int():
    with pytest.raises(KindError):
        IntV("5")
    assert intv(2**80).n == 2**80


def test_values_are_immutable():
    # every class refuses every write and delete, its own slots included
    for v in (atom("a9"), intv(9), tup(a1, a2), vset([a1, a2]), SeqV([a1])):
        names = type(v).__slots__ + ("_key", "_hash", "other")
        before = {n: getattr(v, n) for n in names if hasattr(v, n)}
        for name in names:
            with pytest.raises(AttributeError, match=f"{type(v).__name__} is immutable"):
                setattr(v, name, a3)
            with pytest.raises(AttributeError, match=f"{type(v).__name__} is immutable"):
                delattr(v, name)
        assert {n: getattr(v, n) for n in names if hasattr(v, n)} == before


def test_the_hash_is_computed_once_and_remembered():
    v = vset([tup(a1, intv(2)), tup(a2, vset([a3]))])
    assert not hasattr(v, "_hash")  # most values are never hashed
    h = hash(v)
    assert v._hash == h == hash(v._key)
    object.__setattr__(v, "_hash", h + 1)  # later calls read the slot
    assert hash(v) == h + 1


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
