"""The immutable-record base behaves as the frozen dataclasses it replaced,
and importing the command line loads no code generator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from setforge import goals, ttf
from setforge._frozen import Frozen
from setforge.errors import KindError
from setforge.solver import Sat, Unknown, Unsat
from setforge.universe import AnyS, AtomS, IntS, RecordS, RelS, Scope, SeqS, SetS, TupleS
from setforge.values import IntV, vset

REPO = Path(__file__).resolve().parent.parent
TINY = Scope(atoms_per_namespace=2, int_lo=0, int_hi=3, max_set_card=2, max_seq_len=2)


class _Base(Frozen):
    a: int
    b: str = "b"


class _Child(_Base):
    c: tuple = ()


def test_fields_come_in_order_with_inherited_ones_first():
    assert _Child._fields == ("a", "b", "c")
    r = _Child(1, "x", (2,))
    assert (r.a, r.b, r.c) == (1, "x", (2,))


def test_defaults_and_keywords():
    assert _Child(1) == _Child(a=1, b="b", c=())
    assert _Child(1, c=(3,)).c == (3,)
    assert Scope(atoms_per_namespace=2).int_hi == Scope().int_hi == 8
    assert Scope(2, 0, 3, 2, 1) == Scope(atoms_per_namespace=2, int_hi=3, max_set_card=2,
                                         max_seq_len=1)


@pytest.mark.parametrize("call", [
    lambda: _Child(),
    lambda: _Child(1, "x", (), 4),
    lambda: _Child(1, d=2),
    lambda: _Child(1, a=2),
])
def test_a_bad_call_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_equality_holds_only_within_one_class():
    assert IntS() == IntS()
    assert IntS() != AnyS()
    assert SetS(IntS()) != SetS(AnyS())
    assert _Base(1) != _Child(1)
    assert RelS(AtomS("addr"), IntS()) == RelS(AtomS("addr"), IntS())
    assert IntS() != ()


def test_equal_records_hash_equal():
    a, b = RelS(AtomS("addr"), IntS()), RelS(AtomS("addr"), IntS())
    assert a is not b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert len({IntS(), IntS(), AnyS()}) == 2


def test_fields_cannot_be_assigned_or_deleted():
    s = Scope()
    with pytest.raises(AttributeError):
        s.int_hi = 3
    with pytest.raises(AttributeError):
        s.other = 3
    with pytest.raises(AttributeError):
        del s.int_hi
    assert s.int_hi == 8


def test_repr_is_the_dataclass_form():
    assert repr(Unknown("no")) == "Unknown(reason='no')"
    assert repr(Unsat()) == "Unsat()"
    assert repr(TINY) == (
        "Scope(atoms_per_namespace=2, int_lo=0, int_hi=3, max_set_card=2, max_seq_len=2)"
    )
    assert repr(Sat({"X": IntV(1)})) == "Sat(witness={'X': IntV(1)})"
    assert repr(SetS(AtomS("addr"))) == "SetS(elem=AtomS(ns='addr'))"


@pytest.mark.parametrize("build", [
    lambda: Scope(int_lo=5, int_hi=1),
    lambda: Scope(atoms_per_namespace=-1),
    lambda: AtomS("bogus"),
    lambda: TupleS((IntS(),)),
    # a sort is built of sorts only, so it always hashes and compares
    lambda: SetS([]),
    lambda: SeqS("addr"),
    lambda: RelS(IntS(), None),
    lambda: TupleS((IntS(), [])),
    lambda: TupleS([IntS(), IntS()]),
    lambda: RecordS((("bal", 3),)),
    lambda: RecordS((("bal", IntS(), IntS()),)),
])
def test_post_init_checks_still_raise(build):
    with pytest.raises(KindError):
        build()


def test_replace_changes_only_the_named_fields():
    r = _Child(1, "x", (2,))
    assert r.replace(b="y") == _Child(1, "y", (2,))
    assert r == _Child(1, "x", (2,))
    with pytest.raises(KindError):
        TINY.replace(int_lo=9)
    with pytest.raises(TypeError):
        r.replace(d=1)


def test_prune_keeps_every_other_field_of_a_condition():
    t = goals.get_transition("checkpoint_state")
    occ = ttf.find_occurrences(t, "oplus")[0]
    conds = ttf.instantiate_partition(occ, t)
    pruned = ttf.prune(conds, TINY)
    assert len(pruned) == len(conds)
    for before, after in zip(conds, pruned):
        assert before.status is None and after.status is not None
        for name in ttf.TestCondition._fields:
            if name != "status":
                assert getattr(after, name) is getattr(before, name), name


def test_a_witness_holds_its_values():
    got = Sat({"X": vset([IntV(0)])})
    assert got and got.witness == {"X": vset([IntV(0)])}
    assert not Unsat() and not Unknown("x")


def test_importing_the_command_line_loads_no_code_generator():
    """dataclasses, and the inspect module it imports, cost about a quarter
    of the package's import time; sys.modules is compared before and after
    the import, so what the interpreter's start-up loads does not count."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import setforge.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
