import random

import pytest
from hypothesis import strategies as st

from setforge import solver
from setforge.values import SeqV, SetV, TupV, atom, intv

ATOM_NAMES = ["a1", "a2", "a3", "h1", "tx1", "u1", "u2", "this"]


def atoms_st():
    return st.sampled_from(ATOM_NAMES).map(atom)


def values_st(max_leaves=12):
    base = atoms_st() | st.integers(-4, 20).map(intv)
    return st.recursive(
        base,
        lambda children: (
            st.lists(children, min_size=2, max_size=4).map(TupV)
            | st.lists(children, max_size=4).map(SetV)
            | st.lists(children, max_size=4).map(SeqV)
        ),
        max_leaves=max_leaves,
    )


class ValueGen:
    """Seeded deterministic value generator for oracle-comparison tests."""

    def __init__(self, seed=20240811):
        self.rng = random.Random(seed)

    def atom(self):
        return atom(self.rng.choice(ATOM_NAMES))

    def base(self):
        if self.rng.random() < 0.5:
            return self.atom()
        return intv(self.rng.randrange(-3, 12))

    def value(self, depth=2):
        if depth == 0 or self.rng.random() < 0.45:
            return self.base()
        kind = self.rng.choice(["tuple", "set", "seq"])
        n = self.rng.randrange(0, 4)
        elems = [self.value(depth - 1) for _ in range(n)]
        if kind == "tuple":
            while len(elems) < 2:
                elems.append(self.base())
            return TupV(elems)
        if kind == "set":
            return SetV(elems)
        return SeqV(elems)

    def value_set(self, max_card=4, depth=1):
        return SetV([self.value(depth) for _ in range(self.rng.randrange(0, max_card + 1))])

    def relation(self, max_card=4, depth=1):
        pairs = [
            TupV((self.base(), self.value(depth)))
            for _ in range(self.rng.randrange(0, max_card + 1))
        ]
        return SetV(pairs)


@pytest.fixture
def gen():
    return ValueGen()


@pytest.fixture
def count_nodes(monkeypatch):
    """Counts decision nodes by wrapping the search state's tick."""
    counter = [0]

    class CountingState(solver._State):
        def tick(self):
            counter[0] += 1
            super().tick()

    monkeypatch.setattr(solver, "_State", CountingState)
    return counter


@pytest.fixture
def count_tried(monkeypatch):
    """Counts the candidates the search tries, tested or not, by wrapping
    the search state's charge to the budget."""
    counter = [0]

    class CountingState(solver._State):
        def charge(self):
            counter[0] += 1
            super().charge()

    monkeypatch.setattr(solver, "_State", CountingState)
    return counter
