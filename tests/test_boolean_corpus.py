"""The search agrees with brute force on a seeded Boolean corpus.

The corpus is conjunctions of 2 to 6 set literals over A, B, C and D, each
declared a set of addr; a term is one of them (75 %) or else a literal set
of 0 to 2 of a1, a2 and a3, and in and nin take a literal atom.  At
atoms=card=2 every variable has four values, so a plain frozenset brute
force decides each conjunction, and a frozenset evaluator checks each Sat
witness.  Neither shares code with the solver.
"""

import itertools
import random

import pytest

from setforge import solver
from setforge import speclang as S
from setforge.formula import KINDS, C, Lit, Var, conj, free_vars
from setforge.universe import AtomS, Scope, SetS
from setforge.values import Atom, SetV

NAMES = "ABCD"
SORTS = {n: SetS(AtomS("addr")) for n in NAMES}
SCOPE = Scope(atoms_per_namespace=2, max_set_card=2)
LITERAL_ATOMS = ("a1", "a2", "a3")
CORPUS_KINDS = ("un", "diff", "inters", "subset", "disj", "eq", "neq",
                "nsubset", "ndisj", "in", "nin")

# sets are frozensets of atom names
RELATIONS = {
    "un": lambda a, b, c: a | b == c,
    "diff": lambda a, b, c: a - b == c,
    "inters": lambda a, b, c: a & b == c,
    "subset": lambda a, b: a <= b,
    "nsubset": lambda a, b: not a <= b,
    "disj": lambda a, b: not a & b,
    "ndisj": lambda a, b: bool(a & b),
    "eq": lambda a, b: a == b,
    "neq": lambda a, b: a != b,
    "in": lambda x, s: x in s,
    "nin": lambda x, s: x not in s,
}
VALUES = [frozenset(c) for n in range(3) for c in itertools.combinations(("a1", "a2"), n)]


def corpus(seed, n):
    """n conjunctions drawn from random.Random(seed)."""
    rng = random.Random(seed)

    def term():
        if rng.random() < 0.75:
            return Var(rng.choice(NAMES))
        chosen = rng.sample(LITERAL_ATOMS, rng.randrange(3))
        return Lit(SetV([Atom(a) for a in chosen]))

    out = []
    for _ in range(n):
        constraints = []
        for _ in range(rng.randrange(2, 7)):
            kind = rng.choice(CORPUS_KINDS)
            if kind in ("in", "nin"):
                constraints.append(C(kind, Lit(Atom(rng.choice(LITERAL_ATOMS))), term()))
            else:
                constraints.append(C(kind, *[term() for _ in range(KINDS[kind][0])]))
        out.append(conj(constraints))
    return out


def _plain(v):
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, SetV):
        return frozenset(map(_plain, v.elems))
    raise TypeError(v)


def _holds(f, env):
    (constraints,) = f.disjuncts
    return all(
        RELATIONS[c.kind](*(env[a.name] if isinstance(a, Var) else _plain(a.value) for a in c.args))
        for c in constraints
    )


def _brute_force(f):
    names = sorted(free_vars(f))
    return any(_holds(f, dict(zip(names, combo))) for combo in itertools.product(VALUES, repeat=len(names)))


def _agrees(f):
    """None when the solver's answer on f matches brute force, else why not."""
    got = solver.solve(f, SCOPE, sorts=SORTS)
    if isinstance(got, solver.Sat):
        env = {n: _plain(got.witness[n]) for n in free_vars(f)}
        if not all(v in VALUES for v in env.values()) or not _holds(f, env):
            return f"witness {env} fails {S.print_formula(f)}"
        return None
    if isinstance(got, solver.Unsat) and not _brute_force(f):
        return None
    return f"{type(got).__name__} on {S.print_formula(f)}"


# each of in, nin, subset, nsubset, disj, ndisj and neq with the variable it
# decides on either side, the other side ground or bound by an earlier
# literal, so that the search tests candidates against it (in with the
# variable on the left binds it to the set's members instead); the un and
# inters literals keep a decision open beside the tested one
ROWS = [
    "in(a1,A) & un(A,B,C) & C neq {a1,a2}",
    "in(A,{{a2},{a1,a2}}) & un(A,B,C) & nin(a2,C)",
    "nin(a2,A) & un(A,B,C) & in(a2,C) & B = {}",
    "nin(A,{{},{a1}}) & inters(A,B,C) & C = {}",
    "subset(A,{a1,a3}) & un(A,B,C) & A neq {} & C neq A",
    "subset({a1},A) & inters(A,B,C) & C = {a2}",
    "nsubset(A,{a1}) & un(A,B,C) & nsubset(C,{a2})",
    "nsubset({a1,a2},A) & un(A,B,C) & subset(C,{a2,a3})",
    "disj(A,{a1}) & un(A,B,C) & in(a1,C) & disj(B,{a1})",
    "disj({a2},A) & un(A,B,C) & A neq {} & C = A",
    "ndisj(A,{a1}) & ndisj(A,{a2}) & inters(A,B,C) & C neq A",
    "B = {a2} & ndisj(B,A) & un(A,C,D) & nin(a2,D)",
    "ndisj({a2,a3},A) & un(A,B,C) & C neq A",
    "A neq {} & A neq {a1} & A neq {a2} & un(A,B,C) & C neq {}",
    "neq({a1,a2},A) & neq({},A) & un(A,B,C) & subset(C,{a2})",
]


@pytest.mark.parametrize("text", ROWS)
def test_tested_kinds_agree_with_brute_force(text):
    assert _agrees(S.parse_formula(text)) is None


# the candidates each seed's corpus tries in all: a union's split is charged
# as one candidate, as a sort's value is
TRIED = {1: 1896, 2: 1900, 3: 2226}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corpus_agrees_with_brute_force(seed, count_tried):
    disagreements = [why for why in map(_agrees, corpus(seed, 300)) if why is not None]
    assert disagreements == [], disagreements[:5]
    assert count_tried[0] == TRIED[seed]
