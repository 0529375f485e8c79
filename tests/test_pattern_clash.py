"""Comprehensions whose patterns clash are refuted before search.

Two variables defined by comprehensions whose patterns can never denote the
same value hold disjoint sets in every scope, so the solver rewrites
ndisj, eq and subset between them at compile time.  These tests hold the
rule to a plain-Python oracle, check that it never fires on patterns that
meet through a variable or a set term, and pin what it buys on the shipped
goal.
"""

import itertools
import random

import pytest

from setforge import _compile, goals, solver
from setforge import speclang as S
from setforge.cli import main
from setforge.formula import TRUE, C, Lit, RisT, conj, conj_formulas, free_vars, negate
from setforge.solver import Counterexample, Sat, Unknown, eval_ground_formula, prove_implication
from setforge.universe import AtomS, IntS, Scope, SetS
from setforge.values import EMPTY_SET

# pattern source -> the value it denotes, as plain Python data, for binder z
# and free variable x: atoms are their names, tuples are tuples, sets are
# frozensets
PATTERNS = {
    "Z": lambda z, x: z,
    "[Z,X]": lambda z, x: (z, x),
    "[Z,0]": lambda z, x: (z, 0),
    "[Z,1]": lambda z, x: (z, 1),
    "[Z,connectMsg]": lambda z, x: (z, "connectMsg"),
    "[Z,addrMsg(X)]": lambda z, x: (z, ("addrMsg", x)),
    "[Z,X,0]": lambda z, x: (z, x, 0),
    "{Z}": lambda z, x: frozenset([z]),
    "{Z,X}": lambda z, x: frozenset([z, x]),
    "a1": lambda z, x: "a1",
    "[a1,0]": lambda z, x: ("a1", 0),
    "X": lambda z, x: x,
}

RELATIONS = {
    "ndisj": lambda p, q: bool(p & q),
    "eq": lambda p, q: p == q,
    "subset": lambda p, q: p <= q,
    "nsubset": lambda p, q: not p <= q,
    "disj": lambda p, q: not p & q,
    "neq": lambda p, q: p != q,
}

SIDES = {
    None: lambda p: True,
    "eq": lambda p: p == frozenset(),
    "neq": lambda p: p != frozenset(),
}

ATOMS = ("a1", "a2")
DOMAINS = [frozenset(c) for n in range(3) for c in itertools.combinations(ATOMS, n)]
SCOPE = Scope(atoms_per_namespace=2, int_lo=0, int_hi=1, max_set_card=2, max_seq_len=1)
DOMAIN_SORTS = {"D1": SetS(AtomS("addr")), "D2": SetS(AtomS("addr"))}
X_SORTS = {"int": (IntS(), (0, 1)), "addr": (AtomS("addr"), ATOMS)}


def _draw(rng):
    """One formula relating two comprehension-defined sets P and Q, and the
    plain-Python description the oracle evaluates."""
    case = {
        "pats": (rng.choice(list(PATTERNS)), rng.choice(list(PATTERNS))),
        "doms": ("D1", rng.choice(["D1", "D2"])),
        "rel": rng.choice(list(RELATIONS)),
        "flip": rng.random() < 0.5,
        "side": rng.choice(list(SIDES)),
        "x": rng.choice(list(X_SORTS)),
    }
    defs = [
        C("eq", S.parse_term(name), RisT("Z", S.parse_term(dom), TRUE, S.parse_term(pat)))
        for name, dom, pat in zip("PQ", case["doms"], case["pats"])
    ]
    a, b = S.parse_term("Q"), S.parse_term("P")
    if not case["flip"]:
        a, b = b, a
    cs = defs + [C(case["rel"], a, b)]
    if case["side"] is not None:
        cs.append(C(case["side"], S.parse_term("P"), Lit(EMPTY_SET)))
    return conj(cs), case


def _oracle(case):
    """Whether some domains and value of X satisfy the case, computing P and
    Q directly from their definitions."""
    fp, fq = (PATTERNS[p] for p in case["pats"])
    rel, side = RELATIONS[case["rel"]], SIDES[case["side"]]
    for d1, d2, x in itertools.product(DOMAINS, DOMAINS, X_SORTS[case["x"]][1]):
        doms = {"D1": d1, "D2": d2}
        p = frozenset(fp(z, x) for z in doms[case["doms"][0]])
        q = frozenset(fq(z, x) for z in doms[case["doms"][1]])
        if (rel(q, p) if case["flip"] else rel(p, q)) and side(p):
            return True
    return False


def test_clash_rule_matches_a_plain_python_oracle(monkeypatch):
    # a kept compile skips _rewrite: start with none, so every draw's
    # first solve is compiled and counted
    solver._compiled.cache_clear()
    fired = [0]
    rule = _compile._rewrite

    def counting(constraints, declared):
        out = rule(constraints, declared)
        fired[0] += out is None or out != constraints
        return out

    monkeypatch.setattr(_compile, "_rewrite", counting)
    rng = random.Random(20170806)
    disagreements = []
    runs = 800
    for i in range(runs):
        f, case = _draw(rng)
        declared = dict(DOMAIN_SORTS, X=X_SORTS[case["x"]][0])
        sorts = {v: declared[v] for v in free_vars(f) if v in declared}
        got = solver.solve(f, SCOPE, sorts=sorts)
        expected = _oracle(case)
        if isinstance(got, Unknown) or isinstance(got, Sat) != expected:
            disagreements.append((i, type(got).__name__, S.print_formula(f)))
        elif expected:
            assert eval_ground_formula(f, got.witness) is True
    assert disagreements == [], disagreements[:5]
    # the rule fired on 110 of them
    assert fired[0] >= 100, fired[0]


@pytest.mark.parametrize(
    "p,q",
    [
        ("{Z}", "{Z,X}"),
        ("[Z,X]", "[Z,0]"),
        ("[Z,addrMsg(X)]", "[Z,X]"),
        ("{Z,connectMsg}", "{Z,addrMsg(X)}"),
        ("X", "[Z,connectMsg]"),
        ("X", "a1"),
        ("X", "{Z}"),
        ("[a1,0]", "[Z,0]"),
        ("a1", "Z"),
    ],
)
def test_patterns_that_can_meet_are_never_apart(p, q):
    for a, b in ((p, q), (q, p)):
        assert not _compile._clash(S.parse_term(a), S.parse_term(b))


@pytest.mark.parametrize(
    "p,q",
    [
        ("[Z,connectMsg]", "[Z,addrMsg(X)]"),
        ("[Z,0]", "[Z,1]"),
        ("[Z,X]", "[Z,X,0]"),
        ("[a1,0]", "[Z,1]"),
        ("a1", "[Z,X]"),
        ("a1", "0"),
    ],
)
def test_patterns_that_cannot_meet_are_apart(p, q):
    for a, b in ((p, q), (q, p)):
        assert _compile._clash(S.parse_term(a), S.parse_term(b))


def _psd_psas_refutation(goal):
    return conj_formulas([goal.hypothesis, negate(goal.conclusion)])


def test_falsified_disjointness_still_has_a_counterexample():
    """PsAs built like PsD (ending in connectMsg, over Asm) overlaps it."""
    g = goals.get_goal("psd-psas-disjoint")
    body = []
    for c in g.hypothesis.disjuncts[0]:
        if c.args[0] == S.parse_term("PsAs"):
            ris = c.args[1]
            c = C("eq", c.args[0], RisT(ris.binder, S.parse_term("Asm"), ris.filter,
                                        S.parse_term("[this,A,connectMsg]")))
        body.append(c)
    hyp = conj(body)
    r = prove_implication(hyp, g.conclusion, SCOPE, sorts=g.sorts)
    assert isinstance(r, Counterexample)
    assert eval_ground_formula(conj_formulas([hyp, negate(g.conclusion)]), r.witness) is True


def test_disjointness_proof_takes_no_decision_nodes(count_nodes):
    g = goals.get_goal("psd-psas-disjoint")
    scope = Scope(atoms_per_namespace=6, max_set_card=6)
    r = solver.solve(_psd_psas_refutation(g), scope, sorts=g.sorts)
    assert isinstance(r, solver.Unsat)
    assert count_nodes[0] == 0


def test_disjointness_is_verified_at_a_large_scope(capsys):
    code = main(["prove", "--goal", "psd-psas-disjoint", "--scope", "atoms=1000,card=1000"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        0,
        "Verified (scope: atoms=1000, ints=0..8, card=1000, seq=4)\n",
        "",
    )
