"""Compile-time checks: the comprehension binder check that every Formula
runs, and the compiled problem that solve searches."""

import itertools
import random

import pytest

from setforge import _compile, goals, ttf
from setforge import speclang as S
from setforge.errors import FormulaError
from setforge.formula import (
    TRUE,
    C,
    Formula,
    Lit,
    RisT,
    SetT,
    TupT,
    Var,
    _scan,
    conj,
    conj_formulas,
    free_vars,
    negate,
)
from setforge.solver import Sat, Unsat, eval_ground_formula, solve
from setforge.universe import AtomS, Scope, SetS
from setforge.values import atom, intv, vset
from test_solver import brute_force_sat

A1 = Lit(atom("a1"))
_TINY = Scope(atoms_per_namespace=2, int_lo=0, int_hi=1, max_set_card=2)


def _ris(binder, domain, pattern=None, filter=TRUE):
    return RisT(binder, domain, filter, Var(binder) if pattern is None else pattern)


# -- the binder check ---------------------------------------------------------------


def test_binder_clash_names_the_shadowed_variables_sorted():
    constraints = [
        C("in", Var("Y"), Var("T")),
        C("in", A1, _ris("Y", Var("S"))),
        C("in", Var("X"), Var("T")),
        C("in", A1, _ris("X", Var("S"))),
    ]
    with pytest.raises(FormulaError) as e:
        conj(constraints)
    assert str(e.value) == "comprehension binder shadows free variable(s): ['X', 'Y']"


@pytest.mark.parametrize("src", [
    "in(a1,ris(X in S,[],true,X)) & in(X,T)",
    "in(X,T) & in(a1,ris(X in S,[],true,X))",
    # outermost means inside no other comprehension, even when nested in a term
    "in([1,ris(X in S,[],true,X)],R) & X = a1",
    "eq({a1/ris(X in S,[],true,X)},T) & in(X,T)",
])
def test_an_outermost_binder_free_in_another_constraint_clashes(src):
    with pytest.raises(FormulaError, match="binder shadows"):
        S.parse_formula(src)


@pytest.mark.parametrize("src", [
    # the inner comprehension reuses the outer one's binder
    "in(a1,ris(X in S,[],true,[X,ris(X in T,[],true,X)]))",
    "in(a1,ris(X in S,[],true,ris(X in X,[],true,X)))",
    # a nested binder may name a variable that is free elsewhere
    "in(a1,ris(X in S,[],true,[X,ris(Y in T,[],true,Y)])) & in(Y,U)",
    "in(a1,ris(X in ris(Y in S,[],true,Y),[],true,X)) & in(Y,T)",
])
def test_a_binder_reused_inside_a_nested_comprehension_is_allowed(src):
    S.parse_formula(src)


_NESTED_BINDER_SORTS = {"S": SetS(AtomS("addr")), "T": SetS(AtomS("addr")), "Y": AtomS("addr")}


@pytest.mark.parametrize("src", [
    "in(a1,ris(X in ris(Y in S,[],true,Y),[],true,X)) & in(Y,T)",
    "in(a1,ris(X in ris(Y in S,[],true,Y),[],true,X)) & in(Y,T) & nin(Y,S)",
    "in(a2,ris(X in ris(Y in S,[],nin(Y,T),Y),[],true,X)) & in(Y,T) & Y neq a2",
    "in(a1,ris(X in ris(Y in S,[],true,Y),[],true,X)) & in(Y,T) & Y neq a1 & nin(Y,S) & S = T",
    "nin(a1,ris(X in ris(Y in S,[],true,Y),[],true,X)) & in(Y,T) & in(a1,S)",
])
def test_a_lifted_comprehension_may_reuse_a_binder_free_elsewhere(src):
    # the compile lifts the inner comprehension into an equation of its own,
    # where Y is an outermost binder and free elsewhere; the formula passed
    # the binder check, so the Sat re-check must take the lifted conjunct
    f = S.parse_formula(src)
    r = solve(f, _TINY, _NESTED_BINDER_SORTS)
    assert isinstance(r, (Sat, Unsat))
    assert isinstance(r, Sat) == brute_force_sat(f, _TINY, _NESTED_BINDER_SORTS)
    if isinstance(r, Sat):
        assert eval_ground_formula(f, r.witness) is True


def test_a_filter_is_a_formula_of_its_own():
    # Y is free in the filter, where the inner comprehension is outermost
    with pytest.raises(FormulaError, match="binder shadows"):
        conj([C("in", Var("Y"), _ris("Y", Var("T")))])


def test_a_test_case_that_frees_a_body_binder_clashes_when_pruned():
    # the body binds _DomL1 and is a formula; override cases 4 to 8 add the
    # free name _DomL1 for the left domain of the oplus at index 1, and a
    # condition checks only what its case adds to the body
    body = conj([
        C("eq", Var("S"), _ris("_DomL1", Var("D"))),
        C("oplus", Var("R"), Var("G"), Var("H")),
    ])
    t = goals.Transition("t", ("R", "G", "D"), (), (), ("S", "H"), body, {})
    conds = ttf.instantiate_partition(ttf.find_occurrences(t)[0], t)
    assert len(ttf.prune(conds[:3], _TINY)) == 3
    for cond in conds[3:]:
        with pytest.raises(FormulaError) as full:
            conj(cond.body + cond.case_constraints)
        with pytest.raises(FormulaError) as pruned:
            ttf.prune([cond], _TINY)
        assert str(pruned.value) == str(full.value)
        assert str(full.value) == "comprehension binder shadows free variable(s): ['_DomL1']"
    with pytest.raises(FormulaError, match="not a Constraint"):
        conds[0].replace(case_constraints=("eq",)).formula


def test_equal_constraints_built_apart_hash_equal_before_and_after_a_first_hash():
    def build():
        return C("in", TupT((Var("X"), A1)), _ris("Y", SetT((A1,), Var("T"))))

    a, b = build(), build()
    assert a == b and a is not b
    first = hash(a)
    assert hash(b) == first  # b is hashed for the first time, a remembers its hash
    assert hash(a) == hash(b) == first
    assert hash(build()) == first
    assert hash(C("nin", *a.args)) != first


# -- the term walker: free names, atoms, binders and set terms -------------------------


def test_free_names_come_in_first_occurrence_order_across_constraints():
    d = S.parse_formula("in(B,A) & un(C,A,D) & in([D,B],E)").disjuncts[0]
    assert free_vars(Formula((d,))) == ["B", "A", "C", "D", "E"]
    assert [names for names, _, _ in _scan([c.args for c in d])] == [
        ["B", "A"], ["C", "A", "D"], ["D", "B", "E"]]
    assert _compile._compile(d, {}).caller == ("B", "A", "C", "D", "E")


def test_a_binder_is_bound_in_its_filter_and_pattern_but_free_in_its_own_domain():
    t = _ris("X", Var("X"), TupT([Var("X"), Var("Z")]), conj([C("in", Var("X"), Var("Y"))]))
    binders = set()
    assert _scan([[t]], binders) == [(["X", "Y", "Z"], None, 1)]
    assert binders == {("X", True)}
    assert _scan([[_ris("X", Var("S"), TupT([Var("X"), Var("Z")]))]]) == [(["S", "Z"], None, 1)]


def test_atoms_inside_filters_and_patterns_are_found():
    a2, a3 = Lit(atom("a2")), Lit(vset([atom("a3")]))
    t = _ris("X", Var("S"), TupT([Var("X"), a2]), conj([C("in", Var("X"), a3)]))
    ((_, atoms, _),) = _scan([[A1, t]], atoms=True)
    assert atoms == {atom("a1"), atom("a2"), atom("a3")}


def test_every_binder_is_found_and_the_outermost_ones_are_marked():
    (d,) = S.parse_formula(
        "in(a1,ris(X in ris(Y in S,[],true,Y),[],true,[X,ris(Z in T,[],true,Z)]))").disjuncts
    binders = set()
    _scan([c.args for c in d], binders)
    assert binders == {("X", True), ("Y", False), ("Z", False)}


@pytest.mark.parametrize("src, sets, lifted", [
    ("A = ris(X in S,[],true,X)", 1, False),
    # only an eq keeps one in place, the first: no neq operand stays
    ("{a1/T} neq A", 1, True),
    ("{a1/T} = ris(X in S,[],true,X)", 2, True),
    ("A = [1,ris(X in S,[],true,X)]", 1, True),
    ("A = ris(X in {a1/T},[],true,X)", 2, True),
    ("in(a1,ris(X in S,[],true,X))", 1, True),
    # inside a filter or a pattern nothing is counted or lifted
    ("in(a1,ris(X in S,[],X = {a1/T},[X,{a2/T}]))", 1, True),
    ("A = ris(X in S,[],X = {a1/T},[X,{a2/T}])", 1, False),
])
def test_a_set_term_operand_of_eq_stays_and_a_nested_one_is_lifted(src, sets, lifted):
    (d,) = S.parse_formula(src).disjuncts
    assert _scan([d[0].args]) == [(free_vars(Formula((d,))), None, sets)]
    p = _compile._compile(d, {})
    assert (p.compiled != d) == lifted
    if lifted:
        assert [c.kind for c in p.compiled] == ["eq"] * (len(p.compiled) - 1) + [d[0].kind]


@pytest.mark.parametrize("bad", [
    TupT([Var("X"), "a1"]),
    SetT([Var("X")], 3),
    _ris("Y", SetT([None]), Var("Y")),
])
def test_a_non_term_inside_a_comprehension_raises_when_the_formula_is_built(bad):
    with pytest.raises(FormulaError, match="not a term"):
        conj([C("in", A1, _ris("X", Var("S"), bad))])


@pytest.mark.parametrize("binder,domain,filter,pattern", [
    (3, Var("S"), TRUE, Var("X")),
    ("", Var("S"), TRUE, Var("X")),
    ("X", "S", TRUE, Var("X")),
    ("X", Var("S"), TRUE, atom("a1")),
    ("X", Var("S"), None, Var("X")),
    ("X", Var("S"), TRUE.disjuncts, Var("X")),
])
def test_a_comprehension_checks_its_parts_when_it_is_built(binder, domain, filter, pattern):
    with pytest.raises(FormulaError, match="comprehension"):
        RisT(binder, domain, filter, pattern)


@pytest.mark.parametrize("name", [3, b"X", ("X",), None, ""])
def test_a_variable_name_is_a_non_empty_str(name):
    with pytest.raises(FormulaError, match="variable name"):
        Var(name)


# -- the compiled problem --------------------------------------------------------------


def _shipped_conjuncts():
    """(label, conjunct, declared sorts) of every shipped goal's refutation
    and every `mbt --all` test condition."""
    for name in ("psd-psas-disjoint", "checkpoint-pfun"):
        goal = goals.get_goal(name)
        refutation = conj_formulas([goal.hypothesis, negate(goal.conclusion)])
        for i, d in enumerate(refutation.disjuncts):
            yield f"{name}:{i}", d, goal.sorts
    for name in ("rcv_addr", "checkpoint_state"):
        t = goals.get_transition(name)
        for occ in ttf.find_occurrences(t):
            for c in ttf.instantiate_partition(occ, t):
                (d,) = c.formula.disjuncts
                yield f"{name}:{occ.operator}{occ.ordinal}:{c.case.index}", d, c.sorts


class _Conjuncts:
    """Seeded conjuncts with comprehensions and open extensions everywhere:
    as eq operands, where the first one stays, as neq operands and nested
    in tuples, sets, comprehension domains and the arguments of other
    kinds, where the compile lifts them.  A comprehension at depth k binds
    Zk, which occurs only inside it, so every conjunct passes the binder
    check."""

    VARS = ("A", "B", "C", "_E1")
    KINDS = {"eq": "tt", "neq": "tt", "in": "ts", "nin": "ts", "subset": "ss",
             "disj": "ss", "un": "sss", "dom": "ss", "apply": "stt"}

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def var(self):
        return Var(self.rng.choice(self.VARS))

    def term(self, depth):
        r = self.rng
        pick = r.randrange(4) if depth < 3 else r.randrange(2)
        if pick == 0:
            return self.var()
        if pick == 1:
            return Lit(r.choice([atom("a1"), atom("a2"), intv(2), vset([atom("a3")])]))
        if pick == 2:
            return TupT([self.term(depth + 1), self.term(depth + 1)])
        return self.set_term(depth)

    def set_term(self, depth):
        r = self.rng
        pick = r.randrange(4) if depth < 3 else 0
        if pick == 0:
            return self.var()
        if pick == 1:
            return SetT([self.term(depth + 1) for _ in range(r.randrange(3))])
        if pick == 2:
            return SetT([self.term(depth + 1)], self.set_term(depth + 1))
        z = Var(f"Z{depth}")
        filt = TRUE if r.random() < 0.4 else conj([C("in", z, self.set_term(depth + 1))])
        pattern = r.choice([z, TupT([z, self.term(depth + 1)]), SetT([z], self.set_term(depth + 1))])
        return RisT(z.name, self.set_term(depth + 1), filt, pattern)

    def conjunct(self):
        out = []
        for _ in range(self.rng.randrange(1, 5)):
            kind, shape = self.rng.choice(list(self.KINDS.items()))
            out.append(C(kind, *(self.set_term(0) if s == "s" else self.term(0) for s in shape)))
        return tuple(out)


# the pattern-clash rule replaces X = Y and subset(X,Y) by equations on {}
_CLASHES = {
    f"clash:{rel}": S.parse_formula(
        f"X = ris(Z in D,[],true,[Z,0]) & Y = ris(Z in E,[],true,[Z,{{a1}}]) & {rel}"
    ).disjuncts[0]
    for rel in ("X = Y", "subset(X,Y)")
}
_RANDOM = _Conjuncts(seed=20261019)
CONJUNCTS = {
    **{label: (d, sorts) for label, d, sorts in _shipped_conjuncts()},
    **{label: (d, {}) for label, d in _CLASHES.items()},
    **{f"random:{i}": (_RANDOM.conjunct(), {}) for i in range(240)},
}


@pytest.mark.parametrize("label", list(CONJUNCTS))
def test_compiled_problem_matches_the_formula_walker(label):
    conjunct, sorts = CONJUNCTS[label]
    p = _compile._compile(conjunct, sorts)
    assert list(p.caller) == free_vars(Formula((conjunct,)))
    if p.constraints is not None:
        assert len(p.free) == len(p.atoms) == len(p.constraints)
        assert list(p.sorts) == list(dict.fromkeys(itertools.chain(p.caller, *p.free)))
    assert _compile._compile(conjunct, sorts) == p


def test_the_conjuncts_take_every_path_of_the_compile():
    problems = {label: _compile._compile(d, s) for label, (d, s) in CONJUNCTS.items()}
    lifted = [p for label, p in problems.items() if len(p.compiled) > len(CONJUNCTS[label][0])]
    assert len(lifted) >= 200
    assert sum(p.constraints is None for p in problems.values()) >= 6
    for label in _CLASHES:
        p = problems[label]
        assert p.constraints != p.compiled and p.constraints[-1].args[1] == Lit(vset())


def test_lifted_set_terms_get_fresh_names_inner_ones_first():
    # _E1 is taken; a set term is named before the ones in its tail are
    # lifted, and a comprehension before the ones in its domain
    (d,) = S.parse_formula(
        "in(_E1,{a1/{a2/T}}) & subset(ris(X in {a3/U},[],true,[X,{X/V}]),W)"
    ).disjuncts
    p = _compile._compile(d, {})
    assert S.print_formula(Formula((p.compiled,))) == (
        "_E3 = {a2/T} & _E2 = {a1/_E3} & in(_E1,_E2) & _E5 = {a3/U} & "
        "_E4 = ris(X in _E5,[],true,[X,{X/V}]) & subset(_E4,W)"
    )
    assert p.caller == ("_E1", "T", "U", "V", "W")
