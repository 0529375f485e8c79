"""The compile-time rewriting pass refutes some conjuncts in every scope.

Besides the pattern-clash rule (tests/test_pattern_clash.py), the solver's
rewriting pass joins variables that must be equal (eq between variables,
dom of one relation), knows the domain of a listed pair, turns disj,
ndisj, subset and nsubset against a singleton into membership facts, and
closes partial functions under one-pair extensions, oplus and dres.  It
only refutes: a conjunct it cannot refute is searched as before.  These
tests hold every rule to a plain-Python oracle and to brute-force
enumeration, keep falsified variants of the shipped goals falsifiable,
and pin what the rules buy on those goals.
"""

import itertools
import random

import pytest
from test_solver import brute_force_sat

from setforge import _compile, goals, solver, ttf
from setforge import speclang as S
from setforge.cli import main
from setforge.formula import C, Formula, SetT, TupT, Var, conj, conj_formulas, free_vars, negate
from setforge.solver import Counterexample, Sat, Unknown, eval_ground_formula, prove_implication
from setforge.universe import AtomS, IntS, RelS, Scope, SetS
from setforge.values import Atom, IntV, SetV, TupV

ADDR = AtomS("addr")
SORTS = {
    "X": SetS(ADDR),
    "Y": SetS(ADDR),
    "D": SetS(ADDR),
    "E": SetS(ADDR),
    "V": ADDR,
    "N": IntS(),
    "R": RelS(ADDR, IntS()),
    "Q": RelS(ADDR, IntS()),
    "G": RelS(ADDR, IntS()),
}
SCOPE = Scope(atoms_per_namespace=2, int_lo=0, int_hi=1, max_set_card=2, max_seq_len=1)


# -- seeded conjunctions, one family per rule -------------------------------------------


def _elem(r):
    return r.choice(["V", "a1", "a2"])


def _again(r, e):
    """e again, or sometimes another element, so that a rule keyed on
    equal elements fires on most draws but not on all."""
    return e if r.random() < 0.6 else _elem(r)


def _links(r, a, b, via):
    """Constraints that join a and b through eq, directly or through via,
    or, as a near miss, only through subset."""
    return r.choice([
        [f"eq({a},{b})"],
        [f"eq({b},{a})"],
        [f"eq({a},{via})", f"eq({via},{b})"],
        [f"subset({a},{b})"],
    ])


def _congruence(r):
    e = _elem(r)
    return _links(r, "X", "Y", "D") + [f"in({e},X)", f"nin({_again(r, e)},Y)"]


def _dom_congruence(r):
    outputs = ["dom(R,D)", r.choice(["dom(R,E)", "dom(Q,E)"])]
    if r.random() < 0.5:
        outputs.append(r.choice(["eq(R,Q)", "eq(Q,R)"]))
    e = _elem(r)
    return outputs + [f"in({e},D)", f"nin({_again(r, e)},E)"]


def _listed_domain(r):
    e = _elem(r)
    pair = r.choice([f"[{e},N]", f"[{e},1]"])
    other = f"{{{_again(r, e)}}}"
    return [f"dom({{{pair}}},D)", r.choice([f"neq(D,{other})", f"neq({other},D)"])]


def _singleton_facts(r):
    e = _elem(r)
    fact, other = r.choice([
        (f"disj(X,{{{e}}})", "in"),
        (f"disj({{{e}}},X)", "in"),
        (f"nsubset({{{e}}},X)", "in"),
        (f"subset({{{e}}},X)", "nin"),
        (f"ndisj(X,{{{e}}})", "nin"),
        (f"ndisj({{{e}}},X)", "nin"),
    ])
    return [fact, f"{other}({_again(r, e)},X)"]


def _subset_of_singleton(r):
    e = _elem(r)
    member = [f"in({_again(r, e)},X)"] if r.random() < 0.8 else []
    return [f"subset(X,{{{e}}})", *member, f"neq(X,{{{_again(r, e)}}})"]


def _neq(r):
    if r.random() < 0.5:
        return _links(r, "X", "Y", "D") + ["neq(X,Y)"]
    e = _elem(r)
    return [f"neq({{{e}}},{{{_again(r, e)}}})"]


def _partial_functions(r):
    pair = f"{{[{_elem(r)},N]}}"
    head = ["pfun(R)"] if r.random() < 0.7 else []
    return head + r.choice([
        [f"oplus(R,{pair},G)", "npfun(G)"],
        [f"oplus({pair},R,G)", "npfun(G)"],
        ["pfun(Q)", "oplus(R,Q,G)", "npfun(G)"],
        ["dres(D,R,G)", "npfun(G)"],
        [f"npfun({pair})"],
    ])


FAMILIES = {
    "congruence": _congruence,
    "dom congruence": _dom_congruence,
    "listed domain": _listed_domain,
    "singleton facts": _singleton_facts,
    "subset of a singleton": _subset_of_singleton,
    "neq of one value": _neq,
    "partial functions": _partial_functions,
}

NOISE = ["in(V,X)", "subset(X,Y)", "disj(D,X)", "neq(X,{})", "pfun(Q)", "dom(Q,X)", "in(a2,D)"]


def _draws(seed, per_family):
    """(family, formula) pairs: each family's core, sometimes with one more
    constraint over the same variables."""
    r = random.Random(seed)
    for name, family in FAMILIES.items():
        for _ in range(per_family):
            cs = family(r)
            if r.random() < 0.4:
                cs.append(r.choice(NOISE))
            yield name, S.parse_formula(" & ".join(cs))


def _sorts(f):
    return {v: SORTS[v] for v in free_vars(f)}


def _refuted_at_compile_time(f):
    (disjunct,) = f.disjuncts
    return _compile._compile(disjunct, {}).constraints is None


@pytest.mark.parametrize("src", [
    "eq(X,Y) & in(V,X) & nin(V,Y)",
    "eq(R,Q) & dom(R,D) & dom(Q,E) & in(V,D) & nin(V,E)",
    "dom({[V,N]},D) & neq(D,{V})",
    "disj(X,{V}) & in(V,X)",
    "disj({V},X) & in(V,X)",
    "nsubset({V},X) & in(V,X)",
    "subset({V},X) & nin(V,X)",
    "ndisj(X,{V}) & nin(V,X)",
    "ndisj({V},X) & nin(V,X)",
    "subset(X,{V}) & in(V,X) & neq(X,{V})",
    "eq(X,Y) & neq(Y,X)",
    "pfun(R) & oplus(R,{[V,N]},G) & npfun(G)",
    "pfun(R) & oplus({[V,N]},R,G) & npfun(G)",
    "pfun(R) & pfun(Q) & oplus(R,Q,G) & npfun(G)",
    "pfun(R) & dres(D,R,G) & npfun(G)",
    "npfun({[V,N]})",
])
def test_each_rule_refutes_its_own_case(src):
    assert _refuted_at_compile_time(S.parse_formula(src))


@pytest.mark.parametrize("src,refuted", [
    ("apply(R,N,V)", True),  # R's keys are atoms, N is an integer
    ("apply(R,X,N)", True),
    ("apply(R,V,N)", False),
    ("apply(R,{a1},N)", True),
    ("apply(R,a1,N)", False),
    # Z is undeclared and only applied: its keys are atoms or integers
    ("apply(Z,X,N)", True),
    ("apply(Z,R,N)", True),
    ("apply(Z,{a1},N)", True),
    ("apply(Z,V,N)", False),
    ("apply(Z,3,N)", False),
    ("apply(Z,X,N) & in(N,{0})", True),
    # Z occurs elsewhere, so a binding can give it keys of any kind
    ("apply(Z,X,N) & eq(Z,R)", False),
    ("apply(Z,Z,N)", False),
    ("apply(Z,X,N) & subset(Z,Y)", False),
])
def test_apply_outside_the_key_sort_is_refuted(src, refuted):
    f = S.parse_formula(src)
    (disjunct,) = f.disjuncts
    sorts = {v: SORTS[v] for v in free_vars(f) if v in SORTS}
    assert (_compile._compile(disjunct, sorts).constraints is None) == refuted
    if refuted:
        assert not brute_force_sat(f, SCOPE, sorts)


def test_an_undeclared_function_bound_by_an_equation_keeps_its_model():
    f = S.parse_formula("F = {[{a1},1]} & apply(F,{a1},1)")
    got = solver.solve(f, SCOPE)
    assert got == Sat({"F": SetV([TupV((SetV([Atom("a1", "addr")]), IntV(1)))])})


def test_apply_refutation_takes_no_decision_nodes(count_nodes):
    f = S.parse_formula("apply(Z,R,2)")
    assert solver.solve(f, SCOPE, sorts={"R": SORTS["R"]}) == solver.Unsat()
    assert count_nodes[0] == 0


# -- the plain-Python oracle ----------------------------------------------------------------

# atoms are their names, integers are ints, tuples are tuples and sets and
# relations are frozensets


def _plain(v):
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, IntV):
        return v.n
    if isinstance(v, TupV):
        return tuple(map(_plain, v.elems))
    if isinstance(v, SetV):
        return frozenset(map(_plain, v.elems))
    raise TypeError(v)


def _term(t, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, TupT):
        return tuple(_term(e, env) for e in t.elems)
    if isinstance(t, SetT):
        return frozenset(_term(e, env) for e in t.elems)
    return _plain(t.value)


def _dom(r):
    return frozenset(k for k, _ in r)


RELATIONS = {
    "eq": lambda a, b: a == b,
    "neq": lambda a, b: a != b,
    "in": lambda x, s: x in s,
    "nin": lambda x, s: x not in s,
    "disj": lambda a, b: not a & b,
    "ndisj": lambda a, b: bool(a & b),
    "subset": lambda a, b: a <= b,
    "nsubset": lambda a, b: not a <= b,
    "dom": lambda r, d: _dom(r) == d,
    "oplus": lambda r, g, y: frozenset(p for p in r if p[0] not in _dom(g)) | g == y,
    "dres": lambda d, r, y: frozenset(p for p in r if p[0] in d) == y,
    "pfun": lambda r: len(_dom(r)) == len(r),
    "npfun": lambda r: len(_dom(r)) != len(r),
}

ATOMS = ("a1", "a2")
PAIRS = [(a, n) for a in ATOMS for n in (0, 1)]
UNIVERSES = {
    "set": [frozenset(c) for n in range(3) for c in itertools.combinations(ATOMS, n)],
    "rel": [frozenset(c) for n in range(3) for c in itertools.combinations(PAIRS, n)],
    "atom": list(ATOMS),
    "int": [0, 1],
}
KIND_OF = {"X": "set", "Y": "set", "D": "set", "E": "set", "V": "atom", "N": "int",
           "R": "rel", "Q": "rel", "G": "rel"}


def _oracle(f):
    """Whether some assignment inside SCOPE satisfies the one conjunct of f."""
    (constraints,) = f.disjuncts
    names = free_vars(f)
    for combo in itertools.product(*(UNIVERSES[KIND_OF[n]] for n in names)):
        env = dict(zip(names, combo))
        if all(RELATIONS[c.kind](*(_term(a, env) for a in c.args)) for c in constraints):
            return True
    return False


def test_rules_match_a_plain_python_oracle():
    fired = dict.fromkeys(FAMILIES, 0)
    disagreements = []
    for i, (family, f) in enumerate(_draws(20000101, 60)):
        got = solver.solve(f, SCOPE, sorts=_sorts(f))
        expected = _oracle(f)
        if isinstance(got, Unknown) or isinstance(got, Sat) != expected:
            disagreements.append((i, family, type(got).__name__, S.print_formula(f)))
        elif expected:
            assert eval_ground_formula(f, got.witness) is True
        fired[family] += _refuted_at_compile_time(f)
    assert disagreements == [], disagreements[:5]
    # each family is refuted at compile time on 22 to 42 of its 60 draws
    assert min(fired.values()) >= 20, fired


@pytest.mark.parametrize("k", [1, 2])
def test_every_refutation_has_no_model_by_brute_force(k):
    scope = Scope(atoms_per_namespace=k, int_lo=0, int_hi=1, max_set_card=k, max_seq_len=1)
    fired = dict.fromkeys(FAMILIES, 0)
    for family, f in _draws(19991231, 25):
        if _refuted_at_compile_time(f):
            fired[family] += 1
            assert not brute_force_sat(f, scope, _sorts(f)), S.print_formula(f)
    # each family is refuted at compile time on 12 to 20 of its 25 draws
    assert min(fired.values()) >= 10, fired


# -- the shipped goals ---------------------------------------------------------------------


def _ttf_conditions():
    t = goals.get_transition("checkpoint_state")
    return ttf.instantiate_partition(ttf.find_occurrences(t, "oplus")[0], t)


def _without(constraints, src):
    (dropped,) = S.parse_formula(src).disjuncts[0]
    assert dropped in constraints
    return tuple(c for c in constraints if c != dropped)


def test_checkpoint_pfun_without_pfun_acc_has_a_counterexample():
    g = goals.get_goal("checkpoint-pfun")
    hyp = Formula((_without(g.hypothesis.disjuncts[0], "pfun(Acc)"),))
    r = prove_implication(hyp, g.conclusion, Scope(atoms_per_namespace=3, max_set_card=3),
                          sorts=g.sorts)
    assert isinstance(r, Counterexample)
    assert eval_ground_formula(conj_formulas([hyp, negate(g.conclusion)]), r.witness) is True


def test_checkpoint_pfun_with_a_two_pair_extension_has_a_counterexample():
    g = goals.get_goal("checkpoint-pfun")
    two = SetT((TupT((Var("Sender"), Var("A1"))), TupT((Var("S2"), Var("A2")))))
    hyp = conj([C("oplus", c.args[0], two, c.args[2]) if c.kind == "oplus" else c
                for c in g.hypothesis.disjuncts[0]])
    sorts = dict(g.sorts, S2=ADDR, A2=goals.ACC_RECORD_SORT)
    r = prove_implication(hyp, g.conclusion, Scope(atoms_per_namespace=2, max_set_card=2),
                          sorts=sorts)
    assert isinstance(r, Counterexample)
    assert eval_ground_formula(conj_formulas([hyp, negate(g.conclusion)]), r.witness) is True


def test_ttf_case_6_needs_the_sender_in_the_domain():
    """apply(Acc,Sender,A0) also puts the sender in dom Acc, so without
    in(Sender,DomAcc) the search, not the rewriting, refutes case 6; without
    both the case is satisfiable."""
    c6 = _ttf_conditions()[5]
    scope = Scope(atoms_per_namespace=3, max_set_card=3)
    body = _without(c6.body, "in(Sender,DomAcc)")
    f = Formula((body + c6.case_constraints,))
    assert not _refuted_at_compile_time(f)
    assert isinstance(solver.solve(f, scope, sorts=c6.sorts), solver.Unsat)
    f = Formula((_without(body, "apply(Acc,Sender,A0)") + c6.case_constraints,))
    r = solver.solve(f, scope, sorts=c6.sorts)
    assert isinstance(r, Sat) and eval_ground_formula(f, r.witness) is True


def test_ttf_case_7_without_its_neq_is_satisfiable():
    c7 = _ttf_conditions()[6]
    f = Formula((c7.body + _without(c7.case_constraints, "neq(_DomL13,_DomR13)"),))
    r = solver.solve(f, Scope(atoms_per_namespace=3, max_set_card=3), sorts=c7.sorts)
    assert isinstance(r, Sat) and eval_ground_formula(f, r.witness) is True


def test_checkpoint_refutations_take_no_decision_nodes(count_nodes):
    scope = Scope(atoms_per_namespace=7, max_set_card=7)
    g = goals.get_goal("checkpoint-pfun")
    refutation = conj_formulas([g.hypothesis, negate(g.conclusion)])
    solves = [(refutation, g.sorts)] + [(c.formula, c.sorts) for c in _ttf_conditions()[5:]]
    for f, sorts in solves:
        assert isinstance(solver.solve(f, scope, sorts=sorts), solver.Unsat)
    assert count_nodes[0] == 0


@pytest.mark.parametrize("goal,scope,lines", [
    ("checkpoint-pfun", "atoms=1000,card=1000",
     ["Verified (scope: atoms=1000, ints=0..8, card=1000, seq=4)"]),
    ("checkpoint-ttf", "atoms=50,card=50",
     ["Verified (scope: atoms=50, ints=0..8, card=50, seq=4)",
      "  raw conditions: 8, satisfiable: [4, 5]"]),
])
def test_checkpoint_goals_are_verified_at_a_large_scope(capsys, goal, scope, lines):
    code = main(["prove", "--goal", goal, "--scope", scope])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, "".join(line + "\n" for line in lines), "")
