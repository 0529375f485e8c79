import itertools

import pytest

from setforge import solver
from setforge import speclang as S
from setforge.errors import SetforgeError
from setforge.formula import (
    DUALS,
    KINDS,
    TRUE,
    C,
    Formula,
    Lit,
    RisT,
    TupT,
    Var,
    conj,
    disj_of,
    free_vars,
    negate,
)
from setforge.solver import (
    Counterexample,
    Sat,
    Unknown,
    Unsat,
    UnknownOutcome,
    Verified,
    check_unsat,
    eval_ground_formula,
    prove_implication,
    solve,
)
from setforge.universe import (
    AnyS,
    AtomS,
    IntS,
    RelS,
    Scope,
    SeqS,
    RecordS,
    SetS,
    TupleS,
    enumerate_sort,
    scope_atoms,
    sort_contains,
)
from setforge.values import EMPTY_SET, Atom, IntV, SeqV, SetV, TupV, Value, atom, vset

TINY = Scope(atoms_per_namespace=2, int_lo=0, int_hi=3, max_set_card=2, max_seq_len=2)


def F(src):
    return S.parse_formula(src)


# -- examples ---------------------------------------------------------------------


def test_union_into_fresh_state():
    r = solve(F("As = {} & un(As,{a1,a2},As_)"))
    assert isinstance(r, Sat)
    assert r.witness["As_"] == vset([atom("a1"), atom("a2")])


def test_plain_contradiction():
    assert isinstance(solve(F("X = {} & X neq {}")), Unsat)


def test_split_with_disjointness_first_witness():
    r = solve(F("un(A,B,{a1}) & disj(A,B)"), Scope(atoms_per_namespace=1))
    assert isinstance(r, Sat)
    assert r.witness["A"] == vset([atom("a1")])
    assert r.witness["B"] == vset([])


def test_check_unsat_examples():
    assert check_unsat(F("pfun({[a1,1],[a1,2]})"))[0] is True
    ok, witness = check_unsat(F("X = X"))
    assert ok is False and "X" in witness


def test_solver_is_deterministic():
    f = F("un(A,B,{a1,a2}) & in(a1,A)")
    r1 = solve(f, TINY)
    r2 = solve(f, TINY)
    assert r1 == r2


def test_budget_exhaustion_reports_unknown():
    f = F("un(A,B,C) & ndisj(A,B) & disj(A,C)")
    r = solve(f, budget=3)
    assert isinstance(r, Unknown)
    with pytest.raises(UnknownOutcome):
        check_unsat(f, budget=3)


def test_budget_is_shared_by_all_disjuncts():
    # alone, the first disjunct needs 16 decision nodes and the second 2
    sorts = {"A": SetS(AtomS("addr")), "B": SetS(AtomS("addr")), "C": SetS(AtomS("addr"))}
    first = F("un(A,B,C) & disj(A,C) & neq(A,{})")
    second = F("in(X,{a1,a2}) & X neq a1")
    assert isinstance(solve(first, TINY, sorts=sorts), Unsat)
    assert isinstance(solve(second, TINY, budget=10), Sat)
    r = solve(disj_of([first, second]), TINY, sorts=sorts, budget=10)
    assert r == Unknown("search budget exceeded (10 decision nodes)")
    assert isinstance(solve(disj_of([second, first]), TINY, sorts=sorts, budget=10), Sat)


def test_long_decision_chain_needs_no_recursion():
    # 1,200 successive member decisions; the search keeps them on its own stack
    n = 1200
    s = Lit(vset([atom("a1"), atom("a2"), atom("a3")]))
    cs = [C("in", Var("X1"), s)]
    for i in range(2, n + 1):
        cs += [C("in", Var(f"X{i}"), s), C("neq", Var(f"X{i - 1}"), Var(f"X{i}"))]
    f = conj(cs)
    r = solve(f, sorts={f"X{i}": AtomS("addr") for i in range(1, n + 1)})
    assert isinstance(r, Sat)
    assert eval_ground_formula(f, r.witness) is True


def test_witnesses_satisfy_direct_evaluation():
    corpus = [
        "un(A,B,{a1,a2}) & diff(A,B,D) & in(a1,D)",
        "oplus(R,{[a1,0]},O) & pfun(R) & neq(R,{})",
        "plus(X,Y,5) & lt(X,Y)",
        "seq_concat(A,seq([1]),seq([2,1]))",
        "dres(D,{[1,a1],[2,a2]},O) & neq(O,{}) & neq(O,{[1,a1],[2,a2]})",
    ]
    for src in corpus:
        f = F(src)
        r = solve(f, TINY)
        assert isinstance(r, Sat), src
        assert eval_ground_formula(f, r.witness) is True, src


# -- negation -----------------------------------------------------------------------


def test_negate_swaps_duals():
    f = conj([C("pfun", Var("F"))])
    assert negate(f) == conj([C("npfun", Var("F"))])


def test_negate_de_morgan():
    f = F("A = B & in(x1,A)")
    n = negate(f)
    assert len(n.disjuncts) == 2
    kinds = sorted(d[0].kind for d in n.disjuncts)
    assert kinds == ["neq", "nin"]


def test_negate_functional_constraint_uses_fresh_result():
    f = F("un(A,B,C)")
    n = negate(f)
    ((c1, c2),) = n.disjuncts
    assert c1.kind == "un" and c2.kind == "neq"
    fresh = c1.args[2]
    assert fresh not in (Var("A"), Var("B"), Var("C"))


def test_double_negation_equisatisfiable():
    corpus = [
        "un(A,B,{a1}) & disj(A,B)",
        "pfun({[a1,1],[a1,2]})",
        "in(X,{a1,a2}) & X neq a1",
        "le(X,1) & lt(1,X)",
    ]
    for src in corpus:
        f = F(src)
        once = solve(f, TINY)
        twice = solve(negate(negate(f)), TINY)
        assert isinstance(once, Sat) == isinstance(twice, Sat), src


# -- implications ----------------------------------------------------------------------


def test_trivial_counterexample():
    r = prove_implication(Formula(((),)), Formula(()), TINY)
    assert isinstance(r, Counterexample)


def test_receive_with_no_known_peers_learns_exactly_the_payload():
    hyp = F(
        "As = {} & un(As,Asm,As_) & diff(Asm,As,D) & "
        "PsD = ris(A in D,[],true,[this,A,connectMsg]) & "
        "PsAs = ris(A in As,[],true,[this,A,addrMsg(As_)]) & un(PsD,PsAs,Ps)"
    )
    concl = F("As_ = Asm")
    sorts = {"Asm": SetS(AtomS("addr")), "As": SetS(AtomS("addr"))}
    r = prove_implication(hyp, concl, TINY, sorts=sorts)
    assert isinstance(r, Verified)


def test_implication_counterexample_carries_witness():
    hyp = F("un(A,B,C)")
    concl = F("subset(A,B)")
    sorts = {"A": SetS(AtomS("addr")), "B": SetS(AtomS("addr")), "C": SetS(AtomS("addr"))}
    r = prove_implication(hyp, concl, TINY, sorts=sorts)
    assert isinstance(r, Counterexample)
    assert not eval_ground_formula(concl, r.witness)


# -- bounded completeness against a brute-force enumerator ------------------------------


def brute_force_sat(f, scope, sorts):
    """Independent oracle: enumerate every assignment of the variables and
    evaluate directly.  An undeclared variable ranges over AnyS, as in the
    solver."""
    names = free_vars(f)
    universes = [list(enumerate_sort(sorts.get(n) or AnyS(), scope)) for n in names]
    for combo in itertools.product(*universes):
        if eval_ground_formula(f, dict(zip(names, combo))) is True:
            return True
    return False


ORACLE_CORPUS = [
    ("un(A,B,{a1,a2}) & disj(A,B) & neq(A,{})", {"A": SetS(AtomS("addr")), "B": SetS(AtomS("addr"))}),
    ("diff(A,B,A) & ndisj(A,B)", {"A": SetS(AtomS("addr")), "B": SetS(AtomS("addr"))}),
    ("subset(A,B) & subset(B,A) & neq(A,B)", {"A": SetS(AtomS("addr")), "B": SetS(AtomS("addr"))}),
    ("plus(X,Y,Z) & lt(Z,X)", {"X": IntS(), "Y": IntS(), "Z": IntS()}),
    ("times(X,X,Y) & lt(X,Y) & lt(Y,4)", {"X": IntS(), "Y": IntS()}),
    ("in(X,{a1,a2}) & nin(X,{a2,a3})", {"X": AtomS("addr")}),
    ("oplus(R,G,R) & neq(G,{})", {"R": SetS(AnyS()), "G": SetS(AnyS())}),
    ("dom(R,D) & subset(D,{a1}) & ndisj(D,{a2})", {"R": SetS(AnyS()), "D": SetS(AtomS("addr"))}),
    # a01 is not a scope atom: the stream names a1, never a zero-padded twin
    ("eq(X,a01)", {"X": AtomS("addr")}),
    # a declared variable left open at a leaf must still lie in its universe
    # once the search fills its holes: dres gives a set, never a sequence
    # (refuted at compile time), and a relation of integers holds no sequence
    ("dres({a1},R,Q)", {"R": RelS(AtomS("addr"), IntS()), "Q": SeqS(IntS())}),
    ("apply(R,V,seq([0,1]))", {"R": RelS(AtomS("addr"), IntS()), "V": AtomS("addr")}),
    # Y is undeclared, so its default fill is an atom: X = {a1} lies outside
    # X's universe, but X = {0} is a model
    ("X = {Y}", {"X": SetS(IntS())}),
    # neq against an open extension is decided once the tail is ground
    ("{a1/A} neq {}", {"A": SetS(AtomS("addr"))}),
    ("R neq {a1/A}", {"R": RelS(AtomS("addr"), IntS()), "A": SetS(AtomS("addr"))}),
    # the keys of the undeclared Z are atoms or integers, never the relation
    # R: refuted at compile time, where the search spent its whole budget
    ("apply(Z,R,2)", {"R": RelS(AtomS("addr"), IntS())}),
    # an open extension against another one or against a comprehension is
    # decided once both values are known
    ("{a1/A} neq {a2/B}", {"A": SetS(AtomS("addr")), "B": SetS(AtomS("addr"))}),
    ("{a1/A} neq ris(X in S, [], true, X)", {"A": SetS(AtomS("addr"))}),
    # the output of ran is a set, which Q's sort never holds: refuted at
    # compile time, where the search enumerated every candidate for W
    ("ran(W,Q)", {"Q": SeqS(IntS())}),
    # the holes Q takes from R are integers, which Q's relation of atoms
    # never holds: the leaf check, not compile time, rejects every Q but {}
    ("dres({a1},R,Q) & neq(Q,{})", {"R": RelS(AtomS("addr"), IntS()), "Q": RelS(AtomS("addr"), AtomS("addr"))}),
]


@pytest.mark.parametrize("src,sorts", ORACLE_CORPUS, ids=range(len(ORACLE_CORPUS)))
def test_bounded_completeness_matches_brute_force(src, sorts):
    scope = Scope(atoms_per_namespace=2, int_lo=0, int_hi=3, max_set_card=2, max_seq_len=2)
    f = F(src)
    expected = brute_force_sat(f, scope, sorts)
    got = solve(f, scope, sorts=sorts)
    assert not isinstance(got, Unknown), (src, got)
    assert isinstance(got, Sat) == expected, src
    if expected:
        assert eval_ground_formula(f, got.witness) is True
        assert all(sort_contains(s, got.witness[v], scope) for v, s in sorts.items()), src


def test_leaf_holes_of_a_declared_variable_are_searched():
    """A hole of a declared variable left open at a leaf is enumerated, not
    filled once by default: the first fill of Y puts X out of its universe."""
    sorts = {"X": SetS(IntS())}
    r = prove_implication(F("X = {Y}"), F("X = {}"), TINY, sorts=sorts)
    assert r == Counterexample({"X": vset([IntV(0)]), "Y": IntV(0)})
    assert prove_implication(F("X = {Y}"), F("X neq {}"), TINY, sorts=sorts) == Verified(TINY)


def test_a_declared_variable_with_an_empty_universe_has_no_value():
    """A leaf fills every open hole through the search, so a sort with no
    values at the scope fails the branch instead of raising."""
    scope = Scope(atoms_per_namespace=0)
    for src, sorts in (("X = X", {"X": AtomS("addr")}), ("X = [Y,1]", {"Y": AtomS("addr")})):
        f = F(src)
        assert isinstance(solve(f, scope, sorts=sorts), Unsat), src
        assert brute_force_sat(f, scope, sorts) is False, src


@pytest.mark.parametrize("src", [
    "X = {[a1,P],[a2,Q],[a1,7]}",
    "X = {[a1,P],[a2,Q],[a1,7]} & in(P,{0,1}) & in(Q,{0,1})",
])
def test_a_declared_variable_is_checked_when_its_last_hole_binds(src):
    """X binds at the root with holes P and Q open, and waits on P.  P is
    decided first, so X must then wait on Q: when Q is decided X grounds
    outside its universe (7 is above int_hi).  The Sat re-check reads no
    declared sort, so a search that stopped watching X would answer Sat."""
    sorts = {"X": RelS(AtomS("addr"), IntS())}
    assert solve(F(src), TINY, sorts=sorts) == Unsat()
    assert brute_force_sat(F(src), TINY, sorts) is False


def test_unsat_means_no_model_in_scope():
    # exhaustively confirm a nontrivial unsat verdict
    scope = TINY
    f = F("un(A,B,C) & disj(A,C) & neq(A,{})")
    sorts = {"A": SetS(AtomS("addr")), "B": SetS(AtomS("addr")), "C": SetS(AtomS("addr"))}
    assert isinstance(solve(f, scope, sorts=sorts), Unsat)
    assert brute_force_sat(f, scope, sorts) is False


# -- randomized differential testing against the enumerator ---------------------------


class _RandomFormulas:
    """Seeded stream of small formulas over sorted variables, for
    differential testing of the search against plain enumeration."""

    SORTS = {
        "A": SetS(AtomS("addr")),
        "B": SetS(AtomS("addr")),
        "X": IntS(),
        "Y": IntS(),
        "V": AtomS("addr"),
    }

    def __init__(self, seed):
        import random

        self.rng = random.Random(seed)

    def term_for(self, var):
        r = self.rng
        if var in ("A", "B"):
            names = [["a1"], ["a2"], ["a1", "a2"], []]
            return S.parse_term("{" + ",".join(r.choice(names)) + "}")
        if var == "V":
            return S.parse_term(r.choice(["a1", "a2"]))
        return S.parse_term(str(r.randrange(0, 4)))

    def constraint(self):
        r = self.rng
        pick = r.choice(
            [
                ("un", "A", "B", "A"),
                ("un", "A", "B", "B"),
                ("diff", "A", "B", "B"),
                ("inters", "A", "B", "A"),
                ("disj", "A", "B"),
                ("ndisj", "A", "B"),
                ("subset", "A", "B"),
                ("nsubset", "B", "A"),
                ("in", "V", "A"),
                ("nin", "V", "B"),
                ("eq", "A", "B"),
                ("neq", "A", "B"),
                ("plus", "X", "Y", "X"),
                ("minus", "X", "Y", "Y"),
                ("times", "X", "Y", "Y"),
                ("le", "X", "Y"),
                ("lt", "Y", "X"),
                ("eq", "X", "Y"),
                ("neq", "X", "Y"),
            ]
        )
        kind, *vars_ = pick
        args = []
        for v in vars_:
            # half the time pin the slot to a literal instead of the variable
            args.append(Var(v) if r.random() < 0.6 else self.term_for(v))
        return C(kind, *args)

    def formula(self):
        n = self.rng.randrange(1, 4)
        return conj([self.constraint() for _ in range(n)])


def test_random_formulas_match_enumeration():
    scope = Scope(atoms_per_namespace=2, int_lo=0, int_hi=3, max_set_card=2, max_seq_len=1)
    gen = _RandomFormulas(seed=424242)
    disagreements = []
    for i in range(250):
        f = gen.formula()
        sorts = {v: gen.SORTS[v] for v in free_vars(f)}
        expected = brute_force_sat(f, scope, sorts)
        got = solve(f, scope, sorts=sorts)
        if isinstance(got, Unknown):
            disagreements.append((i, "unknown", S.print_formula(f)))
            continue
        if isinstance(got, Sat) != expected:
            disagreements.append((i, "wrong", S.print_formula(f)))
        elif expected:
            assert eval_ground_formula(f, got.witness) is True
    assert disagreements == [], disagreements[:5]


class _WideFormulas(_RandomFormulas):
    """Seeded stream of small formulas that adds relations and comprehensions:
    dom, apply, oplus, pfun/npfun, and ris terms with empty and non-trivial
    filters whose patterns use the binder alone or paired with a free
    variable."""

    SORTS = {
        "A": SetS(AtomS("addr")),
        "B": SetS(AtomS("addr")),
        "R": RelS(AtomS("addr"), IntS()),
        "G": RelS(AtomS("addr"), IntS()),
        "H": RelS(AtomS("addr"), IntS()),
        "V": AtomS("addr"),
        "X": IntS(),
    }
    RELATIONS = ["{}", "{[a1,0]}", "{[a2,1]}", "{[a1,0],[a2,1]}", "{[a1,0],[a1,1]}"]

    def term_for(self, var):
        if var in ("R", "G", "H"):
            return S.parse_term(self.rng.choice(self.RELATIONS))
        if var == "X":
            return S.parse_term(str(self.rng.randrange(0, 2)))
        return super().term_for(var)

    def slot(self, var):
        return Var(var) if self.rng.random() < 0.7 else self.term_for(var)

    def ris(self):
        """ris(Z in A, filter, pattern) as a set of atoms or a relation; the
        name of the variable it is compared with comes along."""
        r = self.rng
        z = Var("Z")
        filt = r.choice(
            [TRUE, conj([C("neq", z, self.slot("V"))]), conj([C("in", z, self.slot("B"))])]
        )
        domain = self.slot("A")
        if r.random() < 0.5:
            return "B", RisT("Z", domain, filt, z)
        return "R", RisT("Z", domain, filt, TupT([z, self.slot("X")]))

    def constraint(self):
        r = self.rng
        if r.random() < 0.25:
            target, t = self.ris()
            return C(r.choice(["eq", "eq", "neq"]), Var(target), t)
        pick = r.choice(
            [
                ("dom", "R", "A"),
                ("dom", "G", "B"),
                ("apply", "R", "V", "X"),
                ("apply", "G", "V", "X"),
                ("oplus", "R", "G", "H"),
                ("oplus", "R", "G", "R"),
                ("pfun", "R"),
                ("npfun", "G"),
                ("npfun", "H"),
                ("eq", "R", "G"),
                ("neq", "H", "R"),
                ("in", "V", "A"),
                ("subset", "A", "B"),
            ]
        )
        kind, *vars_ = pick
        return C(kind, *[self.slot(v) for v in vars_])


def test_random_relation_and_comprehension_formulas_match_enumeration():
    scope = Scope(atoms_per_namespace=2, int_lo=0, int_hi=1, max_set_card=2, max_seq_len=1)
    gen = _WideFormulas(seed=20191)
    disagreements = []
    for i in range(300):
        f = gen.formula()
        sorts = {v: gen.SORTS[v] for v in free_vars(f)}
        expected = brute_force_sat(f, scope, sorts)
        got = solve(f, scope, sorts=sorts)
        if isinstance(got, Unknown):
            disagreements.append((i, "unknown", S.print_formula(f)))
            continue
        if isinstance(got, Sat) != expected:
            disagreements.append((i, "wrong", S.print_formula(f)))
        elif expected:
            assert eval_ground_formula(f, got.witness) is True
    assert disagreements == [], disagreements[:5]


class _MixedFormulas(_RandomFormulas):
    """Seeded stream of small formulas over every constraint kind but eq and
    neq, whose arguments are drawn without regard to the kind: a variable of
    any of five sorts or a literal of any value kind.  Ill-kinded arguments,
    ran, dres and the sequence constraints are the point."""

    SORTS = {
        "N": IntS(),
        "A": SetS(AtomS("addr")),
        "R": RelS(AtomS("addr"), IntS()),
        "Q": SeqS(IntS()),
        "V": AtomS("addr"),
    }
    LITERALS = ["a1", "0", "1", "2", "3", "{}", "{a1}", "{[a1,0],[a1,1]}", "seq([0,1])", "[a1,0]"]
    DRAWN = sorted(k for k in KINDS if k not in ("eq", "neq"))

    def constraint(self):
        r = self.rng
        kind = r.choice(self.DRAWN)
        args = []
        for _ in range(KINDS[kind][0]):
            if r.random() < 0.5:
                args.append(Var(r.choice(sorted(self.SORTS))))
            else:
                args.append(S.parse_term(r.choice(self.LITERALS)))
        return C(kind, *args)

    def formula(self):
        return conj([self.constraint() for _ in range(self.rng.randrange(1, 3))])


def test_mixed_kind_formulas_match_enumeration():
    scope = Scope(atoms_per_namespace=2, int_lo=0, int_hi=3, max_set_card=2, max_seq_len=2)
    gen = _MixedFormulas(seed=5)
    disagreements = []
    for i in range(600):
        f = gen.formula()
        sorts = {v: gen.SORTS[v] for v in free_vars(f)}
        expected = brute_force_sat(f, scope, sorts)
        try:
            got = solve(f, scope, sorts=sorts)
        except SetforgeError as e:
            disagreements.append((i, f"raised {e}", S.print_formula(f)))
            continue
        if isinstance(got, Unknown):
            disagreements.append((i, got.reason, S.print_formula(f)))
        elif isinstance(got, Sat) != expected:
            disagreements.append((i, "wrong", S.print_formula(f)))
        elif expected:
            assert eval_ground_formula(f, got.witness) is True
            assert all(sort_contains(sorts[v], got.witness[v], scope) for v in sorts)
    assert disagreements == [], disagreements


def test_open_patterns_animate_a_two_step_receive():
    """The chained walkthrough formula solves by propagation alone: open
    record patterns pin the states, everything else is derived."""
    from pathlib import Path

    src = (Path(__file__).resolve().parent.parent / "scenarios" / "rcvaddr2.slog").read_text()
    r = solve(S.parse_formula(src))
    assert isinstance(r, Sat)
    w = r.witness
    out = {k: S.print_value(v) for k, v in w.items()}
    assert out["S1"] == "{[as,{a1,a2}]}"
    assert out["S2"] == "{[as,{a1,a2,a3}]}"
    assert out["Ps1"] == "{[this,a1,connectMsg],[this,a2,connectMsg]}"
    assert out["Ps2"] == (
        "{[this,a1,addrMsg({a1,a2,a3})],[this,a2,addrMsg({a1,a2,a3})],[this,a3,connectMsg]}"
    )


def test_open_pattern_with_non_set_tail_is_unsat():
    assert isinstance(solve(F("S = {a1/R} & R = 3")), Unsat)


def test_every_kind_has_one_rule_and_its_argument_kinds():
    assert set(solver._RULES) == set(KINDS)
    assert set(solver._ARG_KINDS) == set(KINDS)
    for kind, tags in solver._ARG_KINDS.items():
        assert tags is None or len(tags) == KINDS[kind][0], kind


_SETS, _INTS, _SEQS = SetS(AtomS("addr")), SetS(IntS()), SeqS(IntS())
_REL = RelS(AtomS("addr"), IntS())

# Formulas whose search runs every propagation rule of solver._RULES, with
# the sort of every variable, since brute_force_sat ranges an undeclared one
# over atoms and integers only.  They also run branches no other test runs:
# seq_tail and seq_concat with an open side, intdiv by an open value and by
# zero, ran of an open relation, of pairs with open parts and of a set that
# is no relation, and an open extension equated to a relation, to a set
# that holds or lacks its elements, to a value of another kind, to a
# variable, to a comprehension and to a set term that denotes no set.
RULE_CASES = [
    ("seq_tail(seq([X,2]),T)", {"X": IntS(), "T": _SEQS}),
    ("seq_tail(S,seq([2])) & seq_head(S,1)", {"S": _SEQS}),
    ("intdiv(7,2,Z)", {"Z": IntS()}),
    ("intdiv(7,0,Z)", {"Z": IntS()}),
    ("intdiv(X,2,1)", {"X": IntS()}),
    ("ran({[a1,X],[a2,1]},{1,2})", {"X": IntS()}),
    ("ran({a1,[a1,1]},D)", {"D": _INTS}),
    ("ran({a1,[K,1]},D)", {"K": AtomS("addr"), "D": _INTS}),
    ("ran({[K,1],[a2,2]},D)", {"K": AtomS("addr"), "D": _INTS}),
    ("ran(R,{1})", {"R": _REL}),
    ("seq_concat(A,seq([2]),seq([1,2]))", {"A": _SEQS}),
    ("seq_concat(seq([1,2,3]),B,seq([1]))", {"B": _SEQS}),
    ("seq_concat(seq([1]),B,seq([1,2]))", {"B": _SEQS}),
    ("seq_concat(A,B,seq([1])) & seq_concat(seq([1]),seq([2]),C)", {"A": _SEQS, "B": _SEQS, "C": _SEQS}),
    ("{[a1,X]/T} = {[a1,1],[a2,2]}", {"X": IntS(), "T": _REL}),
    ("{[a1,X]/T} = {[a2,2]}", {"X": IntS(), "T": _REL}),
    ("{X/T} = 3", {"X": AtomS("addr"), "T": _SETS}),
    ("{a1/T} = {a2}", {"T": _SETS}),
    ("{a1/T} = {a1,a2}", {"T": _SETS}),
    ("{X/T} = {a1}", {"X": AtomS("addr"), "T": _SETS}),
    ("{X/T} = {a1,a2}", {"X": AtomS("addr"), "T": _SETS}),
    ("{a1/T} = S & T = {a2}", {"S": _SETS, "T": _SETS}),
    ("{a1/T} = ris(Z in U,[],true,Z)", {"T": _SETS, "U": _SETS}),
    ("{a1/T} = {a2/U} & U = {a2}", {"T": _SETS, "U": _SETS}),
    ("un(A,B,{a1,a2}) & disj(A,B) & A neq {}", {"A": _SETS, "B": _SETS}),
    ("in(V,A) & nin(V,B) & subset(A,B)", {"V": AtomS("addr"), "A": _SETS, "B": _SETS}),
    ("diff(A,{a1},B) & inters(A,B,C) & ndisj(A,C) & nsubset(A,B)", {"A": _SETS, "B": _SETS, "C": _SETS}),
    ("dom(R,{a1}) & apply(R,a1,2) & pfun(R)", {"R": _REL}),
    ("oplus(R,{[a1,1]},G) & dres({a2},G,H) & npfun(H)", {"R": _REL, "G": _REL, "H": _REL}),
    ("seq_nth(Q,2,X) & seq_head(Q,X)", {"Q": _SEQS, "X": IntS()}),
    ("plus(X,Y,3) & minus(X,Y,1) & times(X,Y,Z)", {"X": IntS(), "Y": IntS(), "Z": IntS()}),
    ("le(X,Y) & lt(Y,X)", {"X": IntS(), "Y": IntS()}),
    # a listed ground member decides in and nin, and one that two listed
    # sets share decides disj and ndisj
    ("in(a1,{a1,Y})", {"Y": AtomS("addr")}),
    ("nin(a1,{a1,Y})", {"Y": AtomS("addr")}),
    ("disj({a1,X},{a1,Y})", {"X": AtomS("addr"), "Y": AtomS("addr")}),
    ("ndisj({a1,X},{a1,Y})", {"X": AtomS("addr"), "Y": AtomS("addr")}),
    # a repeated key with equal ground values, a member that is no pair, a
    # positive pfun that waits for its values and a set among the pairs
    ("apply({[a1,1],[a1,1],[a2,X]},a1,Y)", {"X": IntS(), "Y": IntS()}),
    ("dres({a1},{a1,[a2,X]},O)", {"X": IntS(), "O": _REL}),
    ("pfun({[a1,{X}],[a1,{Y,a2}]})", {"X": AtomS("addr"), "Y": AtomS("addr")}),
    ("dom({{X},[a1,1]},D)", {"X": AtomS("addr"), "D": _SETS}),
    # a comprehension against an open extension, against a comprehension
    # with no value yet, and an open extension against a tuple
    ("ris(Z in S,[],true,Z) = {a1/T}", {"S": _SETS, "T": _SETS}),
    ("ris(Z in {a1},[],true,Z) = ris(W in U,[],true,W)", {"U": _SETS}),
    ("{a1/T} = [X,1]", {"T": _SETS, "X": IntS()}),
]


def test_rule_cases_match_brute_force_and_run_every_rule(monkeypatch):
    runs = dict.fromkeys(solver._RULES, 0)

    def counted(kind, rule):
        def run(*args):
            runs[kind] += 1
            r = rule(*args)
            # the search reads any other answer as "holds"
            assert r is True or r is False or r is None, (kind, r)
            return r
        return run

    for kind, rule in solver._RULES.items():
        monkeypatch.setitem(solver._RULES, kind, counted(kind, rule))
    for src, sorts in RULE_CASES:
        f = F(src)
        assert sorted(sorts) == sorted(free_vars(f)), src
        got = solve(f, TINY, sorts=sorts)
        assert not isinstance(got, Unknown), (src, got)
        assert isinstance(got, Sat) is brute_force_sat(f, TINY, sorts), src
        if isinstance(got, Sat):
            assert eval_ground_formula(f, got.witness) is True, src
    assert [kind for kind, n in runs.items() if n == 0] == []


# kind -> a true instance, a false one and one with an argument of the wrong
# kind, for each kind with a ground check; a dual kind is checked on its
# positive kind's instances.  eq has no wrong kind: its third instance is an
# open extension whose tail lists its element, which denotes no set.
GROUND_CASES = {
    "eq": ("{a1/{a2}} = {a1,a2}", "[1,a1] = [a1,1]", "{a1/{a1}} = {a1}"),
    "in": ("in(a1,{a1,a2})", "in(a3,{a1,a2})", "in(1,2)"),
    "un": ("un({a1},{a2},{a1,a2})", "un({a1},{a2},{a1})", "un({a1},3,{a1})"),
    "diff": ("diff({a1,a2},{a2},{a1})", "diff({a1,a2},{a2},{a2})", "diff(seq([0]),{},{})"),
    "inters": ("inters({a1,a2},{a2},{a2})", "inters({a1},{a2},{a1})", "inters({a1},a1,{})"),
    "disj": ("disj({a1},{a2})", "disj({a1},{a1,a2})", "disj({a1},1)"),
    "subset": ("subset({a1},{a1,a2})", "subset({a1,a2},{a1})", "subset(a1,{a1})"),
    "dom": ("dom({[a1,1],[a2,2]},{a1,a2})", "dom({[a1,1]},{1})", "dom({a1},{})"),
    "ran": ("ran({[a1,1],[a2,1]},{1})", "ran({[a1,1]},{a1})", "ran(seq([0]),{0})"),
    "apply": ("apply({[a1,1],[a2,2]},a2,2)", "apply({[a1,1],[a1,2]},a1,1)", "apply(3,a1,1)"),
    "oplus": (
        "oplus({[a1,1],[a2,2]},{[a1,3]},{[a1,3],[a2,2]})",
        "oplus({[a1,1]},{[a2,2]},{[a2,2]})",
        "oplus({[a1,1]},{a2},{[a1,1]})",
    ),
    "dres": ("dres({a1},{[a1,1],[a2,2]},{[a1,1]})", "dres({a2},{[a1,1]},{[a1,1]})", "dres(a1,{[a1,1]},{})"),
    "pfun": ("pfun({[a1,1],[a2,1]})", "pfun({[a1,1],[a1,2]})", "pfun({1})"),
    "seq_head": ("seq_head(seq([1,2]),1)", "seq_head(seq([1,2]),2)", "seq_head({1},1)"),
    "seq_tail": ("seq_tail(seq([1,2]),seq([2]))", "seq_tail(seq([1]),seq([1]))", "seq_tail([1,2],seq([2]))"),
    "seq_concat": (
        "seq_concat(seq([1]),seq([2]),seq([1,2]))",
        "seq_concat(seq([1]),seq([2]),seq([2,1]))",
        "seq_concat(seq([1]),{2},seq([1,2]))",
    ),
    "seq_nth": ("seq_nth(seq([0,5]),2,5)", "seq_nth(seq([0]),2,0)", "seq_nth(seq([0]),a1,0)"),
    "plus": ("plus(1,2,3)", "plus(1,2,4)", "plus(a1,1,2)"),
    "minus": ("minus(3,1,2)", "minus(1,3,2)", "minus(3,{},3)"),
    "times": ("times(2,3,6)", "times(2,3,5)", "times(2,seq([3]),6)"),
    "intdiv": ("intdiv(7,2,3)", "intdiv(7,0,0)", "intdiv(a1,1,a1)"),
    "le": ("le(2,2)", "le(3,2)", "le(a1,2)"),
    "lt": ("lt(1,2)", "lt(2,2)", "lt(1,{})"),
}


def test_every_kind_has_a_ground_check_or_is_the_dual_of_one():
    assert set(GROUND_CASES) == set(solver._GROUND_RULES)
    for kind in KINDS:
        assert kind in solver._GROUND_RULES or DUALS[kind] in solver._GROUND_RULES, kind


@pytest.mark.parametrize("kind", GROUND_CASES)
def test_ground_check_against_literal_expectations(kind):
    """The true, false and wrong-kind instances give True, False and False;
    the dual gives False, True and False, except that neq is the negation
    of eq throughout."""
    dual = DUALS.get(kind)
    dual_expected = (False, True, True) if kind == "eq" else (False, True, False)
    for src, expected, expected_of_dual in zip(GROUND_CASES[kind], (True, False, False), dual_expected):
        f = F(src)
        assert eval_ground_formula(f, {}) is expected, src
        if dual is not None:
            [[c]] = f.disjuncts
            assert eval_ground_formula(Formula(((C(dual, *c.args),),)), {}) is expected_of_dual, src


# Comprehensions and open extensions nested in a constraint's arguments,
# with T's value -> the formula's value.  The ground check reads them as the
# compile step lifts them, an equation on a fresh variable, so {a1/T}, which
# denotes no set when T lists a1, makes the constraint and its dual false.
NESTED_SET_TERMS = {
    "in(a1,{a1/T})": {"{}": True, "{a1}": False, "{a2}": True, "{a1,a2}": False},
    "nin(a2,{a1/T})": {"{}": True, "{a1}": False, "{a2}": False, "{a1,a2}": False},
    "un({a1/T},{},{a1})": {"{}": True, "{a1}": False, "{a2}": False, "{a1,a2}": False},
    "[1,{a1/T}] neq [1,{a1}]": {"{}": False, "{a1}": False, "{a2}": True, "{a1,a2}": False},
    "[1,{a1/T}] = [1,{a1,a2}]": {"{}": False, "{a1}": False, "{a2}": True, "{a1,a2}": False},
    "in(a1,{{a1/T}/{a2}})": {"{}": False, "{a1}": False, "{a2}": False, "{a1,a2}": False},
    "in({a1},{{a1/T}/{a2}})": {"{}": True, "{a1}": False, "{a2}": False, "{a1,a2}": False},
    "{{a1/T}/{a2}} neq {a2,{a1}}": {"{}": False, "{a1}": False, "{a2}": True, "{a1,a2}": False},
    "in(a1,ris(X in {a1/T},[],true,X))": {"{}": True, "{a1}": False, "{a2}": True, "{a1,a2}": False},
    "nin(a1,ris(X in {a1/T},[],true,X))": {"{}": False, "{a1}": False, "{a2}": False, "{a1,a2}": False},
    "{{a1/T}/3} neq {}": {"{}": True, "{a1}": False, "{a2}": True, "{a1,a2}": False},
    "in({a1},ris(X in {a1},[],true,{X/T}))": {"{}": True, "{a1}": False, "{a2}": False, "{a1,a2}": False},
    "in([1,{a1}],ris(X in {a1},[],true,[1,{X/T}]))": {"{}": True, "{a1}": False, "{a2}": False, "{a1,a2}": False},
}


@pytest.mark.parametrize("src", NESTED_SET_TERMS)
def test_nested_set_terms_are_evaluated(src):
    for t, expected in NESTED_SET_TERMS[src].items():
        assert eval_ground_formula(F(src), {"T": S.parse_value(t)}) is expected, (src, t)


@pytest.mark.parametrize("src", NESTED_SET_TERMS)
def test_nested_set_terms_evaluate_as_the_solver_answers(src):
    sorts = {"T": SetS(AtomS("addr"))}
    for t in enumerate_sort(sorts["T"], TINY):
        got = eval_ground_formula(F(src), {"T": t})
        pinned = solve(F(f"T = {S.print_value(t)} & {src}"), TINY, sorts=sorts)
        assert got is isinstance(pinned, Sat), (src, t)
    assert brute_force_sat(F(src), TINY, sorts) is isinstance(solve(F(src), TINY, sorts=sorts), Sat)


# eval_ground_formula's answers on seeded random formulas that nest
# comprehensions and open extensions in tuples, sets and comprehension
# patterns: formula, assignment as printed values (a variable it leaves out
# is unbound), and the answer with partial_ok=True and with partial_ok=False,
# where "raises" is the SetforgeError of a formula the assignment does not
# ground.  Recorded as literal data, like test_search_equivalence.PINNED.
# Every set term in a term is valued before an unbound variable can leave
# the term without a value: the first 40 rows and the last have a set term
# that denotes no set after an unbound variable, so they are False, not
# undecided.
PARTIAL_ANSWERS = [
    ("[U,{1/1}] = {a2}", {}, False, False),
    ("{} = [X,{X,a1/T}]", {"T": "1"}, False, False),
    ("[T,[{U/1},X]] neq X", {"X": "1", "U": "a1"}, False, False),
    ("X neq [[U,{}],{X/1}]", {"X": "{a2}"}, False, False),
    ("{[U,a1],{U,U/a2}} neq X", {}, False, False),
    ("[[U,1],{U/1}] neq {[U,U]}", {}, False, False),
    ("[[{},U],{a2/1}] = [{X},U]", {"X": "a1"}, False, False),
    ("in([[[{},U],{{}/a2}],1],{})", {}, False, False),
    ("nin([[X,U],{a2/a2}],{a1,a2})", {"X": "{a1}"}, False, False),
    ("in([U,{U,{1,{}}/{{}/a2}}],a1)", {}, False, False),
    ("[{{},1},{U}] neq [[T,U],{T/a1}]", {"U": "1"}, False, False),
    ("nin({a2,a2},[[T,U],[U,{a1/1}]])", {"T": "1"}, False, False),
    ("[[U,a2],{X/a2}] neq [{U/a1},{X}]", {"X": "{}"}, False, False),
    ("nin([{a1},U],{[X,X],{a2,{}/a1}})", {"U": "{}"}, False, False),
    ("nin([{[a1,T]},{{}/{a1,U/a2}}],a2)", {"U": "a1"}, False, False),
    ("a2 = [U,ris(Y in X,[],true,{T/T})]", {"X": "1", "T": "{}"}, False, False),
    ("[U,[a2,ris(Y in 1,[],Y = X,Y)]] = X", {"X": "1"}, False, False),
    ("in([[{a2,U},1],[{a1/a2},[{},T]]],T)", {"T": "{a1}"}, False, False),
    ("in({[X,X],{a2/1}},{[1,a2],{1,a2/U}})", {"U": "{a1}"}, False, False),
    ("[U,ris(Y in a2,[],Y neq a1,{})] neq T", {"T": "{a1,a2}"}, False, False),
    ("{} = [[U,T],ris(Y in a1,[],Y = X,a1)]", {"T": "{a1}"}, False, False),
    ("in([[{{},a2},[T,a1]],{[U,T],{T}/1}],1)", {}, False, False),
    ("subset(a2,{{[X,a1],[a1,U]},[{1/X},1]})", {"X": "1"}, False, False),
    ("[[U,T],ris(Y in T,[],in(Y,T),Y)] neq a1", {"T": "a1"}, False, False),
    ("in({[U,{U/a2}]},{1,[a1,X]/{1,{a1}/a1}})", {"X": "{a1}"}, False, False),
    ("nin([[U,X],ris(Y in a2,[],Y = X,a2)],T)", {"X": "{a1,a2}", "T": "1"}, False, False),
    ("subset({},{[[T,X],X],[{T,X/1},[a1,U]]})", {"T": "1", "U": "{a1,a2}"}, False, False),
    ("[U,ris(Y in a2,[],Y = X,T)] neq [U,[U,1]]", {"X": "{a1}", "T": "{}"}, False, False),
    ("in([{a2,T},ris(Y in 1,[],Y neq a1,{})],1)", {}, False, False),
    ("in({},{[a1,U],ris(Y in a2,[],in(Y,T),T)})", {}, False, False),
    ("nin([[a2,X],ris(Y in 1,[],Y neq a1,Y)],1)", {}, False, False),
    ("in({a1,[{X},ris(Y in T,[],in(Y,T),a1)]},U)", {"T": "a1", "U": "a1"}, False, False),
    ("[[1,1],U] neq [T,ris(Y in a1,[],in(Y,T),{})]", {"U": "{a1}"}, False, False),
    ("{U,{}} = {[a1,X],ris(Y in a1,[],Y neq Y,a2)}", {"U": "1"}, False, False),
    ("[[a1,T],ris(Y in 1,[],true,a2)] = [{X,X},[1,X]]", {"X": "{a1,a2}"}, False, False),
    ("[{{a1,{}}},{U,ris(Y in a1,[],Y neq a1,Y)}] neq T", {"T": "{a1,a2}"}, False, False),
    ("subset(a1,{{U,X},ris(Y in a2,[],in(Y,{a1/U}),1)})", {"U": "{a1}"}, False, False),
    ("in([U,{U}],{X,{ris(Y in a1,[],in(Y,T),Y),{{},a2}}})", {"U": "{a1,a2}"}, False, False),
    ("in([[{},{a2,T}],{[a1,a2],[T,{}]/1}],{{}/{{1/a2},a2}})", {}, False, False),
    ("in({[X,{}],ris(Y in a1,[],Y neq T,Y)},{[1,X]/{a2/1}})", {}, False, False),
    ("in({{X}},{[a2,a2]})", {"X": "{}"}, False, False),
    ("nin(1,ris(Y in T,[],true,[X,{}]))", {"X": "a1", "T": "1"}, False, False),
    ("{ris(Y in 1,[],Y = X,T),1} = a2", {"X": "1", "T": "{a1,a2}"}, False, False),
    ("un(a1,{ris(Y in U,[],Y = X,X)/{U}},X)", {"X": "{a1,a2}", "U": "{a1}"}, False, False),
    ("in(X,ris(Y in {U,1/X},[],in(Y,{a1/U}),U))", {"X": "{a1,a2}", "U": "a1"}, False, False),
    ("{ris(Y in T,[],true,a1),[a2,a2]} = {{},T}", {"T": "1"}, False, False),
    ("in({{a1/T}/{{},U}},{{}/{X/T}})", {"X": "{a1,a2}", "T": "a1", "U": "1"}, False, False),
    ("in([U,{[X,U],{T/T}}],{[ris(Y in a1,[],true,Y),1],a2})", {"X": "{a1}", "T": "{}", "U": "{a2}"}, False, False),
    ("subset(ris(Y in {a1/T},[],true,{a1/Y}),U)", {"T": "{a2}", "U": "{a1,a2}"}, False, False),
    ("subset({{T/1}/{a2,1/T}},{{a2/T}/[1,{}]})", {"T": "{a1,a2}"}, False, False),
    ("disj({X},{{1,X}/ris(Y in a1,[],Y neq Y,Y)})", {"X": "{}"}, False, False),
    ("a1 = [a1,[a1,a2]]", {}, False, False),
    ("un(a1,{{a1/X},T},1)", {"X": "{}", "T": "1"}, False, False),
    ("un([{},a1],a1,ris(Y in {a1,X/1},[],Y neq T,{}))", {"X": "a1", "T": "{}"}, False, False),
    ("nin([T,1],{{ris(Y in T,[],true,Y)/{X,T/a2}}})", {"X": "a1", "T": "1"}, False, False),
    ("U neq U", {"U": "{a1}"}, False, False),
    ("disj({[a1,1]},{{{}/a1},U/ris(Y in 1,[],true,T)})", {"T": "{a2}", "U": "{}"}, False, False),
    ("{ris(Y in T,[],in(Y,{a1/U}),U),{U/U}/{1}} neq [{},{{},T}]", {"T": "1", "U": "{a1,a2}"}, False, False),
    ("{{a1,T}} neq {1,{a1/1}/a1}", {"T": "a1"}, False, False),
    ("subset({{X},[X,T]/[T,a1]},{ris(Y in X,[],Y = X,a1)/{a2}})", {"X": "1", "T": "{}"}, False, False),
    ("un({[{},X]/ris(Y in T,[],Y neq a1,{})},a2,[{1/X},{T,{}/{}}])", {"X": "{a1}", "T": "{a1,a2}"}, False, False),
    ("disj({ris(Y in {},[],Y neq {},U),[U,U]},{{}/[a2,{}]})", {"U": "1"}, False, False),
    ("in(T,{a2,U/ris(Y in a2,[],in(Y,{a1/U}),a1)})", {"T": "{a1}", "U": "1"}, False, False),
    ("disj({T,[a2,[T,1]]},a1)", {"T": "{a1}"}, False, False),
    ("disj({T,{{U},[a1,a2]}/a2},a1)", {"T": "{a2}", "U": "{a1}"}, False, False),
    ("[X,[1,T]] = T", {"X": "a1", "T": "{a1}"}, False, False),
    ("[{U,U},[1,U]] = {[{},X]}", {"X": "{}", "U": "{a2}"}, False, False),
    ("in([{1,U},{}],{{X},[T,a2]})", {"X": "{a2}", "T": "1", "U": "{a2}"}, False, False),
    ("in({[X,a2],{}},{})", {"X": "{}"}, False, False),
    ("[{T},{1/T}] = [T,{{}/1}]", {"T": "{a1}"}, False, False),
    ("{{{},a2},[U,T]/{1}} = ris(Y in {a2,1},[],Y neq a1,{{}})", {"T": "1", "U": "{a1}"}, False, False),
    ("in({U/ris(Y in 1,[],Y = X,T)},a2)", {"X": "1", "T": "{a1}", "U": "1"}, False, False),
    ("disj(ris(Y in {{}/a1},[],true,{{}/X}),a2)", {"X": "{a1}"}, False, False),
    ("[[T,a1],{1,U}] = {{a2,a2}}", {"T": "1", "U": "{}"}, False, False),
    ("un(1,{[T,a1],{1,X/{}}},U)", {"X": "{a2}", "T": "a1", "U": "{}"}, False, False),
    ("subset(T,[{a2},{{1}}])", {"T": "{}"}, False, False),
    ("nin(a1,{[{},a2]/ris(Y in a1,[],true,U)})", {"U": "1"}, False, False),
    ("disj({ris(Y in U,[],Y neq a1,X)/1},{{X,1/X},T})", {"X": "{a1,a2}", "T": "{a1,a2}", "U": "{a2}"}, False, False),
    ("in(a2,{{},X/a1})", {"X": "{a1,a2}"}, False, False),
    ("ris(Y in {{}/U},[],Y neq X,Y) = {}", {"X": "{a1,a2}", "U": "{}"}, False, False),
    ("in({[ris(Y in a2,[],Y neq U,a1),U],[[X,a1],[a2,{}]]},X)", {"X": "{a2}", "U": "{a2}"}, False, False),
    ("in(T,{})", {"T": "{a1}"}, False, False),
    ("in({U,{1,a1}},{T/T})", {"T": "{a2}", "U": "{a1}"}, False, False),
    ("disj(a2,[ris(Y in a2,[],Y neq a1,1),{T/U}])", {"T": "{a2}", "U": "{a1,a2}"}, False, False),
    ("nin(T,a2)", {"T": "1"}, False, False),
    ("T = {}", {"T": "{a1,a2}"}, False, False),
    ("in({[{a2,T/{}},{a1,U}]},[[{},{1/a2}],T])", {"T": "{a1,a2}", "U": "{a1,a2}"}, False, False),
    ("{ris(Y in 1,[],Y neq a1,{})} neq 1", {}, False, False),
    ("in([ris(Y in 1,[],Y neq a1,{}),[a2,U]],a2)", {"U": "{a1}"}, False, False),
    ("in([{},ris(Y in a1,[],true,Y)],a2)", {}, False, False),
    ("subset(1,ris(Y in [1,a2],[],true,[T,X]))", {"X": "{}"}, False, False),
    ("un(ris(Y in [X,T],[],in(Y,{a1/U}),Y),[{1,T},1],[{},1])", {"X": "a1", "T": "{}"}, False, False),
    ("disj(ris(Y in ris(Y in a2,[],true,a2),[],in(Y,T),{Y}),1)", {}, False, False),
    ("un({{U/a2}},[[X,U],{a2,a2/U}],a2)", {"U": "{}"}, False, False),
    ("subset({1,{a1}},{ris(Y in a2,[],in(Y,{a1/U}),{}),X})", {"X": "{a2}"}, False, False),
    ("subset({T,[a1,X]/{a1,X/U}},U)", {"X": "a1", "U": "1"}, False, False),
    ("[a2,{a2/U}] neq [ris(Y in {},[],Y = X,{}),{a1,1}]", {"U": "1"}, False, False),
    ("subset({[1,1],[T,U]/{[1,a1],X/a1}},{{[U,{}]/{X/X}},{}})", {}, False, False),
    ("disj(U,{{{U,X}}/{ris(Y in {},[],in(Y,T),T),a1/[U,1]}})", {"T": "{}", "U": "{a2}"}, False, False),
    ("subset(X,{[U,a1],{{},X/a2}/{a1/1}})", {"X": "a1"}, False, False),
    ("nin({[a1,1],{T,X/a1}},a1)", {"X": "a1"}, False, False),
    ("in([{{}/{}},1],{{},1/{X/a2}})", {}, False, False),
    ("in({{X,1/a1},X},[{},T])", {"T": "{a1}"}, False, False),
    ("subset({{a2/a2},a2/1},U)", {}, False, False),
    ("subset({{T/a1}/{X}},T)", {"T": "a1"}, False, False),
    ("subset({[a2,1],{{},{}/T}/[a1,U]},{ris(Y in X,[],in(Y,T),Y)})", {"X": "{a1}", "T": "1"}, False, False),
    ("in(U,{ris(Y in {},[],Y = X,a2)/1})", {"U": "a1"}, False, False),
    ("un(X,{{T}/X},{{},ris(Y in a1,[],Y neq U,X)/T})", {"X": "{a2}", "T": "{a1,a2}"}, False, False),
    ("nin([[T,1],ris(Y in X,[],in(Y,{a1/U}),Y)],U)", {"X": "a1", "T": "1"}, False, False),
    ("nin({[{{}/a1},{a1}],T},a2)", {}, False, False),
    ("nin(ris(Y in X,[],in(Y,{a1/U}),{}),T)", {"X": "{a1,a2}", "T": "{a1}", "U": "a1"}, True, True),
    ("nin([[U,{}],{a2}],{1/T})", {"T": "{a1}", "U": "a1"}, True, True),
    ("ris(Y in {[a2,a1]/{a1/U}},[],Y = X,{{T}}) neq a1", {"X": "{}", "T": "{a2}", "U": "{a2}"}, True, True),
    ("[1,1] neq T", {"T": "{}"}, True, True),
    ("T neq {T}", {"T": "1"}, True, True),
    ("{a1} neq {}", {}, True, True),
    ("in(T,{a1/{U,{}/T}})", {"T": "{}", "U": "{}"}, True, True),
    ("{[{},[1,X]],{ris(Y in U,[],true,U)}} neq U", {"X": "{}", "U": "{}"}, True, True),
    ("X neq a1", {"X": "{a1,a2}"}, True, True),
    ("{[T,U]/T} neq {{T/T}/{}}", {"T": "{a2}", "U": "{a1,a2}"}, True, True),
    ("ris(Y in a2,[],true,ris(Z in a1,[],Z neq a1,T)) neq a2", {"T": "a1"}, True, True),
    ("{[T,T]} neq T", {"T": "1"}, True, True),
    ("{{[1,a2],{1}}/[T,[a2,{}]]} neq {{[U,a1],[T,X]/T}}", {"X": "a1", "T": "{a2}", "U": "{a1}"}, True, True),
    ("disj({a2,{}},{})", {}, True, True),
    ("U neq ris(Y in a2,[],Y neq a2,ris(Z in U,[],Z neq a1,U))", {"U": "a1"}, True, True),
    ("[{},1] neq {1}", {}, True, True),
    ("nin(U,{1,a2})", {"U": "{a1,a2}"}, True, True),
    ("ris(Y in {{}/T},[],Y neq T,[Y,1]) neq [{U,{}},{}]", {"T": "{a1,a2}", "U": "{a1,a2}"}, True, True),
    ("{[[T,X],{U,X}]/ris(Y in U,[],true,Y)} neq {{},X}", {"X": "a1", "T": "a1", "U": "{a1,a2}"}, True, True),
    ("{1} neq [X,a2]", {"X": "a1"}, True, True),
    ("{{X}/{a2,a1}} neq a1", {"X": "a1"}, True, True),
    ("ris(Y in X,[],in(Y,T),a1) neq [{a1},[a2,[1,T]]]", {"X": "a1", "T": "a1"}, True, True),
    ("{} neq [T,[a2,a1]]", {"T": "{a2}"}, True, True),
    ("X neq {[ris(Y in {},[],Y neq a1,a2),X],a2/T}", {"X": "1", "T": "{a1,a2}"}, True, True),
    ("{{},[a2,ris(Y in {},[],true,{})]} neq {[[a1,X],U]/a2}", {"X": "{}", "U": "{a1}"}, True, True),
    ("{{{}},a2} neq a2", {}, True, True),
    ("1 neq [{a1},{1}]", {}, True, True),
    ("disj(X,{X})", {"X": "{a2}"}, True, True),
    ("nin([{X,{}},a1],U)", {"X": "a1", "U": "{a1,a2}"}, True, True),
    ("disj(X,{[T,X]/{1}})", {"X": "{a1}", "T": "a1"}, True, True),
    ("disj(T,{[a2,{}]})", {"T": "{a1}"}, True, True),
    ("[[{},T],ris(Y in T,[],true,a1)] neq {}", {"T": "{a1,a2}"}, True, True),
    ("disj({[a2,{}],1},ris(Y in {},[],Y = X,{Y/Y}))", {"X": "{a2}"}, True, True),
    ("nin({},ris(Y in {{a1},[T,a2]},[],Y neq a1,Y))", {"T": "{a2}"}, True, True),
    ("disj(ris(Y in T,[],Y = X,[a2,1]),{{{},T}})", {"X": "1", "T": "{}"}, True, True),
    ("nin(U,U)", {"U": "{a2}"}, True, True),
    ("disj(U,U)", {"U": "{}"}, True, True),
    ("{} neq [[X,X],[T,T]]", {"X": "{}", "T": "{a1}"}, True, True),
    ("nin({{T,U}},T)", {"T": "{a1,a2}", "U": "{a2}"}, True, True),
    ("X neq {[{},a2]/{a1,U/U}}", {"X": "{a1,a2}", "U": "{}"}, True, True),
    ("nin(T,ris(Y in {X},[],true,{}))", {"X": "1", "T": "1"}, True, True),
    ("a2 neq [{a2},ris(Y in T,[],Y neq a1,a2)]", {"T": "{}"}, True, True),
    ("{} neq ris(Y in 1,[],in(Y,T),{[1,Y]})", {"T": "a1"}, True, True),
    ("[1,U] neq {{}/ris(Y in U,[],Y neq a1,a2)}", {"U": "{a1,a2}"}, True, True),
    ("disj(ris(Y in {a2},[],Y neq a1,{{},U}),U)", {"U": "{a1}"}, True, True),
    ("[[{1,a2},{a1}],[a2,[a2,a2]]] neq a2", {}, True, True),
    ("{[a2,1]/ris(Y in {},[],in(Y,T),T)} neq [[T,U],{1/U}]", {"T": "{a2}", "U": "{a1}"}, True, True),
    ("1 neq [[{},{}],{U}]", {"U": "{a1}"}, True, True),
    ("disj(ris(Y in {{1},T},[],in(Y,T),Y),{})", {"T": "a1"}, True, True),
    ("nin(ris(Y in X,[],Y = X,{{},U/{}}),X)", {"X": "{a1}"}, True, True),
    ("nin([T,U],{ris(Y in {},[],Y = X,a2)})", {"T": "{a2}", "U": "{a1}"}, True, True),
    ("ris(Y in a1,[],true,ris(Z in U,[],in(Z,{a1/U}),T)) neq U", {"U": "{a1,a2}"}, True, True),
    ("U = ris(Y in U,[],in(Y,T),{X})", {"T": "{a2}", "U": "{}"}, True, True),
    ("{} = ris(Y in {a1},[],Y neq a1,U)", {}, True, True),
    ("ris(Y in a1,[],Y = X,{{a2/X}}) neq 1", {}, True, True),
    ("{[T,X]/a1} neq {{}}", {"X": "{}"}, True, True),
    ("{X/1} neq U", {"U": "1"}, True, True),
    ("disj({X/{a1/{}}},ris(Y in T,[],Y neq Y,{{}/U}))", {"X": "{a2}", "T": "{a2}"}, True, True),
    ("disj(ris(Y in ris(Y in U,[],Y = X,X),[],true,[{},a2]),T)", {"T": "{a1,a2}", "U": "{}"}, True, True),
    ("subset({},{[ris(Y in T,[],Y = X,X),U]/T})", {"T": "{}", "U": "1"}, True, True),
    ("{ris(Y in U,[],in(Y,{a1/U}),X)/[{},T]} neq a2", {"T": "{}", "U": "{a1,a2}"}, True, True),
    ("{[a2,T],U/a2} neq X", {"X": "{}", "U": "{a1}"}, True, True),
    ("ris(Y in {T,a2},[],Y neq Y,{X,a2/X}) neq {{U,1}/1}", {"T": "{a1,a2}", "U": "{a1}"}, True, True),
    ("1 neq ris(Y in {},[],in(Y,T),[a1,{}])", {}, True, True),
    ("1 neq {{U,U},U}", {}, None, "raises"),
    ("subset({{1}},{[{X},X],T})", {"T": "1"}, None, "raises"),
    ("subset(ris(Y in {U,T/U},[],Y neq a1,{U/Y}),{})", {"T": "a1"}, None, "raises"),
    ("subset({[{},X]/ris(Y in U,[],true,Y)},a1)", {}, None, "raises"),
    ("ris(Y in [{},T],[],in(Y,{a1/U}),{a2}) neq {}", {"U": "a1"}, None, "raises"),
    ("subset({{1/{}},[U,a2]/{a1,a2/{}}},a1)", {}, None, "raises"),
    ("nin({{}},X)", {}, None, "raises"),
    ("nin({{{U,a1},[a2,1]}},{{}})", {}, None, "raises"),
    ("nin(X,T)", {"T": "{a2}"}, None, "raises"),
    ("[{X},{a2,T}] = [[T,{}],ris(Y in a2,[],Y = X,U)]", {"X": "{a2}"}, None, "raises"),
    ("subset(ris(Y in {{},T},[],Y neq T,a1),{X/T})", {"X": "{a1}"}, None, "raises"),
    ("in(T,{{T/{{}/a2}},U})", {"U": "{a1}"}, None, "raises"),
    ("in([{T/{}},{U,a1}],ris(Y in {{},a1},[],Y neq a1,a2))", {"U": "{a2}"}, None, "raises"),
    ("nin(a2,{[1,a1],{{}/T}/{a2,a1/X}})", {"T": "{}"}, None, "raises"),
    ("subset({ris(Y in {},[],in(Y,{a1/U}),T)/[U,{}]},{})", {}, None, "raises"),
    ("subset(T,X)", {}, None, "raises"),
    ("in([ris(Y in {1},[],Y neq a1,1),{}],T)", {}, None, "raises"),
    ("{U,{a1}} = {ris(Y in X,[],true,Y)/ris(Y in T,[],true,{})}", {"T": "a1", "U": "{a2}"}, None, "raises"),
    ("disj(X,{{{1,1}/{a2/T}}/X})", {"X": "a1"}, None, "raises"),
    ("in({{},X/ris(Y in T,[],Y neq a1,a2)},{})", {"T": "{a1,a2}"}, None, "raises"),
    ("in({{X,1/{}},{a1}},{[T,a1],X/a2})", {}, None, "raises"),
    ("disj([a1,[ris(Y in X,[],Y neq a1,T),{1,a2/T}]],a2)", {"X": "{a2}"}, None, "raises"),
    ("subset(X,1)", {}, None, "raises"),
    ("[{1,X},{a2/U}] neq {1}", {"X": "{a1,a2}"}, None, "raises"),
    ("disj({X/{{T/T},[T,U]/U}},{{{1/T}/{X,a1}}})", {"U": "{a1}"}, None, "raises"),
    ("in([[a1,X],ris(Y in a2,[],true,{Y})],{ris(Y in U,[],true,[Y,1])})", {"U": "{a1}"}, False, False),
]


def test_partial_assignments_answer_as_pinned():
    wrong = []
    for src, env, if_partial, if_total in PARTIAL_ANSWERS:
        f, assignment = F(src), {v: S.parse_value(t) for v, t in env.items()}
        try:
            total = eval_ground_formula(f, assignment)
        except SetforgeError:
            total = "raises"
        if (eval_ground_formula(f, assignment, partial_ok=True), total) != (if_partial, if_total):
            wrong.append(src)
    assert not wrong, wrong


@pytest.mark.parametrize(
    "src",
    ["ran(3,X)", "ran(seq([0]),X)", "dom(3,X)", "un(A,B,3)", "seq_tail(S,a1)", "lt(a1,X)"],
)
def test_ground_argument_of_the_wrong_kind_is_false(src):
    assert solve(F(src), TINY) == Unsat()


@pytest.mark.parametrize("kind", ["disj", "subset"])
def test_empty_side_decides_only_against_a_set(kind):
    for other in ("3", "a1", "seq([0])"):
        assert solve(F(f"{kind}({{}},B) & B = {other}"), TINY) == Unsat(), other
        assert solve(F(f"B = {other} & {kind}({{}},B)"), TINY) == Unsat(), other
    assert solve(F(f"{kind}({{}},B) & B = {{a1}}"), TINY) == Sat({"B": vset([atom("a1")])})


# -- symmetry breaking: skipped renamings of unused atoms ------------------------------


def test_literal_atoms_count_as_used():
    # a2 is named by a literal, so {a2} is no renaming of {a1}
    r = solve(F("in(a2,X) & nin(a1,X)"), TINY, sorts={"X": SetS(AtomS("addr"))})
    assert r == Sat({"X": vset([atom("a2")])})


def test_literal_atoms_in_comprehension_filters_count_as_used():
    # X keeps no a1 and is not empty; a1 is named only inside the filter
    f = F("X = ris(Z in X,[],Z neq a1,Z) & X neq {}")
    r = solve(f, TINY, sorts={"X": SetS(AtomS("addr"))})
    assert r == Sat({"X": vset([atom("a2")])})


def _every_atom_used(st, ns, by_value, n):
    """Stands in for solver._atom_pool: every scope atom counts as used, so
    no candidate is skipped and each stream is the full one."""
    atoms = scope_atoms(ns, st.scope)
    return (sorted(atoms) if by_value else atoms), []


def test_skipping_renamings_keeps_verdicts_and_witnesses(monkeypatch, count_nodes):
    """Against the full enumeration at atoms=3, where the generated literals
    name only a1 and a2: the same answers, never more nodes, and fewer on
    a good share of the formulas."""
    scope = Scope(atoms_per_namespace=3, int_lo=0, int_hi=1, max_set_card=2, max_seq_len=1)
    pruned = 0
    for gen in (_RandomFormulas(seed=7), _WideFormulas(seed=7)):
        for _ in range(200):
            f = gen.formula()
            sorts = {v: gen.SORTS[v] for v in free_vars(f)}
            count_nodes[0] = 0
            got = solve(f, scope, sorts=sorts)
            nodes = count_nodes[0]
            with monkeypatch.context() as m:
                m.setattr(solver, "_atom_pool", _every_atom_used)
                count_nodes[0] = 0
                full = solve(f, scope, sorts=sorts)
            assert got == full, S.print_formula(f)
            assert nodes <= count_nodes[0], S.print_formula(f)
            pruned += nodes < count_nodes[0]
    assert pruned >= 30, pruned


def test_subset_of_a_ground_set_tries_only_its_subsets(count_nodes):
    # Y's candidates are {} and {a2}, the subsets of X, in every scope.  The
    # neq constraints refute both before they cost a node; un is no tested
    # kind, so with W = Y both are drawn as nodes and the branch fails after
    sets = SetS(AtomS("addr"))
    sorts = {"X": sets, "Y": sets, "W": sets}
    for text, nodes in (
        ("X = {a2} & subset(Y,X) & Y neq {} & Y neq {a2}", 0),
        ("X = {a2} & subset(Y,X) & un(Y,Y,W) & W neq {} & W neq {a2}", 2),
    ):
        for k in (3, 5):
            count_nodes[0] = 0
            assert solve(F(text), Scope(atoms_per_namespace=k, max_set_card=k), sorts=sorts) == Unsat()
            assert count_nodes[0] == nodes, (text, k)


# -- the structural matcher: =, neq and npfun ------------------------------------------

_I, _A = IntS(), AtomS("addr")
_P = TupleS((_I, _I))
_REL = RelS(_A, _I)

# (formula, sorts, verdict, witness as printed values or None, decision
# nodes) at TINY, over each shape the matcher compares: a variable inside
# its own value, tuples, sequences and sets of different shapes and
# lengths, keyed relations with equal keys and clashing values, single
# listed members, empty against non-empty, and npfun's groups of values
# under one key.  Recorded as literal data, like
# test_search_equivalence.PINNED; a node count may only fall.
MATCHER_ROWS = [
    ("X = [X,1]", {"X": _P}, "Unsat", None, 0),
    ("X neq [X,1]", {"X": _P}, "Sat", {"X": "[0,0]"}, 2),
    ("[X,1] = X", {"X": _P}, "Unsat", None, 0),
    ("{X,Y} = {a1,a2}", {"X": _A, "Y": _A}, "Sat", {"X": "a1", "Y": "a2"}, 3),
    ("{X,Y} neq {a1,a2}", {"X": _A, "Y": _A}, "Sat", {"X": "a1", "Y": "a1"}, 2),
    ("[{X,Y},1] = [{a1,a2},Z]", {"X": _A, "Y": _A, "Z": _I}, "Sat", {"X": "a1", "Y": "a2", "Z": "1"}, 3),
    ("[{X,Y},1] neq [{a1,a2},1]", {"X": _A, "Y": _A}, "Sat", {"X": "a1", "Y": "a1"}, 2),
    ("[X,1] = {Y}", {"X": _I, "Y": _P}, "Unsat", None, 0),
    ("[X,1] neq {Y}", {"X": _I, "Y": _P}, "Sat", {"X": "0", "Y": "[0,0]"}, 0),
    ("[X,1] = [Y,1,2]", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("[X,1] neq [Y,1,2]", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "0"}, 0),
    ("[X,1] = [Y,2]", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("[X,1] neq [Y,1]", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "1"}, 3),
    ("[X,Y] neq [Y,X]", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "1"}, 3),
    ("[X,Y] = [Y,X] & X neq Y", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("seq([X]) = seq([Y,1])", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("seq([X]) neq seq([Y,1])", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "0"}, 0),
    ("seq([X,1]) neq seq([X,Y])", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "0"}, 2),
    ("Q = seq([X,1]) & Q neq seq([2,Y])", {"Q": SeqS(_I), "X": _I, "Y": _I}, "Sat", {"Q": "seq([0,1])", "X": "0", "Y": "0"}, 1),
    ("{[a1,1]} = {[a1,X]} & X neq 1", {"X": _I}, "Unsat", None, 0),
    ("{[a1,X],[a2,1]} = {[a1,2],[a2,Y]}", {"X": _I, "Y": _I}, "Sat", {"X": "2", "Y": "1"}, 0),
    ("{[a1,X],[a2,1]} neq {[a1,2],[a2,Y]}", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "0"}, 2),
    ("{[a1,X]} neq {[a1,X]}", {"X": _I}, "Unsat", None, 0),
    ("{[a1,X],[a2,Y]} neq {[a2,Y],[a1,X]}", {"X": _I, "Y": _I}, "Unsat", None, 20),
    ("{[a1,X]} neq {[a2,Y]}", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "0"}, 0),
    ("{[a1,X]} = {[a2,Y]}", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("{[a1,X]} neq {[a1,Y]} & X = Y", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("R neq {[a1,X]}", {"R": _REL, "X": _I}, "Sat", {"R": "{}", "X": "0"}, 1),
    ("R = {[a1,X]} & R neq {[a1,2]}", {"R": _REL, "X": _I}, "Sat", {"R": "{[a1,0]}", "X": "0"}, 1),
    ("{X} = {Y} & X neq Y", {"X": _A, "Y": _A}, "Unsat", None, 0),
    ("{X} neq {Y}", {"X": _A, "Y": _A}, "Sat", {"X": "a1", "Y": "a2"}, 3),
    ("{X} neq {X}", {"X": _A}, "Unsat", None, 0),
    ("{[X,1]} = {[a1,Y]}", {"X": _A, "Y": _I}, "Sat", {"X": "a1", "Y": "1"}, 0),
    ("{[X,1]} neq {[a1,Y]}", {"X": _A, "Y": _I}, "Sat", {"X": "a1", "Y": "0"}, 2),
    ("{X} = {}", {"X": _A}, "Unsat", None, 0),
    ("{X} neq {}", {"X": _A}, "Sat", {"X": "a1"}, 0),
    ("{} neq {[a1,X]}", {"X": _I}, "Sat", {"X": "0"}, 0),
    ("S neq {} & subset(S,{a1})", {"S": SetS(_A)}, "Sat", {"S": "{a1}"}, 2),
    ("S = {} & S neq {X}", {"S": SetS(_A), "X": _A}, "Sat", {"S": "{}", "X": "a1"}, 0),
    ("X neq Y", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "1"}, 3),
    ("X neq X", {"X": _I}, "Unsat", None, 0),
    ("X = Y & X neq Y", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("npfun({[a1,X],[a1,Y]})", {"X": _I, "Y": _I}, "Sat", {"X": "0", "Y": "1"}, 3),
    ("npfun({[a1,X],[a1,X]})", {"X": _I}, "Unsat", None, 0),
    ("npfun({[a1,[X,1]],[a1,[X,2]]})", {"X": _I}, "Sat", {"X": "0"}, 0),
    ("npfun({[a1,[X,1]],[a1,[Y,1]]}) & X = Y", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("npfun({[a1,{X}],[a1,{}]})", {"X": _A}, "Sat", {"X": "a1"}, 0),
    ("npfun({[a1,X],[a2,Y]})", {"X": _I, "Y": _I}, "Unsat", None, 0),
    ("npfun(R) & R neq {}", {"R": _REL}, "Sat", {"R": "{[a1,0],[a1,1]}"}, 6),
    ("oplus(R,{},N) & N neq R", {"R": _REL, "N": _REL}, "Unsat", None, 48),
    ("oplus(R,{[a1,X]},N) & N neq R & pfun(R)", {"R": _REL, "N": _REL, "X": _I}, "Sat", {"N": "{[a1,0]}", "R": "{}", "X": "0"}, 1),
]


@pytest.mark.parametrize("src,sorts,verdict,witness,nodes", MATCHER_ROWS,
                         ids=[row[0] for row in MATCHER_ROWS])
def test_the_matcher_answers_as_recorded(src, sorts, verdict, witness, nodes, count_nodes):
    r = solve(F(src), TINY, sorts=sorts)
    got = None
    if isinstance(r, Sat):
        got = {k: S.print_value(v) for k, v in sorted(r.witness.items())}
    assert (type(r).__name__, got) == (verdict, witness)
    assert count_nodes[0] <= nodes


def test_neq_decide_is_three_valued_and_leaves_env_as_it_was():
    PHole, PSeq, PSet, PTup = solver.PHole, solver.PSeq, solver.PSet, solver.PTup
    a1, a2, one, two = atom("a1"), atom("a2"), IntV(1), IntV(2)
    x, z, y = PHole("X"), PHole("Z"), PHole("Y")  # Y is bound to a1
    cases = [
        (a1, a2, True),
        (a1, a1, False),
        (x, a1, None),
        (x, x, False),
        (y, a1, False),
        (PTup((x, one)), z, None),
        (PTup((x, one)), PTup((x, two)), True),
        (PTup((x, one)), TupV((one, one, one)), True),
        (PSeq((x,)), PTup((x, one)), True),
        (PSet((x,)), EMPTY_SET, True),
        (PTup((x, one)), PTup((z, one)), None),
        (PTup((x, y)), PTup((x, a1)), False),
        (PTup((y, one)), TupV((a1, one)), False),
        (PSet((PTup((a1, x)),)), PSet((PTup((a2, z)),)), True),
        (PSet((PTup((a1, x)),)), SetV([TupV((a1, one))]), None),
        (PSet((x, z)), SetV([a1, a2]), None),
    ]
    for a, b, expected in cases:
        env = {"W": two, "Y": a1}
        assert solver._neq_decide(a, b, env) is expected, (a, b)
        assert list(env.items()) == [("W", two), ("Y", a1)], (a, b)


# -- walks over partial values -------------------------------------------------------


def _random_pval(gen, names, depth):
    """A seeded pval: values, holes named from names, and PTup, PSet and
    PSeq nodes nested up to depth.  As term_pval builds them, a node whose
    children are all values is a value."""
    roll = gen.rng.random()
    if not names or roll < 0.2 or (depth == 0 and roll < 0.5):
        return gen.value(1)
    if depth == 0 or roll < 0.5:
        return solver.PHole(gen.rng.choice(names))
    node = gen.rng.choice([solver.PTup, solver.PSet, solver.PSeq])
    size = gen.rng.randrange(2 if node is solver.PTup else 0, 4)
    elems = [_random_pval(gen, names, depth - 1) for _ in range(size)]
    if all(isinstance(e, Value) for e in elems):
        return solver._GROUND_OF[node](elems)
    return node(elems)


def _random_env(gen, names):
    """A partial env over names, acyclic because a name is bound only to
    pvals over the names after it; some bindings are hole-to-hole chains."""
    env = {}
    for i, name in enumerate(names):
        later, roll = names[i + 1:], gen.rng.random()
        if later and roll < 0.25:
            env[name] = solver.PHole(gen.rng.choice(later))
        elif roll < 0.6:
            env[name] = _random_pval(gen, later, 2)
    return env


def _rebuilt(p, env):
    """resolve as first written: every structure is rebuilt."""
    p = solver._walk(p, env)
    if isinstance(p, (Value, solver.PHole)):
        return p
    rs = [_rebuilt(e, env) for e in p.elems]
    if all(isinstance(r, Value) for r in rs):
        return solver._GROUND_OF[type(p)](rs)
    return type(p)(rs)


def _plain(p):
    """A pval as nested tuples of its node types, hole names and values."""
    if isinstance(p, solver.PHole):
        return ("?", p.var)
    if isinstance(p, Value):
        return p
    return (type(p).__name__, tuple(_plain(e) for e in p.elems))


def _bound_under(p, env):
    if isinstance(p, solver.PHole):
        return p.var in env
    return not isinstance(p, Value) and any(_bound_under(e, env) for e in p.elems)


def test_name_walks_and_resolve_agree_with_the_hole_walks(gen):
    names = [f"H{i}" for i in range(8)]
    kept = rebuilt = 0
    for _ in range(300):
        env = _random_env(gen, names)
        for name in names:
            root = solver._walk(solver.PHole(name), env)
            got = solver._walk_name(name, env)
            assert got == root.var if isinstance(root, solver.PHole) else got is root
            assert solver._open_names(name, env, []) == solver._open_holes(
                solver.PHole(name), env, []
            )
        for _ in range(10):
            p = _random_pval(gen, names, 3)
            got, want = solver.resolve(p, env), _rebuilt(p, env)
            assert type(got) is type(want) and _plain(got) == _plain(want), p
            if isinstance(p, (solver.PTup, solver.PSet, solver.PSeq)) and not isinstance(got, Value):
                if _bound_under(p, env):
                    rebuilt += 1
                else:
                    kept += 1
                    assert got is p, p
    assert kept > 100 and rebuilt > 100, (kept, rebuilt)


def test_an_override_by_nothing_is_no_other_relation(count_nodes):
    # oplus(R,{},N) makes N = R, which the matcher shows once R's keys are
    # decided: fewer nodes than the 3,473 a matcher without value
    # comparisons under equal keys spent on it
    sorts = {"R": _REL, "N": _REL}
    assert solve(F("oplus(R,{},N) & N neq R"), sorts=sorts) == Unsat()
    assert count_nodes[0] < 3473


# -- sort universes -------------------------------------------------------------------

_RECORD = RecordS((("bal", _I), ("code", AtomS("opaque"))))
_SORTS = [
    _A, _I, AnyS(), SetS(_A), _REL, SeqS(_I), TupleS((_A, _I)), _RECORD,
    SetS(_P), SeqS(SetS(_A)), RelS(_A, _RECORD), TupleS((SetS(_A), SeqS(_I))),
]


def test_sort_contains_agrees_with_the_enumerated_universe():
    scope = Scope(atoms_per_namespace=2, int_lo=0, int_hi=1, max_set_card=2, max_seq_len=2)
    larger = Scope(atoms_per_namespace=3, int_lo=-1, int_hi=2, max_set_card=3, max_seq_len=3)
    universes = [set(enumerate_sort(s, scope)) for s in _SORTS]

    def field(name, v):
        return TupV((Atom(name, "field"), v))

    pool = set().union(*universes)
    for s in _SORTS:
        pool.update(itertools.islice(enumerate_sort(s, larger), 300))
    pool.update([
        atom("a0"), atom("a01"), Atom("initial", "opaque"),
        SetV([field("bal", IntV(0))]),  # a record with a missing field
        SetV([field("bal", IntV(0)), field("code", atom("u1")), field("nonce", IntV(0))]),
        TupV((atom("a1"), IntV(0), IntV(1))),  # tuples of the wrong length
        TupV((SetV([]), SeqV([]), SeqV([]))),
        SetV([atom("a1"), TupV((atom("a1"), IntV(0)))]),  # an atom beside a pair
        SetV([TupV((IntV(0), IntV(0))), TupV((IntV(0), IntV(1))), TupV((IntV(1), IntV(0)))]),
    ])
    wrong = [(s, v) for s, universe in zip(_SORTS, universes) for v in pool
             if sort_contains(s, v, scope) != (v in universe)]
    assert not wrong, wrong[:5]
