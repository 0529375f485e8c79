"""The search's answers are pinned: verdict, witness and decision-node count.

PINNED holds, as literal data, what the solver answered before propagation
became incremental (watch lists, a binding trail, a comprehension memo):
the `prove` benchmark's solves at atoms=card=3,4 (both shipped goals and
the eight `checkpoint-ttf` conditions, each refutation solved directly) and
every `mbt --all` condition of `rcv_addr` and `checkpoint_state` at
atoms=card=3.  Any change to the search order shows up here as a changed
witness or node count.  Six rows have since dropped to 0 nodes: the
`psd-psas-disjoint` refutations and `rcv_addr` un2 cases 4, 5, 7 and 8
relate two comprehensions whose patterns clash, and the solver refutes
them before search.  Eleven more have dropped to 0 nodes since the solver's
compile-time rewriting pass refutes them in every scope:
`checkpoint-pfun` at 3 and 4 (a one-pair override of a partial function
is one, so npfun cannot hold), and `checkpoint-ttf` conditions 6, 7 and 8
at 3 and 4, which are also `checkpoint_state` oplus1 cases 6, 7 and 8 (the
sender is in dom Acc, which is the left domain, while the right domain is
exactly {Sender}).  Nine Sat rows have since taken fewer nodes with the
same witness: the search skips a candidate that renames an earlier sibling
by a permutation of atoms no literal and no enumerated binding uses, whose
subtree mirrors one already refuted (`rcv_addr` un1 cases 5, 7 and 8 and
diff1 cases 5, 7 and 8, `checkpoint-ttf` condition 5 at 3 and 4, and
`checkpoint_state` oplus1 case 5, the same condition at 3).  Two of them
have since dropped from 11 to 7 nodes with the same witness: when a
pending subset(A,B) has a ground B, the search tries only the subsets of B
for A (`rcv_addr` un1 case 5 and diff1 case 7).  Twenty Sat rows have
since taken fewer nodes with the same witness (forward checking): a
candidate that a pending in, nin, subset, nsubset, disj, ndisj or neq
refutes on its own, every other argument being ground, is skipped before
it costs a node (`rcv_addr` un1 and diff1 cases 2 to 8, `checkpoint-ttf`
conditions 4 and 5 at 3 and 4, and `checkpoint_state` oplus1 cases 4 and
5).  Un1 and diff1 case 8 fell from 15 to 3 nodes: `As = {a1}` is ground,
so ndisj(As,Asm) and nsubset(As,Asm) reject each candidate for Asm.

WORK pins, for the same solves, the propagation work behind each answer:
the constraint evaluations (`solver._eval_constraint` calls) and the
declared-universe checks (`sort_contains` calls from the search).  A change
that only removes bookkeeping leaves both exactly as they are, so an
evaluation skipped, repeated or moved to another branch shows up here even
when the answer and the node count do not change.
"""

import pytest

from setforge import goals, solver, speclang, ttf
from setforge.formula import conj_formulas, negate
from setforge.universe import Scope

# label -> (verdict, witness as printed values or None, decision nodes)
PINNED = {
    "psd-psas-disjoint@3": ("Unsat", None, 0),
    "checkpoint-pfun@3": ("Unsat", None, 0),
    "checkpoint-ttf:1@3": ("Unsat", None, 0),
    "checkpoint-ttf:2@3": ("Unsat", None, 0),
    "checkpoint-ttf:3@3": ("Unsat", None, 0),
    "checkpoint-ttf:4@3": (
        "Sat",
        {
            "A0": "{[bal,0],[code,u1],[nonce,0]}",
            "A1": "{[bal,0],[code,u1],[nonce,1]}",
            "Acc": "{[a1,{[bal,0],[code,u1],[nonce,0]}]}",
            "Acc_": "{[a1,{[bal,0],[code,u1],[nonce,1]}]}",
            "B0": "0",
            "B1": "0",
            "C0": "u1",
            "Cost": "0",
            "DomAcc": "{a1}",
            "GasCost": "0",
            "N0": "0",
            "N1": "1",
            "Sender": "a1",
            "Step": "initial",
            "Step_": "ccbegins",
            "Tg": "0",
            "Tn": "0",
            "Tp": "0",
            "Tv": "0",
            "_DomL13": "{a1}",
            "_DomR13": "{a1}",
        },
        7,
    ),
    "checkpoint-ttf:5@3": (
        "Sat",
        {
            "A0": "{[bal,0],[code,u1],[nonce,0]}",
            "A1": "{[bal,0],[code,u1],[nonce,1]}",
            "Acc": "{[a1,{[bal,0],[code,u1],[nonce,0]}],[a2,{[bal,0],[code,u1],[nonce,0]}]}",
            "Acc_": "{[a1,{[bal,0],[code,u1],[nonce,1]}],[a2,{[bal,0],[code,u1],[nonce,0]}]}",
            "B0": "0",
            "B1": "0",
            "C0": "u1",
            "Cost": "0",
            "DomAcc": "{a1,a2}",
            "GasCost": "0",
            "N0": "0",
            "N1": "1",
            "Sender": "a1",
            "Step": "initial",
            "Step_": "ccbegins",
            "Tg": "0",
            "Tn": "0",
            "Tp": "0",
            "Tv": "0",
            "_DomL13": "{a1,a2}",
            "_DomR13": "{a1}",
        },
        11,
    ),
    "checkpoint-ttf:6@3": ("Unsat", None, 0),
    "checkpoint-ttf:7@3": ("Unsat", None, 0),
    "checkpoint-ttf:8@3": ("Unsat", None, 0),
    "psd-psas-disjoint@4": ("Unsat", None, 0),
    "checkpoint-pfun@4": ("Unsat", None, 0),
    "checkpoint-ttf:1@4": ("Unsat", None, 0),
    "checkpoint-ttf:2@4": ("Unsat", None, 0),
    "checkpoint-ttf:3@4": ("Unsat", None, 0),
    "checkpoint-ttf:4@4": (
        "Sat",
        {
            "A0": "{[bal,0],[code,u1],[nonce,0]}",
            "A1": "{[bal,0],[code,u1],[nonce,1]}",
            "Acc": "{[a1,{[bal,0],[code,u1],[nonce,0]}]}",
            "Acc_": "{[a1,{[bal,0],[code,u1],[nonce,1]}]}",
            "B0": "0",
            "B1": "0",
            "C0": "u1",
            "Cost": "0",
            "DomAcc": "{a1}",
            "GasCost": "0",
            "N0": "0",
            "N1": "1",
            "Sender": "a1",
            "Step": "initial",
            "Step_": "ccbegins",
            "Tg": "0",
            "Tn": "0",
            "Tp": "0",
            "Tv": "0",
            "_DomL13": "{a1}",
            "_DomR13": "{a1}",
        },
        7,
    ),
    "checkpoint-ttf:5@4": (
        "Sat",
        {
            "A0": "{[bal,0],[code,u1],[nonce,0]}",
            "A1": "{[bal,0],[code,u1],[nonce,1]}",
            "Acc": "{[a1,{[bal,0],[code,u1],[nonce,0]}],[a2,{[bal,0],[code,u1],[nonce,0]}]}",
            "Acc_": "{[a1,{[bal,0],[code,u1],[nonce,1]}],[a2,{[bal,0],[code,u1],[nonce,0]}]}",
            "B0": "0",
            "B1": "0",
            "C0": "u1",
            "Cost": "0",
            "DomAcc": "{a1,a2}",
            "GasCost": "0",
            "N0": "0",
            "N1": "1",
            "Sender": "a1",
            "Step": "initial",
            "Step_": "ccbegins",
            "Tg": "0",
            "Tn": "0",
            "Tp": "0",
            "Tv": "0",
            "_DomL13": "{a1,a2}",
            "_DomR13": "{a1}",
        },
        11,
    ),
    "checkpoint-ttf:6@4": ("Unsat", None, 0),
    "checkpoint-ttf:7@4": ("Unsat", None, 0),
    "checkpoint-ttf:8@4": ("Unsat", None, 0),
    "rcv_addr:un1:1@3": (
        "Sat",
        {
            "As": "{}",
            "As_": "{}",
            "Asm": "{}",
            "D": "{}",
            "Ps": "{}",
            "PsAs": "{}",
            "PsD": "{}",
        },
        0,
    ),
    "rcv_addr:un1:2@3": (
        "Sat",
        {
            "As": "{}",
            "As_": "{a1}",
            "Asm": "{a1}",
            "D": "{a1}",
            "Ps": "{[this,a1,connectMsg]}",
            "PsAs": "{}",
            "PsD": "{[this,a1,connectMsg]}",
        },
        1,
    ),
    "rcv_addr:un1:3@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1}",
            "Asm": "{}",
            "D": "{}",
            "Ps": "{[this,a1,addrMsg({a1})]}",
            "PsAs": "{[this,a1,addrMsg({a1})]}",
            "PsD": "{}",
        },
        1,
    ),
    "rcv_addr:un1:4@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1}",
            "Asm": "{a1}",
            "D": "{}",
            "Ps": "{[this,a1,addrMsg({a1})]}",
            "PsAs": "{[this,a1,addrMsg({a1})]}",
            "PsD": "{}",
        },
        1,
    ),
    "rcv_addr:un1:5@3": (
        "Sat",
        {
            "As": "{a1,a2}",
            "As_": "{a1,a2}",
            "Asm": "{a1}",
            "D": "{}",
            "Ps": "{[this,a1,addrMsg({a1,a2})],[this,a2,addrMsg({a1,a2})]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2})],[this,a2,addrMsg({a1,a2})]}",
            "PsD": "{}",
        },
        3,
    ),
    "rcv_addr:un1:6@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1,a2}",
            "Asm": "{a2}",
            "D": "{a2}",
            "Ps": "{[this,a1,addrMsg({a1,a2})],[this,a2,connectMsg]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2})]}",
            "PsD": "{[this,a2,connectMsg]}",
        },
        2,
    ),
    "rcv_addr:un1:7@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1,a2}",
            "Asm": "{a1,a2}",
            "D": "{a2}",
            "Ps": "{[this,a1,addrMsg({a1,a2})],[this,a2,connectMsg]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2})]}",
            "PsD": "{[this,a2,connectMsg]}",
        },
        2,
    ),
    "rcv_addr:un1:8@3": (
        "Sat",
        {
            "As": "{a1,a2}",
            "As_": "{a1,a2,a3}",
            "Asm": "{a1,a3}",
            "D": "{a3}",
            "Ps": "{[this,a1,addrMsg({a1,a2,a3})],[this,a2,addrMsg({a1,a2,a3})],[this,a3,connectMsg]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2,a3})],[this,a2,addrMsg({a1,a2,a3})]}",
            "PsD": "{[this,a3,connectMsg]}",
        },
        3,
    ),
    "rcv_addr:diff1:1@3": (
        "Sat",
        {
            "As": "{}",
            "As_": "{}",
            "Asm": "{}",
            "D": "{}",
            "Ps": "{}",
            "PsAs": "{}",
            "PsD": "{}",
        },
        0,
    ),
    "rcv_addr:diff1:2@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1}",
            "Asm": "{}",
            "D": "{}",
            "Ps": "{[this,a1,addrMsg({a1})]}",
            "PsAs": "{[this,a1,addrMsg({a1})]}",
            "PsD": "{}",
        },
        1,
    ),
    "rcv_addr:diff1:3@3": (
        "Sat",
        {
            "As": "{}",
            "As_": "{a1}",
            "Asm": "{a1}",
            "D": "{a1}",
            "Ps": "{[this,a1,connectMsg]}",
            "PsAs": "{}",
            "PsD": "{[this,a1,connectMsg]}",
        },
        1,
    ),
    "rcv_addr:diff1:4@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1}",
            "Asm": "{a1}",
            "D": "{}",
            "Ps": "{[this,a1,addrMsg({a1})]}",
            "PsAs": "{[this,a1,addrMsg({a1})]}",
            "PsD": "{}",
        },
        1,
    ),
    "rcv_addr:diff1:5@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1,a2}",
            "Asm": "{a1,a2}",
            "D": "{a2}",
            "Ps": "{[this,a1,addrMsg({a1,a2})],[this,a2,connectMsg]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2})]}",
            "PsD": "{[this,a2,connectMsg]}",
        },
        2,
    ),
    "rcv_addr:diff1:6@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1,a2}",
            "Asm": "{a2}",
            "D": "{a2}",
            "Ps": "{[this,a1,addrMsg({a1,a2})],[this,a2,connectMsg]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2})]}",
            "PsD": "{[this,a2,connectMsg]}",
        },
        2,
    ),
    "rcv_addr:diff1:7@3": (
        "Sat",
        {
            "As": "{a1,a2}",
            "As_": "{a1,a2}",
            "Asm": "{a1}",
            "D": "{}",
            "Ps": "{[this,a1,addrMsg({a1,a2})],[this,a2,addrMsg({a1,a2})]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2})],[this,a2,addrMsg({a1,a2})]}",
            "PsD": "{}",
        },
        3,
    ),
    "rcv_addr:diff1:8@3": (
        "Sat",
        {
            "As": "{a1,a2}",
            "As_": "{a1,a2,a3}",
            "Asm": "{a1,a3}",
            "D": "{a3}",
            "Ps": "{[this,a1,addrMsg({a1,a2,a3})],[this,a2,addrMsg({a1,a2,a3})],[this,a3,connectMsg]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2,a3})],[this,a2,addrMsg({a1,a2,a3})]}",
            "PsD": "{[this,a3,connectMsg]}",
        },
        3,
    ),
    "rcv_addr:un2:1@3": (
        "Sat",
        {
            "As": "{}",
            "As_": "{}",
            "Asm": "{}",
            "D": "{}",
            "Ps": "{}",
            "PsAs": "{}",
            "PsD": "{}",
        },
        2,
    ),
    "rcv_addr:un2:2@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1}",
            "Asm": "{}",
            "D": "{}",
            "Ps": "{[this,a1,addrMsg({a1})]}",
            "PsAs": "{[this,a1,addrMsg({a1})]}",
            "PsD": "{}",
        },
        3,
    ),
    "rcv_addr:un2:3@3": (
        "Sat",
        {
            "As": "{}",
            "As_": "{a1}",
            "Asm": "{a1}",
            "D": "{a1}",
            "Ps": "{[this,a1,connectMsg]}",
            "PsAs": "{}",
            "PsD": "{[this,a1,connectMsg]}",
        },
        3,
    ),
    "rcv_addr:un2:4@3": ("Unsat", None, 0),
    "rcv_addr:un2:5@3": ("Unsat", None, 0),
    "rcv_addr:un2:6@3": (
        "Sat",
        {
            "As": "{a1}",
            "As_": "{a1,a2}",
            "Asm": "{a2}",
            "D": "{a2}",
            "Ps": "{[this,a1,addrMsg({a1,a2})],[this,a2,connectMsg]}",
            "PsAs": "{[this,a1,addrMsg({a1,a2})]}",
            "PsD": "{[this,a2,connectMsg]}",
        },
        5,
    ),
    "rcv_addr:un2:7@3": ("Unsat", None, 0),
    "rcv_addr:un2:8@3": ("Unsat", None, 0),
    "checkpoint_state:oplus1:1@3": ("Unsat", None, 0),
    "checkpoint_state:oplus1:2@3": ("Unsat", None, 0),
    "checkpoint_state:oplus1:3@3": ("Unsat", None, 0),
    "checkpoint_state:oplus1:4@3": (
        "Sat",
        {
            "A0": "{[bal,0],[code,u1],[nonce,0]}",
            "A1": "{[bal,0],[code,u1],[nonce,1]}",
            "Acc": "{[a1,{[bal,0],[code,u1],[nonce,0]}]}",
            "Acc_": "{[a1,{[bal,0],[code,u1],[nonce,1]}]}",
            "B0": "0",
            "B1": "0",
            "C0": "u1",
            "Cost": "0",
            "DomAcc": "{a1}",
            "GasCost": "0",
            "N0": "0",
            "N1": "1",
            "Sender": "a1",
            "Step": "initial",
            "Step_": "ccbegins",
            "Tg": "0",
            "Tn": "0",
            "Tp": "0",
            "Tv": "0",
            "_DomL13": "{a1}",
            "_DomR13": "{a1}",
        },
        7,
    ),
    "checkpoint_state:oplus1:5@3": (
        "Sat",
        {
            "A0": "{[bal,0],[code,u1],[nonce,0]}",
            "A1": "{[bal,0],[code,u1],[nonce,1]}",
            "Acc": "{[a1,{[bal,0],[code,u1],[nonce,0]}],[a2,{[bal,0],[code,u1],[nonce,0]}]}",
            "Acc_": "{[a1,{[bal,0],[code,u1],[nonce,1]}],[a2,{[bal,0],[code,u1],[nonce,0]}]}",
            "B0": "0",
            "B1": "0",
            "C0": "u1",
            "Cost": "0",
            "DomAcc": "{a1,a2}",
            "GasCost": "0",
            "N0": "0",
            "N1": "1",
            "Sender": "a1",
            "Step": "initial",
            "Step_": "ccbegins",
            "Tg": "0",
            "Tn": "0",
            "Tp": "0",
            "Tv": "0",
            "_DomL13": "{a1,a2}",
            "_DomR13": "{a1}",
        },
        11,
    ),
    "checkpoint_state:oplus1:6@3": ("Unsat", None, 0),
    "checkpoint_state:oplus1:7@3": ("Unsat", None, 0),
    "checkpoint_state:oplus1:8@3": ("Unsat", None, 0),
}


# label -> (constraint evaluations, declared-universe checks)
WORK = {
    "psd-psas-disjoint@3": (0, 0),
    "checkpoint-pfun@3": (0, 0),
    "checkpoint-ttf:1@3": (17, 0),
    "checkpoint-ttf:2@3": (20, 1),
    "checkpoint-ttf:3@3": (17, 0),
    "checkpoint-ttf:4@3": (45, 17),
    "checkpoint-ttf:5@3": (80, 19),
    "checkpoint-ttf:6@3": (0, 0),
    "checkpoint-ttf:7@3": (0, 0),
    "checkpoint-ttf:8@3": (0, 0),
    "psd-psas-disjoint@4": (0, 0),
    "checkpoint-pfun@4": (0, 0),
    "checkpoint-ttf:1@4": (17, 0),
    "checkpoint-ttf:2@4": (20, 1),
    "checkpoint-ttf:3@4": (17, 0),
    "checkpoint-ttf:4@4": (45, 17),
    "checkpoint-ttf:5@4": (80, 19),
    "checkpoint-ttf:6@4": (0, 0),
    "checkpoint-ttf:7@4": (0, 0),
    "checkpoint-ttf:8@4": (0, 0),
    "rcv_addr:un1:1@3": (12, 4),
    "rcv_addr:un1:2@3": (18, 4),
    "rcv_addr:un1:3@3": (17, 4),
    "rcv_addr:un1:4@3": (22, 4),
    "rcv_addr:un1:5@3": (48, 5),
    "rcv_addr:un1:6@3": (27, 4),
    "rcv_addr:un1:7@3": (34, 4),
    "rcv_addr:un1:8@3": (68, 5),
    "rcv_addr:diff1:1@3": (12, 4),
    "rcv_addr:diff1:2@3": (17, 4),
    "rcv_addr:diff1:3@3": (18, 4),
    "rcv_addr:diff1:4@3": (21, 4),
    "rcv_addr:diff1:5@3": (34, 4),
    "rcv_addr:diff1:6@3": (27, 4),
    "rcv_addr:diff1:7@3": (48, 5),
    "rcv_addr:diff1:8@3": (68, 5),
    "rcv_addr:un2:1@3": (16, 4),
    "rcv_addr:un2:2@3": (23, 4),
    "rcv_addr:un2:3@3": (22, 4),
    "rcv_addr:un2:4@3": (13, 0),
    "rcv_addr:un2:5@3": (12, 0),
    "rcv_addr:un2:6@3": (36, 4),
    "rcv_addr:un2:7@3": (12, 0),
    "rcv_addr:un2:8@3": (0, 0),
    "checkpoint_state:oplus1:1@3": (17, 0),
    "checkpoint_state:oplus1:2@3": (20, 1),
    "checkpoint_state:oplus1:3@3": (17, 0),
    "checkpoint_state:oplus1:4@3": (45, 17),
    "checkpoint_state:oplus1:5@3": (80, 19),
    "checkpoint_state:oplus1:6@3": (0, 0),
    "checkpoint_state:oplus1:7@3": (0, 0),
    "checkpoint_state:oplus1:8@3": (0, 0),
}


@pytest.fixture
def count_work(monkeypatch):
    """Counts constraint evaluations and declared-universe checks by
    wrapping the solver module's functions, as count_nodes wraps tick.
    Only the declared-universe check calls sort_contains in the search."""
    counter = [0, 0]
    evaluate, contains = solver._eval_constraint, solver.sort_contains

    def counting_eval(*args):
        counter[0] += 1
        return evaluate(*args)

    def counting_contains(*args):
        counter[1] += 1
        return contains(*args)

    monkeypatch.setattr(solver, "_eval_constraint", counting_eval)
    monkeypatch.setattr(solver, "sort_contains", counting_contains)
    return counter


def _solves():
    """(label, formula, scope, sorts) of every pinned solve."""
    for k in (3, 4):
        scope = Scope(atoms_per_namespace=k, max_set_card=k)
        for g in ("psd-psas-disjoint", "checkpoint-pfun"):
            goal = goals.get_goal(g)
            refutation = conj_formulas([goal.hypothesis, negate(goal.conclusion)])
            yield f"{g}@{k}", refutation, scope, goal.sorts
        t = goals.get_transition("checkpoint_state")
        occ = ttf.find_occurrences(t, "oplus")[0]
        for c in ttf.instantiate_partition(occ, t):
            yield f"checkpoint-ttf:{c.case.index}@{k}", c.formula, scope, c.sorts
    scope = Scope(atoms_per_namespace=3, max_set_card=3)
    for name in ("rcv_addr", "checkpoint_state"):
        t = goals.get_transition(name)
        for occ in ttf.find_occurrences(t):
            for c in ttf.instantiate_partition(occ, t):
                label = f"{name}:{occ.operator}{occ.ordinal}:{c.case.index}@3"
                yield label, c.formula, scope, c.sorts


SOLVES = {label: rest for label, *rest in _solves()}


def test_pinned_solves_cover_the_benchmark_and_mbt_conditions():
    assert list(SOLVES) == list(PINNED) == list(WORK)


@pytest.mark.parametrize("label", list(PINNED))
def test_search_answers_are_unchanged(label, count_nodes, count_work):
    formula, scope, sorts = SOLVES[label]
    r = solver.solve(formula, scope, sorts=sorts)
    witness = None
    if isinstance(r, solver.Sat):
        witness = {k: speclang.print_value(v) for k, v in sorted(r.witness.items())}
    assert (type(r).__name__, witness, count_nodes[0]) == PINNED[label]
    assert tuple(count_work) == WORK[label]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_mbt_conditions_take_as_many_nodes_in_every_scope(k, count_nodes):
    # the 32 `mbt --all` conditions took 111, 115 and 119 nodes at 3, 4 and
    # 5 before forward checking: un1 and diff1 case 8 tried every set for
    # Asm against the ground singleton As, two more nodes per scope step
    scope = Scope(atoms_per_namespace=k, max_set_card=k)
    conditions = []
    for name in ("rcv_addr", "checkpoint_state"):
        t = goals.get_transition(name)
        for occ in ttf.find_occurrences(t):
            conditions += ttf.instantiate_partition(occ, t)
    assert len(conditions) == 32
    ttf.prune(conditions, scope)
    assert count_nodes[0] == 57
