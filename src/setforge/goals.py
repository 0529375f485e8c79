"""Built-in transitions in constraint form, and the shipped proof goals.

Each transition is available twice in this package: as an executable model
(consensus.py, evm.py) and as a constraint formula here, so obligations can
be discharged by the solver while simulations run directly.  The formulas
flatten record plumbing to the fields the transition actually constrains;
variables carry sorts so bounded enumeration knows its universes.
"""

from __future__ import annotations

from ._frozen import Frozen
from .errors import UnknownName
from .formula import C, Formula, Lit, RisT, SetT, TupT, Var, conj
from .solver import prove_implication
from .universe import DEFAULT_SCOPE, AtomS, IntS, RecordS, RelS, Scope, SetS
from .values import Atom, IntV

_THIS = Lit(Atom("this", "addr"))
_CONNECT = Lit(Atom("connectMsg", "msg"))


def _fld(name: str) -> Lit:
    return Lit(Atom(name, "field"))


def _addr_msg_term(payload) -> TupT:
    return TupT((Lit(Atom("addrMsg", "msg")), payload))


ACC_RECORD_SORT = RecordS((("bal", IntS()), ("code", AtomS("opaque")), ("nonce", IntS())))


class Transition(Frozen):
    """A named formula with role-tagged parameters; simultaneously the
    prototype the test generator works on and the proof obligation body."""

    name: str
    before: tuple
    inputs: tuple
    outputs: tuple
    after: tuple
    body: Formula
    sorts: dict

    def fixture_vars(self):
        return self.before + self.inputs


# the receive transition's diff of announced and known peers and its two
# packet comprehensions: greetings to the new peers, and the forward of the
# updated peer set to every known one
_RCV_ADDR_PACKETS = (
    C("diff", Var("Asm"), Var("As"), Var("D")),
    C(
        "eq",
        Var("PsD"),
        RisT("A", Var("D"), Formula(((),)), TupT((_THIS, Var("A"), _CONNECT))),
    ),
    C(
        "eq",
        Var("PsAs"),
        RisT(
            "A",
            Var("As"),
            Formula(((),)),
            TupT((_THIS, Var("A"), _addr_msg_term(Var("As_")))),
        ),
    ),
)

# Receive-addresses transition over the fields it touches: the known peer
# set before/after, the announced set, and the emitted packets.
_RCV_ADDR = Transition(
    name="rcv_addr",
    before=("As",),
    inputs=("Asm",),
    outputs=("Ps",),
    after=("As_",),
    body=conj(
        [
            C("un", Var("As"), Var("Asm"), Var("As_")),
            *_RCV_ADDR_PACKETS,
            C("un", Var("PsD"), Var("PsAs"), Var("Ps")),
        ]
    ),
    sorts={
        "As": SetS(AtomS("addr")),
        "Asm": SetS(AtomS("addr")),
        "As_": SetS(AtomS("addr")),
        "D": SetS(AtomS("addr")),
    },
)

# Checkpoint phase as constraints: validity of the transaction against the
# account map, the sender debit, and the step advance.
_CHECKPOINT = Transition(
    name="checkpoint_state",
    before=("Acc", "Step"),
    inputs=("Sender", "Tn", "Tg", "Tp", "Tv"),
    outputs=(),
    after=("Acc_", "Step_"),
    body=conj(
        [
            C("pfun", Var("Acc")),
            C("eq", Var("Step"), Lit(Atom("initial", "opaque"))),
            # validity: sender known, nonce matches, balance covers the cost
            C("dom", Var("Acc"), Var("DomAcc")),
            C("in", Var("Sender"), Var("DomAcc")),
            C("apply", Var("Acc"), Var("Sender"), Var("A0")),
            C(
                "eq",
                Var("A0"),
                SetT(
                    (
                        TupT((_fld("bal"), Var("B0"))),
                        TupT((_fld("code"), Var("C0"))),
                        TupT((_fld("nonce"), Var("N0"))),
                    )
                ),
            ),
            C("eq", Var("Tn"), Var("N0")),
            C("times", Var("Tg"), Var("Tp"), Var("GasCost")),
            C("plus", Var("GasCost"), Var("Tv"), Var("Cost")),
            C("le", Var("Cost"), Var("B0")),
            # the updated sender account
            C("plus", Var("N0"), Lit(IntV(1)), Var("N1")),
            C("minus", Var("B0"), Var("GasCost"), Var("B1")),
            C(
                "eq",
                Var("A1"),
                SetT(
                    (
                        TupT((_fld("bal"), Var("B1"))),
                        TupT((_fld("code"), Var("C0"))),
                        TupT((_fld("nonce"), Var("N1"))),
                    )
                ),
            ),
            # the after state
            C("oplus", Var("Acc"), SetT((TupT((Var("Sender"), Var("A1"))),)), Var("Acc_")),
            C("eq", Var("Step_"), Lit(Atom("ccbegins", "opaque"))),
        ]
    ),
    sorts={
        "Acc": RelS(AtomS("addr"), ACC_RECORD_SORT),
        "Acc_": RelS(AtomS("addr"), ACC_RECORD_SORT),
        "A0": ACC_RECORD_SORT,
        "A1": ACC_RECORD_SORT,
        "DomAcc": SetS(AtomS("addr")),
        "Sender": AtomS("addr"),
        "Tn": IntS(),
        "Tg": IntS(),
        "Tp": IntS(),
        "Tv": IntS(),
        "N0": IntS(),
        "B0": IntS(),
        "N1": IntS(),
        "B1": IntS(),
        "GasCost": IntS(),
        "Cost": IntS(),
        "C0": AtomS("opaque"),
    },
)

# Built once: a Transition is frozen, and its sorts dict is shared by every
# caller, which copies it before it adds a sort (instantiate_partition, solve).
TRANSITIONS = {t.name: t for t in (_RCV_ADDR, _CHECKPOINT)}


def get_transition(name: str) -> Transition:
    try:
        return TRANSITIONS[name]
    except KeyError:
        known = ", ".join(sorted(TRANSITIONS))
        raise UnknownName(f"unknown transition {name!r}; known: {known}") from None


class ProvedGoal(Frozen):
    name: str
    description: str
    hypothesis: Formula
    conclusion: Formula
    sorts: dict


GOALS = {
    g.name: g
    for g in (
        # the hypothesis deliberately leaves the forwarded peer set As_
        # unconstrained: the packet kinds alone keep the two sets apart
        ProvedGoal(
            name="psd-psas-disjoint",
            description="greeting packets and forward packets never overlap",
            hypothesis=conj(_RCV_ADDR_PACKETS),
            conclusion=conj([C("disj", Var("PsD"), Var("PsAs"))]),
            sorts=_RCV_ADDR.sorts,
        ),
        ProvedGoal(
            name="checkpoint-pfun",
            description="the account map is still a partial function afterwards",
            hypothesis=_CHECKPOINT.body,
            conclusion=conj([C("pfun", Var("Acc_"))]),
            sorts=_CHECKPOINT.sorts,
        ),
    )
}


def get_goal(name: str) -> ProvedGoal:
    try:
        return GOALS[name]
    except KeyError:
        known = ", ".join(sorted(GOALS))
        raise UnknownName(f"unknown goal {name!r}; known: {known}") from None


def prove_goal(name: str, scope: Scope = DEFAULT_SCOPE, budget=None):
    """Verified or Counterexample for a built-in goal at the given scope."""
    g = get_goal(name)
    return prove_implication(g.hypothesis, g.conclusion, scope, sorts=g.sorts, budget=budget)
