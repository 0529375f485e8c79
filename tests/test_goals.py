import pytest

from setforge import consensus as CN
from setforge import evm as E
from setforge import goals
from setforge import kernel as K
from setforge.errors import SetforgeError, UnknownName
from setforge.solver import Counterexample, Verified, eval_ground_formula, prove_implication
from setforge.universe import DEFAULT_SCOPE, Scope
from setforge.values import atom, intv, tup, vseq, vset


def test_goal_registry_rejects_unknown():
    with pytest.raises(SetforgeError):
        goals.get_goal("nope")
    with pytest.raises(SetforgeError):
        goals.get_transition("nope")


def test_goal_registry_names_only_the_goals_it_proves():
    # checkpoint-ttf is a partition check that only the command line serves
    with pytest.raises(UnknownName) as e:
        goals.prove_goal("checkpoint-ttf")
    assert str(e.value) == "unknown goal 'checkpoint-ttf'; known: checkpoint-pfun, psd-psas-disjoint"


def test_packet_sets_disjointness_verified():
    assert isinstance(goals.prove_goal("psd-psas-disjoint"), Verified)


def test_account_map_preservation_verified():
    assert isinstance(goals.prove_goal("checkpoint-pfun"), Verified)


def test_goals_verified_at_a_smaller_scope_too():
    small = Scope(atoms_per_namespace=2, int_lo=0, int_hi=3, max_set_card=2, max_seq_len=2)
    assert isinstance(goals.prove_goal("psd-psas-disjoint", small), Verified)
    assert isinstance(goals.prove_goal("checkpoint-pfun", small), Verified)


def test_dropping_the_pfun_hypothesis_breaks_preservation():
    """Sanity check that the prover can falsify: without the function-shape
    hypothesis on the account map the conclusion has counterexamples."""
    g = goals.get_goal("checkpoint-pfun")
    (body,) = g.hypothesis.disjuncts
    weakened = goals.Formula((tuple(c for c in body if c.kind != "pfun"),))
    r = prove_implication(weakened, g.conclusion, DEFAULT_SCOPE, sorts=g.sorts)
    assert isinstance(r, Counterexample)
    assert eval_ground_formula(weakened, r.witness) is True
    assert eval_ground_formula(g.conclusion, r.witness) is False


def test_transition_formula_agrees_with_executable_rcv_addr():
    """Dual route: the constraint form and the executable model must tell
    the same story on concrete states."""
    t = goals.get_transition("rcv_addr")
    this = atom("this")
    for known, announced in [
        ([], ["a1", "a2"]),
        (["a1", "a2"], ["a1", "a3"]),
        (["a1"], ["a1"]),
    ]:
        s = CN.make_loc_state(known=vset([atom(x) for x in known]))
        p = CN.make_packet(CN.ENV_ADDR, this, CN.addr_msg(vset([atom(x) for x in announced])))
        ps, s2 = CN.rcv_addr(this, s, p)
        assignment = {
            "As": vset([atom(x) for x in known]),
            "Asm": vset([atom(x) for x in announced]),
            "As_": CN.state_known(s2),
            "Ps": ps,
        }
        # the derived sets are forced; compute them the same way the body does
        assignment["D"] = K.difference(assignment["Asm"], assignment["As"])
        assignment["PsD"] = K.ris_eval(
            assignment["D"], lambda a: True, lambda a: tup(this, a, CN.CONNECT_MSG)
        )
        assignment["PsAs"] = K.ris_eval(
            assignment["As"], lambda a: True, lambda a: tup(this, a, CN.addr_msg(assignment["As_"]))
        )
        assert eval_ground_formula(t.body, assignment) is True


def test_transition_formula_agrees_with_executable_checkpoint():
    t = goals.get_transition("checkpoint_state")
    prog = E.toprog(vset())
    w = E.make_world(vset([tup(atom("a1"), E.make_acc(0, 8, prog))]))
    txn = E.make_transaction(0, 2, 3, 1, prog, vseq(), atom("a1"), E.TT_CONTRACT_CREATION)
    w2 = E.checkpoint_state(w, txn)
    acc, acc2 = K.record_get(w, atom("acc")), K.record_get(w2, atom("acc"))
    old = K.apply(acc, atom("a1"))
    new = K.apply(acc2, atom("a1"))
    assignment = {
        "Acc": acc,
        "Step": E.STEP_INITIAL,
        "DomAcc": K.dom(acc),
        "Sender": atom("a1"),
        "A0": old,
        "B0": K.record_get(old, atom("bal")),
        "C0": K.record_get(old, atom("code")),
        "N0": K.record_get(old, atom("nonce")),
        "Tn": intv(0),
        "Tg": intv(2),
        "Tp": intv(3),
        "Tv": intv(1),
        "GasCost": intv(6),
        "Cost": intv(7),
        "N1": K.record_get(new, atom("nonce")),
        "B1": K.record_get(new, atom("bal")),
        "A1": new,
        "Acc_": acc2,
        "Step_": E.STEP_CCBEGINS,
    }
    assert eval_ground_formula(t.body, assignment) is True
