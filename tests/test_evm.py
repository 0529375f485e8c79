import itertools

import pytest

from setforge import evm as E
from setforge import kernel as K
from setforge.errors import (
    BalanceUnderflow,
    NotEnabled,
    RejectedTransaction,
    StackUnderflow,
)
from setforge.values import EMPTY_SEQ, atom, intv, tup, vseq, vset

a1, a2 = atom("a1"), atom("a2")
PROG0 = E.toprog(vset())


def world_one(nonce=0, bal=100, step=E.STEP_INITIAL):
    return E.make_world(vset([tup(a1, E.make_acc(nonce, bal, PROG0))]), step=step)


def txn(nonce=0, tg=10, tp=2, tv=0, sender=a1):
    return E.make_transaction(nonce, tg, tp, tv, PROG0, vseq(), sender, E.TT_CONTRACT_CREATION)


def get(r, field):
    return K.record_get(r, atom(field, "field"))


def nat(r, field):
    return get(r, field).n


# -- validity -------------------------------------------------------------------


def test_validity_needs_known_sender():
    assert E.transaction_validity(world_one(), txn(sender=a2)) is False


def test_validity_of_an_absent_sender_asks_no_function_question():
    # acc is no function, but the sender is not in its domain at all
    acc = vset([tup(a1, E.make_acc(0, 100, PROG0)), tup(a1, E.make_acc(1, 100, PROG0))])
    w = E._rec([("acc", acc), ("accCC", vset()), ("newaddr", atom("null")),
                ("step", E.STEP_INITIAL)])
    assert E.transaction_validity(w, txn(sender=a2)) is False


def test_validity_balance_coverage():
    assert E.transaction_validity(world_one(bal=100), txn(tg=10, tp=2)) is True
    assert E.transaction_validity(world_one(bal=19), txn(tg=10, tp=2)) is False
    assert E.transaction_validity(world_one(bal=20), txn(tg=10, tp=2)) is True


def test_validity_nonce_match():
    assert E.transaction_validity(world_one(nonce=4), txn(nonce=4)) is True
    assert E.transaction_validity(world_one(nonce=4), txn(nonce=3)) is False


# -- sender update ---------------------------------------------------------------


def test_update_sender_arithmetic():
    a = E.make_acc(0, 55, PROG0)
    out = E.update_sender(a, 100, 2, 10)
    assert nat(out, "bal") == 80
    assert nat(out, "nonce") == 1
    assert get(out, "code") == PROG0


def test_update_sender_zero_gas_and_boundary():
    a = E.make_acc(3, 7, PROG0)
    assert nat(E.update_sender(a, 7, 5, 0), "bal") == 7
    assert nat(E.update_sender(a, 7, 5, 0), "nonce") == 4
    assert nat(E.update_sender(a, 20, 2, 10), "bal") == 0
    with pytest.raises(BalanceUnderflow):
        E.update_sender(a, 19, 2, 10)


# -- checkpoint -------------------------------------------------------------------


def test_checkpoint_debits_and_advances():
    w2 = E.checkpoint_state(world_one(), txn())
    acc2 = K.apply(get(w2, "acc"), a1)
    assert nat(acc2, "bal") == 80
    assert nat(acc2, "nonce") == 1
    assert get(w2, "step") == E.STEP_CCBEGINS


def test_checkpoint_rejects_invalid():
    w = world_one()
    with pytest.raises(RejectedTransaction):
        E.checkpoint_state(w, txn(nonce=9))
    with pytest.raises(NotEnabled):
        E.checkpoint_state(world_one(step=E.STEP_CCBEGINS), txn())


def test_checkpoint_domain_and_frame(gen):
    extra = tup(a2, E.make_acc(7, 3, PROG0))
    w = E.make_world(vset([tup(a1, E.make_acc(0, 100, PROG0)), extra]))
    w2 = E.checkpoint_state(w, txn())
    acc, acc2 = get(w, "acc"), get(w2, "acc")
    assert K.dom(acc2) == K.dom(acc)
    assert K.is_pfun(acc2)
    assert K.apply(acc2, a2) == K.apply(acc, a2)
    assert nat(K.apply(acc2, a1), "bal") == 100 - 10 * 2
    assert get(w2, "accCC") == get(w, "accCC")
    assert get(w2, "newaddr") == get(w, "newaddr")


# -- memory words -------------------------------------------------------------------


def test_mem_words():
    assert E.mem_words(5, 9, 0) == 5
    assert E.mem_words(0, 0, 64) == 2
    assert E.mem_words(5, 0, 64) == 5
    assert E.mem_words(0, 1, 64) == 3  # straddles a word boundary
    assert E.mem_words(0, 0, 1) == 1


def test_mem_words_monotone_in_i():
    for i in range(6):
        for f in range(4):
            for l in range(0, 70, 7):
                assert E.mem_words(i, f, l) >= min(i, E.mem_words(i + 1, f, l))
                assert E.mem_words(i, f, 0) == i


# -- create, refusing branch ----------------------------------------------------------


def mach(s, g=10, i=0, m=vset()):
    return E.make_machine(g=g, pc=0, m=m, i=i, s=s)


def test_create2_low_balance():
    q = mach(vseq([intv(5), intv(0), intv(64), intv(7)]))
    w = world_one(bal=3)
    q2 = E.create2(q, w, a1, 0)
    assert get(q2, "s") == vseq([intv(0), intv(7)])
    assert nat(q2, "i") == 2
    assert get(q2, "m") == get(q, "m")
    assert nat(q2, "g") == nat(q, "g")
    assert nat(q2, "pc") == nat(q, "pc")


def test_create2_depth_bound():
    q = mach(vseq([intv(1), intv(0), intv(0), intv(9)]))
    w = world_one(bal=100)
    q2 = E.create2(q, w, a1, 1024)
    assert get(q2, "s") == vseq([intv(0), intv(9)])
    assert nat(q2, "i") == 0  # zero-length access leaves the count alone


def test_create2_guard_false_or_short_stack():
    w = world_one(bal=100)
    with pytest.raises(NotEnabled):
        E.create2(mach(vseq([intv(1), intv(0), intv(0)])), w, a1, 0)
    with pytest.raises(StackUnderflow):
        E.create2(mach(vseq([intv(1), intv(0)])), w, a1, 2000)


def test_create2_stack_shrinks_by_two(gen):
    w = world_one(bal=0)
    for extra in range(4):
        s = vseq([intv(1), intv(0), intv(32)] + [intv(9)] * extra)
        q2 = E.create2(mach(s), w, a1, 0)
        s2 = get(q2, "s")
        assert len(s2.elems) == len(s.elems) - 2
        assert s2.elems[0] == intv(0)


# -- create, succeeding branch ---------------------------------------------------------


def callstack(ia=a1, io=a2, ip=2, ie=7, code=None, pc=1):
    code = vseq([E.CREATE_INSTR]) if code is None else code
    return E.make_call_stack(
        vseq([E.make_frame(code, pc)]), vseq([E.make_exec_env(ia, io, ip, ie)])
    )


def test_create_calls_cc_schema():
    mem = vset([tup(intv(0), intv(7)), tup(intv(1), intv(9)), tup(intv(80), intv(1))])
    q = E.make_machine(g=6400, pc=0, m=mem, i=0, s=vseq([intv(5), intv(0), intv(64), intv(7)]))
    w = E.make_world(vset([tup(a1, E.make_acc(2, 100, PROG0))]))
    args, q2, step2 = E.create_calls_cc(w, q, callstack())
    assert args.g == intv(6300)
    assert args.e == intv(8)
    assert args.s == a1 and args.o == a2 and args.p == intv(2)
    assert args.v == intv(5)
    # the init program is the 64-byte memory slice starting at offset 0
    assert args.i == E.toprog(vset([tup(intv(0), intv(7)), tup(intv(1), intv(9))]))
    assert get(q2, "s") == vseq([E.new_addr(a1, 2), intv(7)])
    assert get(q2, "out") == EMPTY_SEQ
    assert nat(q2, "i") == 2
    assert get(q2, "m") == mem and nat(q2, "g") == 6400
    assert step2 == E.STEP_CCBEGINS


def test_create_calls_cc_depth_gate():
    q = mach(vseq([intv(1), intv(0), intv(0), intv(7)]), g=640)
    w = world_one(bal=100)
    args, _, _ = E.create_calls_cc(w, q, callstack(ie=7))
    assert args.e == intv(8)
    with pytest.raises(NotEnabled):
        E.create_calls_cc(w, q, callstack(ie=1024))


def test_create_calls_cc_structural_preconditions():
    q = mach(vseq([intv(1), intv(0), intv(0)]), g=640)
    w = world_one(bal=100)
    with pytest.raises(NotEnabled):
        E.create_calls_cc(w, q, E.make_call_stack())  # no frames
    other = vseq([atom("u1", "opaque")])
    with pytest.raises(NotEnabled):
        E.create_calls_cc(w, q, callstack(code=other))  # instruction is not create


# -- dispatch ----------------------------------------------------------------------------


def test_dispatch_branches():
    w = world_one(bal=100)
    q = mach(vseq([intv(5), intv(0), intv(0), intv(7)]), g=640)
    assert isinstance(E.create_dispatch(q, w, callstack(ie=0), a1, 0), E.Created)
    poor = world_one(bal=3)
    assert isinstance(E.create_dispatch(q, poor, callstack(ie=0), a1, 0), E.NotCreated)
    assert isinstance(E.create_dispatch(q, w, callstack(ie=1024), a1, 1024), E.NotCreated)
    with pytest.raises(StackUnderflow):
        E.create_dispatch(mach(vseq([intv(1)])), w, callstack(), a1, 0)


def test_guard_complementarity_grid():
    """For every balance, stack head and depth, exactly one branch fires."""
    for bal, s1, depth in itertools.product(range(4), range(4), (1023, 1024)):
        w = world_one(bal=bal)
        q = mach(vseq([intv(s1), intv(0), intv(0), intv(7)]), g=64)
        k = callstack(ie=depth)
        create1_enabled = s1 <= bal and depth < 1024
        r = E.create_dispatch(q, w, k, a1, depth)
        assert isinstance(r, E.Created) == create1_enabled, (bal, s1, depth)


# -- abstract helpers ----------------------------------------------------------------------


def test_new_addr_injective_and_deterministic():
    assert E.new_addr(a1, 0) != E.new_addr(a1, 1)
    assert E.new_addr(a1, 0) != E.new_addr(a2, 0)
    assert E.new_addr(a1, 0) == E.new_addr(a1, 0)
    assert E.new_addr(a1, 0).ns == "addr"


def test_toprog_injective():
    assert E.toprog(vset()) == E.toprog(vset())
    c1 = vset([tup(intv(0), intv(7))])
    c2 = vset([tup(intv(0), intv(8))])
    assert E.toprog(c1) != E.toprog(c2)
    window = vset([intv(0), intv(1)])
    m = vset([tup(intv(i), intv(i + 3)) for i in range(4)])
    assert E.toprog(K.dres(window, m)) == E.toprog(vset([tup(intv(0), intv(3)), tup(intv(1), intv(4))]))


def test_gas_withholding_relation():
    w = world_one(bal=10**6)
    for g in (0, 1, 63, 64, 65, 6400, 123456789):
        q = mach(vseq([intv(1), intv(0), intv(0), intv(7)]), g=g)
        args, _, _ = E.create_calls_cc(w, q, callstack())
        kept = args.g.n
        assert kept <= g
        assert g - kept == g // 64
