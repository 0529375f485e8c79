import pytest

from setforge import consensus as CN
from setforge import kernel as K
from setforge import speclang as S
from setforge.errors import (
    KindError,
    NotEnabled,
    NoSuchPacket,
    ScheduleError,
    UnknownNode,
)
from setforge.values import EMPTY_SET, atom, intv, tup, vseq, vset

this = atom("this")
a1, a2, a3, a9 = atom("a1"), atom("a2"), atom("a3"), atom("a9")
n1, n2 = atom("n1"), atom("n2")


def announce(dst, addrs):
    return CN.make_packet(CN.ENV_ADDR, dst, CN.addr_msg(vset(addrs)))


def connect(src, dst):
    return tup(src, dst, CN.CONNECT_MSG)


def forward(src, dst, addrs):
    return tup(src, dst, CN.addr_msg(vset(addrs)))


# -- local transition ------------------------------------------------------------


def test_rcv_addr_from_empty_state():
    s = CN.make_loc_state()
    ps, s2 = CN.rcv_addr(this, s, announce(this, [a1, a2]))
    assert ps == vset([connect(this, a1), connect(this, a2)])
    assert CN.state_known(s2) == vset([a1, a2])


def test_rcv_addr_second_round_notifies_old_peers():
    s = CN.make_loc_state(known=vset([a1, a2]))
    ps, s2 = CN.rcv_addr(this, s, announce(this, [a1, a3]))
    assert CN.state_known(s2) == vset([a1, a2, a3])
    assert ps == vset(
        [
            connect(this, a3),
            forward(this, a1, [a1, a2, a3]),
            forward(this, a2, [a1, a2, a3]),
        ]
    )


def test_rcv_addr_with_nothing_new():
    s = CN.make_loc_state(known=vset([a1]))
    ps, s2 = CN.rcv_addr(this, s, announce(this, [a1]))
    assert ps == vset([forward(this, a1, [a1])])
    assert s2 == s


def test_rcv_addr_without_peers_forwards_nothing():
    # no peer is known, so the payload is never wrapped in a forward and
    # needs no address check
    p = CN.make_packet(CN.ENV_ADDR, this, tup(CN.ADDR_MSG, vset([intv(5)])))
    ps, s2 = CN.rcv_addr(this, CN.make_loc_state(), p)
    assert ps == vset([tup(this, intv(5), CN.CONNECT_MSG)])
    assert CN.state_known(s2) == vset([intv(5)])
    with pytest.raises(KindError):
        CN.rcv_addr(this, CN.make_loc_state(known=vset([a1])), p)


def test_rcv_addr_forwards_one_message_to_every_peer():
    s = CN.make_loc_state(known=vset([a1, a2]))
    ps, _ = CN.rcv_addr(this, s, announce(this, [a3]))
    fwds = [q for q in ps.elems if CN.is_addr_msg(q.elems[2])]
    assert fwds == [forward(this, a1, [a1, a2, a3]), forward(this, a2, [a1, a2, a3])]


def test_rcv_addr_not_addressed_here():
    s = CN.make_loc_state()
    with pytest.raises(NotEnabled):
        CN.rcv_addr(this, s, announce(a1, [a2]))


def test_rcv_addr_wrong_message_kind():
    s = CN.make_loc_state()
    with pytest.raises(NotEnabled):
        CN.rcv_addr(this, s, tup(CN.ENV_ADDR, this, CN.CONNECT_MSG))


def test_rcv_addr_frame_and_monotonicity(gen):
    bf = vset([tup(atom("h1"), atom("u1"))])
    tp = vset([atom("tx1")])
    s = CN.make_loc_state(known=vset([a1]), forest=bf, pool=tp)
    ps, s2 = CN.rcv_addr(this, s, announce(this, [a2, a3]))
    assert K.record_get(s2, atom("bf")) == bf
    assert K.record_get(s2, atom("tp")) == tp
    assert K.subset(CN.state_known(s), CN.state_known(s2))
    for p in ps.elems:
        src, _dst, _ = CN.packet_parts(p)
        assert src == this  # every emission originates at the receiver


# -- delivery engine ----------------------------------------------------------------


def test_deliver_step_runs_the_transition():
    c = CN.init_conf(vset([n1, n2]))
    p = CN.make_packet(n2, n1, CN.addr_msg(vset([a9])))
    c = CN.make_conf(CN.conf_delta(c), vset([p]))
    c2, rec = CN.deliver_step(c, p)
    assert rec.enabled
    s1 = K.apply(CN.conf_delta(c2), n1)
    assert CN.state_known(s1) == vset([a9])
    assert CN.conf_soup(c2) == vset([connect(n1, a9)])


def test_deliver_unknown_destination():
    c = CN.init_conf(vset([n1]))
    p = CN.make_packet(n1, a9, CN.addr_msg(vset([a1])))
    c = CN.make_conf(CN.conf_delta(c), vset([p]))
    with pytest.raises(UnknownNode):
        CN.deliver_step(c, p)


def test_deliver_unknown_destination_before_the_function_question():
    # a node map that is no function cannot come from make_conf
    delta = vset([tup(n1, CN.make_loc_state()), tup(n1, CN.make_loc_state(known=vset([a1])))])
    p = CN.make_packet(n1, a9, CN.CONNECT_MSG)
    c = vset([tup(atom("delta", "field"), delta), tup(atom("soup", "field"), vset([p]))])
    with pytest.raises(UnknownNode):
        CN.deliver_step(c, p)


def test_deliver_packet_not_in_soup():
    c = CN.init_conf(vset([n1]))
    with pytest.raises(NoSuchPacket):
        CN.deliver_step(c, CN.make_packet(n2, n1, CN.CONNECT_MSG))


def test_unhandled_message_is_consumed():
    c = CN.init_conf(vset([n1]))
    p = CN.make_packet(n2, n1, CN.CONNECT_MSG)
    c = CN.make_conf(CN.conf_delta(c), vset([p]))
    c2, rec = CN.deliver_step(c, p)
    assert not rec.enabled
    assert CN.conf_soup(c2) == EMPTY_SET
    assert CN.conf_delta(c2) == CN.conf_delta(c)


def test_deliver_preserves_pfun_and_packet_count():
    c = CN.init_conf(vset([n1, n2]))
    p1 = CN.make_packet(n2, n1, CN.addr_msg(vset([a1, a2])))
    p2 = CN.make_packet(n1, n2, CN.CONNECT_MSG)
    c = CN.make_conf(CN.conf_delta(c), vset([p1, p2]))
    before = len(CN.conf_soup(c).elems)
    c2, rec = CN.deliver_step(c, p1)
    assert K.is_pfun(CN.conf_delta(c2))
    after = len(CN.conf_soup(c2).elems)
    assert after <= before - 1 + len(rec.emitted.elems)


# -- schedules -------------------------------------------------------------------------


def test_empty_schedule():
    c = CN.init_conf(vset([n1]))
    tr = CN.run_schedule(c, [])
    assert tr.confs == (c,)
    assert tr.steps == ()


def test_two_round_walkthrough():
    c = CN.init_conf(vset([this]))
    p1 = announce(this, [a1, a2])
    p2 = announce(this, [a1, a3])
    c = CN.make_conf(CN.conf_delta(c), vset([p1, p2]))
    tr = CN.run_schedule(c, [p1, p2])
    assert len(tr.confs) == 3
    assert CN.state_known(tr.steps[0].state) == vset([a1, a2])
    assert CN.state_known(tr.steps[1].state) == vset([a1, a2, a3])
    assert tr.steps[0].emitted == vset([connect(this, a1), connect(this, a2)])
    assert tr.steps[1].emitted == vset(
        [connect(this, a3), forward(this, a1, [a1, a2, a3]), forward(this, a2, [a1, a2, a3])]
    )


def test_indices_select_in_canonical_order():
    c = CN.init_conf(vset([this]))
    p1 = announce(this, [a1])
    soup = vset([p1])
    c = CN.make_conf(CN.conf_delta(c), soup)
    tr = CN.run_schedule(c, [0])
    assert tr.steps[0].packet == p1
    with pytest.raises(ScheduleError):
        CN.run_schedule(c, [5])
    for flag in (False, True):  # a bool is no index, though Python counts it an int
        with pytest.raises(ScheduleError, match="selector must be an index or a packet"):
            CN.run_schedule(c, [flag])


def test_schedule_error_names_the_step():
    c = CN.init_conf(vset([this]))
    p1 = announce(this, [a1])
    c = CN.make_conf(CN.conf_delta(c), vset([p1]))
    with pytest.raises(ScheduleError) as e:
        CN.run_schedule(c, [p1, p1])
    assert e.value.step == 2


def test_commuting_deliveries_to_distinct_nodes():
    c = CN.init_conf(vset([n1, n2]))
    p1 = CN.make_packet(CN.ENV_ADDR, n1, CN.addr_msg(vset([a1])))
    p2 = CN.make_packet(CN.ENV_ADDR, n2, CN.addr_msg(vset([a2])))
    c = CN.make_conf(CN.conf_delta(c), vset([p1, p2]))
    t12 = CN.run_schedule(c, [p1, p2])
    t21 = CN.run_schedule(c, [p2, p1])
    assert t12.confs[-1] == t21.confs[-1]


# -- construction ------------------------------------------------------------------------


def test_init_conf():
    c1 = CN.init_conf(vset([n1]))
    assert K.dom(CN.conf_delta(c1)) == vset([n1])
    c2 = CN.init_conf(vset([n1, n2]))
    assert K.dom(CN.conf_delta(c2)) == vset([n1, n2])
    assert K.is_pfun(CN.conf_delta(c2))
    assert CN.state_known(K.apply(CN.conf_delta(c2), n1)) == EMPTY_SET
    with pytest.raises(KindError):
        CN.init_conf(EMPTY_SET)


def test_packet_rejects_null_source():
    with pytest.raises(KindError):
        CN.make_packet(CN.NULL_ADDR, n1, CN.CONNECT_MSG)


def test_block_rejects_duplicate_transactions():
    with pytest.raises(KindError):
        CN.make_block(atom("h1"), vseq([atom("tx1"), atom("tx1")]), atom("pr1"))
    b = CN.make_block(atom("h1"), vseq([atom("tx1"), atom("tx2")]), atom("pr1"))
    assert K.record_get(b, atom("txs")) == vseq([atom("tx1"), atom("tx2")])


def test_trace_prints_canonically():
    c = CN.init_conf(vset([this]))
    line = S.print_value(c)
    assert line == "{[delta,{[this,{[as,{}],[bf,{}],[tp,{}]}]}],[soup,{}]}"
