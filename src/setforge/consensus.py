"""Consensus network model: node-local states, packet soup, delivery engine.

States are plain kernel values (records as sets of field pairs), so traces
print in the same canonical syntax the rest of the toolkit uses.  Only the
address-announcement receiving transition is specified; the delivery engine
dispatches on message kind and consumes packets whose kind has no receiver.
"""

from __future__ import annotations

from . import kernel
from ._frozen import Frozen
from .errors import (
    KindError,
    NoSuchPacket,
    NotEnabled,
    ScheduleError,
    SetforgeError,
    UnknownNode,
)
from .values import EMPTY_SET, FIELD_ATOMS, Atom, SetV, TupV, Value, _need_addr, vset

CONNECT_MSG = Atom("connectMsg", "msg")
ADDR_MSG = Atom("addrMsg", "msg")
ENV_ADDR = Atom("env", "addr")  # reserved source for injected stimulus packets
NULL_ADDR = Atom("null", "addr")

_F_AS, _F_BF, _F_TP, _F_DELTA, _F_SOUP, _F_PREV, _F_TXS, _F_PF = (
    FIELD_ATOMS[name] for name in ("as", "bf", "tp", "delta", "soup", "prev", "txs", "pf"))


def addr_msg(addrs: Value) -> TupV:
    """Announcement carrying a set of peer addresses."""
    if not isinstance(addrs, SetV):
        raise KindError("addrMsg payload must be a set")
    for a in addrs.elems:
        _need_addr(a, "addrMsg payload element")
    return TupV((ADDR_MSG, addrs))


def is_addr_msg(msg: Value) -> bool:
    return isinstance(msg, TupV) and len(msg.elems) == 2 and msg.elems[0] == ADDR_MSG


def addr_msg_payload(msg: Value) -> SetV:
    if not is_addr_msg(msg):
        raise KindError(f"not an addrMsg: {msg!r}")
    return msg.elems[1]


def msg_kind(msg: Value) -> str:
    if isinstance(msg, Atom) and msg.ns == "msg":
        return msg.name
    if isinstance(msg, TupV) and isinstance(msg.elems[0], Atom) and msg.elems[0].ns == "msg":
        return msg.elems[0].name
    raise KindError(f"not a message value: {msg!r}")


def make_packet(src: Value, dst: Value, msg: Value) -> TupV:
    _need_addr(src, "packet source")
    _need_addr(dst, "packet destination")
    if src == NULL_ADDR:
        raise KindError("packet source must not be the reserved null address")
    msg_kind(msg)
    return TupV((src, dst, msg))


def _is_packet(p: Value) -> bool:
    """Whether p has a packet's shape: a (source, destination, message) triple."""
    return isinstance(p, TupV) and len(p.elems) == 3


def packet_parts(p: Value):
    if not _is_packet(p):
        raise KindError(f"not a packet: {p!r}")
    return p.elems[0], p.elems[1], p.elems[2]


def make_block(prev: Value, txs: Value, pf: Value) -> SetV:
    """Block record; transactions are kept duplicate-free."""
    seen = set()
    for t in txs.elems:
        if t in seen:
            raise KindError(f"duplicate transaction in block: {t!r}")
        seen.add(t)
    return SetV([TupV((_F_PREV, prev)), TupV((_F_TXS, txs)), TupV((_F_PF, pf))])


def make_loc_state(known=EMPTY_SET, forest=EMPTY_SET, pool=EMPTY_SET) -> SetV:
    if not kernel.is_pfun(forest):
        raise KindError("block forest must be a partial function")
    return SetV([TupV((_F_AS, known)), TupV((_F_BF, forest)), TupV((_F_TP, pool))])


def state_known(s: Value) -> SetV:
    return kernel.record_get(s, _F_AS)


def make_conf(delta: Value, soup: Value = EMPTY_SET) -> SetV:
    if not kernel.is_pfun(delta):
        raise KindError("node map must be a partial function")
    return SetV([TupV((_F_DELTA, delta)), TupV((_F_SOUP, soup))])


def conf_delta(c: Value) -> SetV:
    return kernel.record_get(c, _F_DELTA)


def conf_soup(c: Value) -> SetV:
    return kernel.record_get(c, _F_SOUP)


def init_conf(nodes: Value) -> SetV:
    """All nodes start with empty knowledge and an empty soup."""
    if not isinstance(nodes, SetV) or len(nodes.elems) == 0:
        raise KindError("need a non-empty set of node addresses")
    fresh = make_loc_state()
    delta = SetV([TupV((_need_addr(n, "node"), fresh)) for n in nodes.elems])
    return make_conf(delta)


def rcv_addr(self_addr: Atom, s: Value, p: Value):
    """Receive an address announcement: learn the new peers, greet them,
    and forward the updated peer set to the previously known ones.

    Returns (emitted packet set, new local state).  The block forest and
    transaction pool are untouched.
    """
    _src, dst, msg = packet_parts(p)
    if dst != self_addr:
        raise NotEnabled("packet is not addressed to this node")
    if not is_addr_msg(msg):
        raise NotEnabled("not an address announcement")
    announced = addr_msg_payload(msg)
    known = state_known(s)
    known_new = kernel.union(known, announced)
    newcomers = kernel.difference(announced, known)
    greetings = kernel.ris_eval(
        newcomers, lambda a: True, lambda a: TupV((self_addr, a, CONNECT_MSG))
    )
    # one message for every forward; with no peer known none is built, so
    # the payload then needs no address check
    fwd = addr_msg(known_new) if known.elems else None
    forwards = kernel.ris_eval(known, lambda a: True, lambda a: TupV((self_addr, a, fwd)))
    if not kernel.disjoint(greetings, forwards):
        # proved impossible (see the bundled disjointness goal); re-checked
        # concretely on every call
        raise SetforgeError("internal: greeting and forward packet sets overlap")
    ps = kernel.union(greetings, forwards)
    s2 = kernel.record_set(s, _F_AS, known_new)
    return ps, s2


# message kind -> local transition (self, state, packet) -> (ps, state')
_RECEIVERS = {"addrMsg": rcv_addr}


class DeliveryRecord(Frozen):
    packet: Value
    node: Atom
    enabled: bool
    emitted: SetV
    state: Value


def deliver_step(c: Value, p: Value):
    """Deliver one packet from the soup.  Unhandled or not-enabled messages
    are consumed without a state change.  Returns (new conf, record)."""
    delta = conf_delta(c)
    soup = conf_soup(c)
    if p not in soup:
        raise NoSuchPacket(f"packet not in soup: {p!r}")
    _src, dst, msg = packet_parts(p)
    if not kernel.in_dom(dst, delta):
        raise UnknownNode(f"packet destination {dst.name} is not a known node")
    state = kernel.apply(delta, dst)
    handler = _RECEIVERS.get(msg_kind(msg))
    enabled = False
    emitted, state2 = EMPTY_SET, state
    if handler is not None:
        try:
            emitted, state2 = handler(dst, state, p)
            enabled = True
        except NotEnabled:
            pass
    delta2 = kernel.override(delta, vset([TupV((dst, state2))]))
    soup2 = kernel.union(kernel.difference(soup, vset([p])), emitted)
    conf2 = make_conf(delta2, soup2)
    return conf2, DeliveryRecord(p, dst, enabled, emitted, state2)


class Trace(Frozen):
    confs: tuple  # length = number of steps + 1
    steps: tuple  # DeliveryRecord per step


def _select_packet(soup: SetV, selector, stepno: int) -> Value:
    if type(selector) is int:  # a bool is no index
        if not 0 <= selector < len(soup.elems):
            raise ScheduleError(stepno, f"index {selector} outside soup of size {len(soup.elems)}")
        return soup.elems[selector]
    if isinstance(selector, Value):
        if selector not in soup:
            raise ScheduleError(stepno, f"packet not in soup: {selector!r}")
        return selector
    raise ScheduleError(stepno, f"selector must be an index or a packet, got {selector!r}")


def run_schedule(c0: Value, schedule) -> Trace:
    """Replay a deterministic delivery schedule.  Each selector picks a
    packet from the current soup, by canonical index or literally."""
    confs = [c0]
    steps = []
    c = c0
    for i, selector in enumerate(schedule, start=1):
        p = _select_packet(conf_soup(c), selector, i)
        try:
            c, rec = deliver_step(c, p)
        except (NoSuchPacket, UnknownNode) as e:
            raise ScheduleError(i, str(e)) from None
        confs.append(c)
        steps.append(rec)
    return Trace(tuple(confs), tuple(steps))
