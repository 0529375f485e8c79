"""EVM transaction fragment: checkpoint step, sender update, create paths.

World, machine and transaction states are kernel records.  Quantities
(balances, gas, stack words, memory addresses) are arbitrary-precision
non-negative integers; address-like given sets are atoms.  Only the first
transaction phase is modeled: the step field moves from `initial` to
`ccbegins` and the later phases are extension points.
"""

from __future__ import annotations

from . import kernel
from ._frozen import Frozen
from .errors import (
    BalanceUnderflow,
    KindError,
    NotEnabled,
    OutsideDomainError,
    RejectedTransaction,
    SetforgeError,
    StackUnderflow,
)
from .values import EMPTY_SEQ, EMPTY_SET, FIELD_ATOMS, Atom, IntV, SeqV, SetV, TupV, Value, _need_addr

STEP_INITIAL = Atom("initial", "opaque")
STEP_CCBEGINS = Atom("ccbegins", "opaque")
TT_CONTRACT_CREATION = Atom("contractCreation", "opaque")
TT_MESSAGE_CALL = Atom("messageCall", "opaque")
CREATE_INSTR = Atom("create", "opaque")

CREATE_DEPTH_LIMIT = 1024  # bounds simultaneous create calls, not stack size
MEMORY_WORD_BYTES = 32


def _nat(v, what: str) -> int:
    if isinstance(v, IntV):
        v = v.n
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise KindError(f"{what} must be a non-negative integer, got {v!r}")
    return v


def _rec(pairs) -> SetV:
    return SetV([TupV((FIELD_ATOMS[name], v)) for name, v in pairs])


def _get(r: Value, field: str) -> Value:
    return kernel.record_get(r, FIELD_ATOMS[field])


def _get_nat(r: Value, field: str) -> int:
    return _nat(_get(r, field), field)


# -- state constructors ------------------------------------------------------


def make_acc(nonce, bal, code: Value) -> SetV:
    return _rec(
        [("bal", IntV(_nat(bal, "bal"))), ("code", code), ("nonce", IntV(_nat(nonce, "nonce")))]
    )


def make_world(acc: Value, acc_cc: Value = EMPTY_SET, newaddr: Value = None, step: Value = STEP_INITIAL) -> SetV:
    if not kernel.is_pfun(acc) or not kernel.is_pfun(acc_cc):
        raise KindError("account maps must be partial functions")
    if newaddr is None:
        newaddr = Atom("null", "addr")
    return _rec([("acc", acc), ("accCC", acc_cc), ("newaddr", newaddr), ("step", step)])


def make_machine(g, pc, m: Value = EMPTY_SET, i=0, s: Value = EMPTY_SEQ, out: Value = EMPTY_SEQ) -> SetV:
    if not kernel.is_pfun(m):
        raise KindError("memory must be a partial function")
    return _rec(
        [
            ("g", IntV(_nat(g, "g"))),
            ("i", IntV(_nat(i, "i"))),
            ("m", m),
            ("out", out),
            ("pc", IntV(_nat(pc, "pc"))),
            ("s", s),
        ]
    )


def make_transaction(nonce, gas_limit, gas_price, value, init_prog: Value, data: Value, sender: Value, tt: Value) -> SetV:
    return _rec(
        [
            ("sender", _need_addr(sender, "sender")),
            ("td", data),
            ("tg", IntV(_nat(gas_limit, "tg"))),
            ("ti", init_prog),
            ("tn", IntV(_nat(nonce, "tn"))),
            ("tp", IntV(_nat(gas_price, "tp"))),
            ("tt", tt),
            ("tv", IntV(_nat(value, "tv"))),
        ]
    )


def make_exec_env(ia: Value, io: Value, ip, ie) -> SetV:
    return _rec(
        [
            ("ia", _need_addr(ia, "ia")),
            ("ie", IntV(_nat(ie, "ie"))),
            ("io", _need_addr(io, "io")),
            ("ip", IntV(_nat(ip, "ip"))),
        ]
    )


def make_frame(code: Value, pc) -> SetV:
    return _rec([("code", code), ("pc", IntV(_nat(pc, "pc")))])


def make_call_stack(cs: Value = EMPTY_SEQ, ees: Value = EMPTY_SEQ) -> SetV:
    if len(cs.elems) > 0 and len(ees.elems) > 0 and len(cs.elems) != len(ees.elems):
        raise KindError("call frames and execution environments must pair up")
    return _rec([("cs", cs), ("ees", ees)])


# -- operations ----------------------------------------------------------------


def transaction_validity(w: Value, t: Value) -> bool:
    """Sender is a known account, the nonce matches, and the balance covers
    the worst-case gas purchase plus the transferred value."""
    return _valid_sender_account(_get(w, "acc"), _get(t, "sender"), t) is not None


def _valid_sender_account(acc: Value, sender: Value, t: Value):
    """The sender's account in acc when t is valid, else None; acc is asked
    whether it is a function only when it has the sender."""
    if not kernel.in_dom(sender, acc):
        return None
    sender_acc = kernel.apply(acc, sender)
    if _get_nat(t, "tn") != _get_nat(sender_acc, "nonce"):
        return None
    tg, tp, tv = (_get_nat(t, field) for field in ("tg", "tp", "tv"))
    return sender_acc if _get_nat(sender_acc, "bal") >= tg * tp + tv and tg >= 0 else None


def update_sender(a: Value, b, p, g) -> SetV:
    """Debit the gas purchase and count the transaction."""
    b = _nat(b, "balance")
    p = _nat(p, "gas price")
    g = _nat(g, "gas")
    if b < g * p:
        raise BalanceUnderflow(f"balance {b} cannot cover {g} * {p}")
    return make_acc(_get_nat(a, "nonce") + 1, b - g * p, _get(a, "code"))


def checkpoint_state(w: Value, t: Value) -> SetV:
    """First transaction phase: validity check, sender debit, step advance."""
    if _get(w, "step") != STEP_INITIAL:
        raise NotEnabled("world is not at the initial step")
    acc, sender = _get(w, "acc"), _get(t, "sender")
    old = _valid_sender_account(acc, sender, t)
    if old is None:
        raise RejectedTransaction("transaction failed the validity predicate")
    debited = update_sender(old, _get_nat(old, "bal"), _get_nat(t, "tp"), _get_nat(t, "tg"))
    acc2 = kernel.override(acc, SetV([TupV((sender, debited))]))
    if not kernel.is_pfun(acc2):
        # proved impossible (see the bundled preservation goal); re-checked
        # concretely on every call
        raise SetforgeError("internal: account map stopped being a function")
    w2 = kernel.record_set(w, FIELD_ATOMS["acc"], acc2)
    return kernel.record_set(w2, FIELD_ATOMS["step"], STEP_CCBEGINS)


def mem_words(i, f, l) -> int:
    """Active memory words after touching l bytes from offset f; zero-length
    accesses leave the count alone."""
    i = _nat(i, "i")
    f = _nat(f, "offset")
    l = _nat(l, "length")
    if l == 0:
        return i
    return max(i, -((f + l) // -MEMORY_WORD_BYTES))


def _stack(q: Value) -> SeqV:
    s = _get(q, "s")
    if not isinstance(s, SeqV):
        raise KindError("machine stack must be a sequence")
    return s


def _stack_nat(s: SeqV, idx: int) -> int:
    return _nat(kernel.seq_nth(s, idx), f"stack word {idx}")


def create2(q: Value, w: Value, a: Value, n) -> SetV:
    """The refusing branch of create: balance too low or too many active
    creates.  Pops the three arguments and pushes 0; memory accounting still
    happens, nothing else moves."""
    n = _nat(n, "active creates")
    s = _stack(q)
    if len(s.elems) < 3:
        raise StackUnderflow("create needs three stack words")
    if not (n >= CREATE_DEPTH_LIMIT or _stack_nat(s, 1) > _acc_bal(w, a)):
        raise NotEnabled("creation would succeed; the calling branch applies")
    s2 = kernel.seq_concat(SeqV((IntV(0),)), kernel.seq_tail(kernel.seq_tail(kernel.seq_tail(s))))
    i2 = mem_words(_get_nat(q, "i"), _stack_nat(s, 2), _stack_nat(s, 3))
    q2 = kernel.record_set(q, FIELD_ATOMS["s"], s2)
    return kernel.record_set(q2, FIELD_ATOMS["i"], IntV(i2))


def _acc_bal(w: Value, a: Value) -> int:
    return _get_nat(kernel.apply(_get(w, "acc"), a), "bal")


def new_addr(a: Value, nonce) -> Atom:
    """Fresh deterministic address for (creator, nonce); injective because
    the trailing _n<digits> suffix parses back unambiguously."""
    return Atom(f"{_need_addr(a, 'creator').name}_n{_nat(nonce, 'nonce')}", "addr")


def toprog(cells: Value) -> TupV:
    """Pack a memory slice into an opaque program value, injectively."""
    if not kernel.is_pfun(cells):
        raise KindError("program cells must be a partial function")
    return TupV((Atom("prog", "opaque"), cells))


class CreateArgs(Frozen):
    """Arguments handed to the (out-of-scope) contract-creation phase."""

    s: Value  # owner of the executing code
    o: Value  # original transactor
    g: Value  # gas after the 1/64 withholding
    p: Value  # gas price
    v: Value  # transferred value
    i: Value  # initialization program from the memory slice
    e: Value  # create depth

    def to_record(self) -> SetV:
        pairs = [("e", self.e), ("g", self.g), ("i", self.i), ("o", self.o),
                 ("p", self.p), ("s", self.s), ("v", self.v)]
        return _rec(pairs)


def create_calls_cc(w: Value, q: Value, k: Value):
    """The succeeding branch of create, up to the hand-off: compute the
    contract-creation arguments, push the new account's address, clear the
    output buffer and advance the step.  Returns (args, machine', step')."""
    cs = _get(k, "cs")
    ees = _get(k, "ees")
    if len(cs.elems) == 0 or len(ees.elems) == 0:
        raise NotEnabled("no active call frame")
    frame = kernel.seq_nth(cs, 1)
    env = kernel.seq_nth(ees, 1)
    code = _get(frame, "code")
    pc = _get_nat(frame, "pc")
    if not isinstance(code, SeqV) or not 1 <= pc <= len(code.elems):
        raise NotEnabled("frame program counter is outside its code")
    if kernel.seq_nth(code, pc) != CREATE_INSTR:
        raise NotEnabled("current instruction is not create")
    s = _stack(q)
    if len(s.elems) < 3:
        raise StackUnderflow("create needs three stack words")
    ia = _get(env, "ia")
    ie = _get_nat(env, "ie")
    try:
        bal = _acc_bal(w, ia)
        nonce = _get_nat(kernel.apply(_get(w, "acc"), ia), "nonce")
    except OutsideDomainError:
        raise NotEnabled("executing account is unknown to the world") from None
    if _stack_nat(s, 1) > bal:
        raise NotEnabled("balance is too low to fund the creation")
    if ie >= CREATE_DEPTH_LIMIT:
        raise NotEnabled("too many active create calls")
    g = _get_nat(q, "g")
    offset = _stack_nat(s, 2)
    length = _stack_nat(s, 3)
    slice_keys = SetV([IntV(x) for x in range(offset, offset + length)])
    args = CreateArgs(
        s=ia,
        o=_get(env, "io"),
        g=IntV(g - g // 64),
        p=_get(env, "ip"),
        v=kernel.seq_nth(s, 1),
        i=toprog(kernel.dres(slice_keys, _get(q, "m"))),
        e=IntV(ie + 1),
    )
    s2 = kernel.seq_concat(
        SeqV((new_addr(ia, nonce),)),
        kernel.seq_tail(kernel.seq_tail(kernel.seq_tail(s))),
    )
    q2 = kernel.record_set(q, FIELD_ATOMS["s"], s2)
    q2 = kernel.record_set(q2, FIELD_ATOMS["i"], IntV(mem_words(_get_nat(q, "i"), offset, length)))
    q2 = kernel.record_set(q2, FIELD_ATOMS["out"], EMPTY_SEQ)
    return args, q2, STEP_CCBEGINS


class Created(Frozen):
    args: CreateArgs
    machine: Value
    world_step: Value


class NotCreated(Frozen):
    machine: Value


def create_dispatch(q: Value, w: Value, k: Value, a: Value, n):
    """Exactly one of the two create branches applies for any balance and
    depth, provided the stack carries the three arguments."""
    if len(_stack(q).elems) < 3:
        raise StackUnderflow("create needs three stack words")
    try:
        args, q2, step2 = create_calls_cc(w, q, k)
        return Created(args, q2, step2)
    except NotEnabled:
        pass
    return NotCreated(create2(q, w, a, n))
