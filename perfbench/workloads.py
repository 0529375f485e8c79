"""The benchmark's workloads: inputs made from the seed, one pass, and checks.

Every workload is a closed loop driven from one process: the next
operation starts when the previous one returns.  A pass runs every
operation of the workload once and records, per operation, its latency
and its output; `check` then compares the outputs with answers that do
not come from the code under test.  Checking happens after the pass, so
it is not part of any timing.

`prove`, `mbt` and `cli` run fixed shipped inputs and ignore the seed;
`simulate` builds its delivery scenario and its EVM transaction stream
from the seed, and the program sees only the generated text.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

WHY = {
    "prove": "the paper's central question: exhaustive search, propagation and "
             "comprehension re-evaluation over the three shipped goals, nearly all Unsat",
    "mbt": "many short first-witness searches, where pending-constraint re-evaluation, "
           "per-solve compile and the Sat re-check weigh more than comprehensions",
    "simulate": "the only workload where values and kernel are hot (soup hashing, merges); "
                "it bypasses the solver, so solver changes should not move it",
    "cli": "what a user at a terminal waits for: interpreter start and import dominate, "
           "so import-time and start-up changes show here",
}
SEED_AFFECTS_INPUTS = {"prove": False, "mbt": False, "simulate": True, "cli": False}

SCOPES = (3, 4, 5)  # atoms = card = k, default ints
GOALS = ("psd-psas-disjoint", "checkpoint-pfun")

# Expected case statuses (s = satisfiable, i = infeasible) of every operator
# occurrence, derived by hand from the partition tables and the transitions.
MBT_EXPECTED = {
    ("rcv_addr", "un", 1): "ssssssss",
    ("rcv_addr", "diff", 1): "ssssssss",
    ("rcv_addr", "un", 2): "sssiisii",
    ("checkpoint_state", "oplus", 1): "iiissiii",
}
FIXTURE_VARS = {
    "rcv_addr": {"As", "Asm"},
    "checkpoint_state": {"Acc", "Step", "Sender", "Tn", "Tg", "Tp", "Tv"},
}

SIM_NODES = 30
SIM_ANNOUNCEMENTS = 3  # per node, each naming SIM_PEERS other nodes
SIM_PEERS = 3
SIM_DELIVERIES = 300
SIM_WINDOW = 30  # each delivery picks one of the 30 oldest packets
SIM_WORK, SIM_TAIL_WORK, SIM_WORK_SLACK = 1_630_000, 825_000, 0.03
EVM_ACCOUNTS = 300
EVM_TRANSACTIONS = 300

# The README's commands, run at the default scope from the repository root.
CLI_COMMANDS = (
    ("eval-rcvaddr2", ["eval", "scenarios/rcvaddr2.slog"]),
    ("simulate-rcvaddr2", ["simulate", "scenarios/rcvaddr2.json"]),
    ("prove-psd-psas-disjoint", ["prove", "--goal", "psd-psas-disjoint"]),
    ("prove-checkpoint-pfun", ["prove", "--goal", "checkpoint-pfun"]),
    ("prove-checkpoint-ttf", ["prove", "--goal", "checkpoint-ttf"]),
    ("mbt-checkpoint-oplus", ["mbt", "--transition", "checkpoint_state", "--occurrence", "oplus"]),
    ("mbt-rcv-addr-all", ["mbt", "--transition", "rcv_addr", "--all"]),
    ("evm-checkpoint", ["evm", "step", "--op", "checkpoint", "--fixture",
                        "scenarios/evm_checkpoint.json"]),
    ("evm-create", ["evm", "step", "--op", "create", "--fixture", "scenarios/evm_create.json"]),
)
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
OUT_DIR = os.path.join(HERE, "out")


def child_env(root: str) -> dict:
    """Environment for a setforge child process run from the repository root."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SETFORGE_SEED", None)  # the CLI refuses to run with it set
    return env


CAL_REF_S = 0.0015  # probe time at the reference speed all times are scaled to
CAL_EVERY_S = 0.2  # a probe runs before any operation started this long after the last
CAL_WINDOW_S = 0.5  # an interval is scaled by the median probe this close to it


def calibration_s() -> float:
    """Time of a fixed pure-Python job (tuples, hashing, dicts, sorting) that
    never changes, so its time measures the machine's current speed.  The
    best of three runs leaves out an interrupt that hits one of them."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(2200):
            key = (i % 97, (i * 7) % 13, str(i % 50))
            table[key] = table.get(key, 0) + i % 5
        sorted(table.items())
        best = min(best, time.perf_counter() - t0)
    return best


class Op:
    """One operation's outcome: label, start, latency in seconds, output or error."""

    __slots__ = ("label", "start", "seconds", "output", "error")

    def __init__(self, label, start, seconds, output=None, error=None):
        self.label = label
        self.start = start
        self.seconds = seconds
        self.output = output
        self.error = error


class Recorder:
    """Times the operations of a pass, and interleaves calibration probes
    between them so that every interval can be scaled to reference speed.

    A virtual machine whose cores are shared with other tenants can drift
    in speed by up to 2x over minutes (seen on a 2-vCPU VM), which would
    swamp any change in the program.  The probe's
    time at the moment of an interval measures that drift, and
    `scaled(start, seconds)` multiplies the interval by CAL_REF_S over the
    median time of the probes around it."""

    def __init__(self):
        self.ops: list[Op] = []
        self.probes: list[tuple] = []  # (start, seconds) of each calibration probe
        self._mids: list[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        d = calibration_s()
        self.probes.append((t0, d))
        self._mids.append(t0 + d / 2)
        return d

    def op(self, label: str, fn, *args):
        """Run fn(*args) as one operation; returns its output, or None when
        it raised (the Op then carries the error)."""
        if not self.probes or time.perf_counter() - sum(self.probes[-1]) >= CAL_EVERY_S:
            self.probe()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # a raising operation is a failed one, the pass goes on
            self.ops.append(Op(label, t0, time.perf_counter() - t0,
                               error=f"{type(e).__name__}: {e}"))
            return None
        self.ops.append(Op(label, t0, time.perf_counter() - t0, output=out))
        return out

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the median probe time within CAL_WINDOW_S of the
        interval [start, end], or of the probes on either side of it."""
        mids = self._mids
        lo = bisect.bisect_left(mids, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(mids, end + CAL_WINDOW_S)
        if lo >= hi:  # no probe near: take the nearest one on each side
            lo, hi = max(0, lo - 1), min(len(mids), hi + 1)
        return CAL_REF_S / statistics.median(d for _, d in self.probes[lo:hi])

    def scaled(self, start: float, seconds: float) -> float:
        """The interval's duration at reference speed, probe time left out."""
        end = start + seconds
        total, x = 0.0, start
        for p0, d in self.probes:
            if p0 + d <= x:
                continue
            if p0 >= end:
                break
            if p0 > x:
                total += (p0 - x) * self.factor(x, p0)
            x = p0 + d
        if end > x:
            total += (end - x) * self.factor(x, end)
        return total

    def probe_time(self, start: float, seconds: float) -> float:
        """Probe time inside the interval."""
        return sum(d for p0, d in self.probes if start <= p0 < start + seconds)


# -- text of values, read without the code under test ------------------------------


def read_text(s: str):
    """Parse printed setforge values: {..} -> frozenset, [..] -> tuple,
    f(..) -> (f, ..), digits -> int, other names -> str."""
    val, i = _read(s, 0)
    if i != len(s):
        raise ValueError(f"trailing text at {i}: {s[i:i + 20]!r}")
    return val


def _read(s, i):
    c = s[i]
    if c in "{[":
        close = "}" if c == "{" else "]"
        items, i = _read_items(s, i + 1, close)
        return (frozenset(items) if c == "{" else tuple(items)), i
    j = i
    while j < len(s) and (s[j].isalnum() or s[j] in "_-"):
        j += 1
    if j == i:
        raise ValueError(f"unexpected {c!r} at {i}")
    word = s[i:j]
    if j < len(s) and s[j] == "(":
        items, j = _read_items(s, j + 1, ")")
        return (word, *items), j
    return (int(word) if word.lstrip("-").isdigit() else word), j


def _read_items(s, i, close):
    items = []
    if s[i] == close:
        return items, i + 1
    while True:
        v, i = _read(s, i)
        items.append(v)
        if s[i] == close:
            return items, i + 1
        if s[i] != ",":
            raise ValueError(f"expected ',' at {i}")
        i += 1


# -- partition cases over plain Python sets -------------------------------------------


def case_holds(i: int, a: frozenset, b: frozenset, da=None, db=None) -> bool:
    """Case i of the standard partition on operands a, b; cases 4-8 compare
    da, db (the operands themselves unless domains are given)."""
    da = a if da is None else da
    db = b if db is None else db
    if i <= 3:
        return (not a, not b) == ((True, True), (True, False), (False, True))[i - 1]
    if not a or not b:
        return False
    return {
        4: da == db,
        5: db < da,
        6: da.isdisjoint(db),
        7: da < db,
        8: not da.isdisjoint(db) and not db <= da and not da <= db,
    }[i]


def fixture_ok(transition: str, operator: str, ordinal: int, case: int, fx: dict) -> bool:
    """The fixture holds only before-state and input variables and, read as
    plain data, satisfies the transition's precondition and the case."""
    if set(fx or ()) != FIXTURE_VARS[transition]:
        return False
    v = {k: read_text(t) for k, t in fx.items()}
    if transition == "rcv_addr":
        as_, asm = v["As"], v["Asm"]
        if operator == "un" and ordinal == 1:
            return case_holds(case, as_, asm)
        if operator == "diff":
            return case_holds(case, asm, as_)
        known = as_ | asm
        greet = frozenset(("this", a, "connectMsg") for a in asm - as_)
        fwd = frozenset(("this", a, ("addrMsg", known)) for a in as_)
        return case_holds(case, greet, fwd)
    acc = dict(v["Acc"])
    if len(acc) != len(v["Acc"]) or v["Step"] != "initial" or v["Sender"] not in acc:
        return False
    rec = dict(acc[v["Sender"]])
    cost = v["Tg"] * v["Tp"] + v["Tv"]
    if rec["nonce"] != v["Tn"] or rec["bal"] < cost:
        return False
    debit = frozenset({(v["Sender"], None)})
    return case_holds(case, v["Acc"], debit, frozenset(acc), frozenset({v["Sender"]}))


# -- workloads -----------------------------------------------------------------------


class Prove:
    """The shipped goals at atoms=card=3,4,5: one operation per solve."""

    def __init__(self, root, seed):
        from setforge import goals, ttf
        from setforge.universe import Scope

        self.goals, self.ttf, self.Scope = goals, ttf, Scope

    def run_pass(self, rec):
        goals, ttf = self.goals, self.ttf
        for k in SCOPES:
            scope = self.Scope(atoms_per_namespace=k, max_set_card=k)
            for g in GOALS:
                r = rec.op(f"{g}@{k}", goals.prove_goal, g, scope)
                rec.ops[-1].output = type(r).__name__ if r is not None else None
            t = goals.get_transition("checkpoint_state")
            occ = ttf.find_occurrences(t, "oplus")[0]
            for c in ttf.instantiate_partition(occ, t):
                r = rec.op(f"checkpoint-ttf:{c.case.index}@{k}", ttf.prune, [c], scope)
                rec.ops[-1].output = [x.status[0] for x in r] if r is not None else None

    def expected(self):
        want = {}
        for k in SCOPES:
            for g in GOALS:
                want[f"{g}@{k}"] = "Verified"
            for i, s in enumerate(MBT_EXPECTED[("checkpoint_state", "oplus", 1)], 1):
                want[f"checkpoint-ttf:{i}@{k}"] = ["satisfiable" if s == "s" else "infeasible"]
        return want

    def check(self, ops):
        want = self.expected()
        return [op.error is None and op.output == want.get(op.label) for op in ops]


class Mbt:
    """`mbt --all` on both transitions at atoms=card=3,4,5: one operation per
    test condition, deciding it and printing the fixture of a satisfiable one."""

    def __init__(self, root, seed):
        from setforge import goals, speclang, ttf
        from setforge.universe import Scope

        self.goals, self.speclang, self.ttf, self.Scope = goals, speclang, ttf, Scope

    def _condition(self, cond, t, scope):
        [c] = self.ttf.prune([cond], scope)
        fx = None
        if c.satisfiable:
            fixture = self.ttf.derive_test_case(c, t)
            fx = {k: self.speclang.print_value(v) for k, v in sorted(fixture.items())}
        return c.status[0], fx

    def run_pass(self, rec):
        for k in SCOPES:
            scope = self.Scope(atoms_per_namespace=k, max_set_card=k)
            for name in ("rcv_addr", "checkpoint_state"):
                t = self.goals.get_transition(name)
                for occ in self.ttf.find_occurrences(t):
                    for c in self.ttf.instantiate_partition(occ, t):
                        label = f"{name}:{occ.operator}{occ.ordinal}:{c.case.index}@{k}"
                        rec.op(label, self._condition, c, t, scope)

    def check(self, ops):
        oks = []
        for op in ops:
            if op.error is not None:
                oks.append(False)
                continue
            head, _, k = op.label.partition("@")
            name, occ, case = head.split(":")
            operator = occ.rstrip("0123456789")
            ordinal, case = int(occ[len(operator):]), int(case)
            want = MBT_EXPECTED[(name, operator, ordinal)][case - 1]
            status, fx = op.output
            if want == "s":
                oks.append(status == "satisfiable" and fixture_ok(name, operator, ordinal, case, fx))
            else:
                oks.append(status == "infeasible" and fx is None)
        return oks


class Simulate:
    """A seeded delivery scenario replayed as `simulate` does, then a seeded
    stream of EVM checkpoint transactions, each reporting the sender's
    account; the final configuration and world are printed whole.  Expected
    text comes from an independent frozenset model and plain arithmetic."""

    def __init__(self, root, seed):
        from setforge import consensus, evm, kernel, speclang
        from setforge.values import Atom, vset

        self.consensus, self.evm, self.kernel, self.speclang = consensus, evm, kernel, speclang
        self.vset = vset
        self.acc_field, self.step_field = Atom("acc", "field"), Atom("step", "field")
        self.sender_field = Atom("sender", "field")
        self.initial = Atom("initial", "opaque")
        rng = random.Random(seed)
        self.scenario, self.expected_steps, self.expected_final = _gen_scenario(rng)
        self.world_text, self.txs, self.expected_accounts, self.expected_world = _gen_evm(rng)
        self.final = self.final_world = None

    def _deliver(self, conf, sel, i):
        consensus, pv = self.consensus, self.speclang.print_value
        trace = consensus.run_schedule(conf, [sel])
        rec = trace.steps[0]
        state_s = pv(rec.state)
        lines = (
            f"step {i}: deliver {pv(rec.packet)} to {rec.node.name}",
            f"  enabled = {'yes' if rec.enabled else 'no (consumed)'}",
            f"  ps = {pv(rec.emitted)}",
            f"  as = {pv(consensus.state_known(rec.state))}",
        )
        return trace.confs[-1], lines, state_s

    def _checkpoint(self, world, tx_text):
        """One transaction; reports the sender's account and the step."""
        kernel, pv = self.kernel, self.speclang.print_value
        tx = self.speclang.parse_value(tx_text)
        w2 = self.evm.checkpoint_state(world, tx)
        sender = kernel.record_get(tx, self.sender_field)
        account = kernel.apply(kernel.record_get(w2, self.acc_field), sender)
        return w2, (pv(account), pv(kernel.record_get(w2, self.step_field)))

    def run_pass(self, rec):
        self.final = self.final_world = None
        sc, parse = self.scenario, self.speclang.parse_value
        consensus = self.consensus
        nodes = self.vset([parse(n) for n in sc["nodes"]])
        soup = self.vset([parse(p) for p in sc["soup"]])
        schedule = [parse(p) for p in sc["schedule"]]
        conf = consensus.make_conf(consensus.conf_delta(consensus.init_conf(nodes)), soup)
        for i, sel in enumerate(schedule, 1):
            out = rec.op(f"deliver:{i}", self._deliver, conf, sel, i)
            if out is None:
                break
            conf = out[0]
            rec.ops[-1].output = out[1:]
        else:
            self.final = self.speclang.print_value(conf)
        world = parse(self.world_text)
        for j, tx in enumerate(self.txs, 1):
            out = rec.op(f"checkpoint:{j}", self._checkpoint, world, tx)
            if out is None:
                break
            rec.ops[-1].output = out[1]
            if j == len(self.txs):
                self.final_world = self.speclang.print_value(out[0])
            world = self.kernel.record_set(out[0], self.step_field, self.initial)

    def check(self, ops):
        oks = []
        for op in ops:
            kind, _, n = op.label.partition(":")
            if op.error is not None:
                oks.append(False)
            elif kind == "deliver":
                oks.append(op.output == self.expected_steps[int(n) - 1])
            else:
                oks.append(op.output == (self.expected_accounts[int(n) - 1], "ccbegins"))
            # the whole final configuration and world are checked with the last step
            if op.label == f"deliver:{SIM_DELIVERIES}" and self.final != self.expected_final:
                oks[-1] = False
            if op.label == f"checkpoint:{EVM_TRANSACTIONS}" and self.final_world != self.expected_world:
                oks[-1] = False
        return oks


class Cli:
    """The README commands, each as a fresh `python -m setforge.cli` process.
    Stdout must match the golden file byte for byte and the exit code be 0."""

    def __init__(self, root, seed):
        self.root = root
        self.env = child_env(root)
        self.golden = {}
        for name, _ in CLI_COMMANDS:
            with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "rb") as fh:
                self.golden[name] = fh.read()
        self.traced = []  # per-command tracer summaries of the last traced pass

    def _run(self, argv):
        p = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        return p.returncode, p.stdout

    def run_pass(self, rec, traced=False):
        self.traced = []
        tracer_py = os.path.join(HERE, "tracer.py")
        for name, args in CLI_COMMANDS:
            if not traced:
                rec.op(name, self._run, [sys.executable, "-m", "setforge.cli", *args])
                continue
            fd, path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
            os.close(fd)
            try:
                rec.op(name, self._run, [sys.executable, tracer_py, path, *args])
                if os.path.getsize(path):  # empty when the command crashed; check() reports it
                    with open(path, encoding="utf-8") as fh:
                        self.traced.append(json.load(fh))
            finally:
                os.unlink(path)

    def check(self, ops):
        return [op.error is None and op.output == (0, self.golden[op.label]) for op in ops]


WORKLOADS = {"prove": Prove, "mbt": Mbt, "simulate": Simulate, "cli": Cli}


def planned_ops(name: str) -> int:
    """Operations in one pass of the workload."""
    per_scope = {"prove": len(GOALS) + 8, "mbt": sum(len(s) for s in MBT_EXPECTED.values())}
    if name in per_scope:
        return per_scope[name] * len(SCOPES)
    return SIM_DELIVERIES + EVM_TRANSACTIONS if name == "simulate" else len(CLI_COMMANDS)


# -- the simulate inputs and their independent model ------------------------------------
#
# Model values: an address is its name, a packet is (src, dst, msg), msg is
# "connectMsg" or ("addrMsg", frozenset of names).  setforge prints sets in
# structural order: atoms before tuples before sets, tuples and sets of the
# same length by their elements, sets by size first.


def _key(v):
    if isinstance(v, str):
        return (0, v)
    if isinstance(v, tuple):
        return (2, len(v)) + tuple(_key(e) for e in v)
    return (3, len(v)) + tuple(sorted(_key(e) for e in v))


def _text(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        if v[0] == "addrMsg":
            return f"addrMsg({_text(v[1])})"
        return "[" + ",".join(_text(e) for e in v) + "]"
    return "{" + ",".join(_text(e) for e in sorted(v, key=_key)) + "}"


def _state_text(known) -> str:
    return f"{{[as,{_text(known)}],[bf,{{}}],[tp,{{}}]}}"


def _gen_scenario(rng):
    """Scenario text plus the report lines and final configuration the
    rcvAddr model predicts: known' = known | announced, a connectMsg to each
    newcomer, and the new peer set forwarded to each previously known peer.

    Delivery order shapes how fast the soup grows, so a draw is kept only
    when its work (soup packets plus payload addresses, summed over the
    steps) and the part of it in the last fifth of the steps, where the
    slowest deliveries are, are within SIM_WORK_SLACK of SIM_WORK and
    SIM_TAIL_WORK: seeds vary the content of the scenario, not its size."""
    while True:
        *drawn, work, tail = _draw_scenario(rng)
        if (abs(work / SIM_WORK - 1) <= SIM_WORK_SLACK
                and abs(tail / SIM_TAIL_WORK - 1) <= SIM_WORK_SLACK):
            return drawn


def _weight(packet) -> int:
    msg = packet[2]
    return 1 if msg == "connectMsg" else 1 + len(msg[1])


def _draw_scenario(rng):
    nodes = [f"n{i:02d}" for i in range(1, SIM_NODES + 1)]
    soup = []
    for n in nodes:
        others = [m for m in nodes if m != n]
        anns = []
        while len(anns) < SIM_ANNOUNCEMENTS:
            s = frozenset(rng.sample(others, SIM_PEERS))
            if s not in anns:
                anns.append(s)
        soup += [("env", n, ("addrMsg", s)) for s in anns]
    rng.shuffle(soup)
    known = {n: frozenset() for n in nodes}
    live = list(soup)  # the model soup, oldest first
    present = set(live)
    size = sum(map(_weight, live))
    schedule, steps, work, tail = [], [], 0, 0
    for i in range(1, SIM_DELIVERIES + 1):
        p = live.pop(rng.randrange(min(SIM_WINDOW, len(live))))
        present.discard(p)
        size -= _weight(p)
        _src, dst, msg = p
        emitted = frozenset()
        if msg == "connectMsg":
            enabled = False
        else:
            enabled = True
            old, announced = known[dst], msg[1]
            known[dst] = old | announced
            emitted = frozenset(
                [(dst, a, "connectMsg") for a in announced - old]
                + [(dst, a, ("addrMsg", known[dst])) for a in old])
            for q in sorted(emitted, key=_key):
                if q not in present:
                    present.add(q)
                    live.append(q)
                    size += _weight(q)
        work += size
        if i > SIM_DELIVERIES * 4 // 5:
            tail += size
        schedule.append(_text(p))
        steps.append((
            (f"step {i}: deliver {_text(p)} to {dst}",
             f"  enabled = {'yes' if enabled else 'no (consumed)'}",
             f"  ps = {_text(emitted)}",
             f"  as = {_text(known[dst])}"),
            _state_text(known[dst]),
        ))
    delta = ",".join(f"[{n},{_state_text(known[n])}]" for n in nodes)
    final = f"{{[delta,{{{delta}}}],[soup,{_text(frozenset(present))}]}}"
    scenario = {"nodes": nodes, "soup": [_text(p) for p in soup], "schedule": schedule}
    return scenario, steps, final, work, tail


def _gen_evm(rng):
    """A world of accounts a001..a300, valid checkpoint transactions, the
    sender's account text expected after each (nonce + 1, balance minus
    gas * price) and the final world text (every other account unchanged,
    the step at ccbegins)."""
    names = [f"a{i:03d}" for i in range(1, EVM_ACCOUNTS + 1)]
    bal = {a: rng.randint(100_000, 1_000_000) for a in names}
    nonce = {a: rng.randint(0, 9) for a in names}

    def account(a):
        return f"{{[bal,{bal[a]}],[code,prog({{}})],[nonce,{nonce[a]}]}}"

    def world(step):
        acc = ",".join(f"[{a},{account(a)}]" for a in names)
        return f"{{[acc,{{{acc}}}],[accCC,{{}}],[newaddr,null],[step,{step}]}}"


    world0 = world("initial")
    txs, expected = [], []
    for _ in range(EVM_TRANSACTIONS):
        a = rng.choice(names)
        tg, tp, tv = rng.randint(1, 100), rng.randint(1, 20), rng.randint(0, 1000)
        if bal[a] < tg * tp + tv:
            raise RuntimeError("generated an invalid transaction")
        txs.append(f"{{[sender,{a}],[td,seq([])],[tg,{tg}],[ti,prog({{}})],[tn,{nonce[a]}],"
                   f"[tp,{tp}],[tt,contractCreation],[tv,{tv}]}}")
        bal[a] -= tg * tp
        nonce[a] += 1
        expected.append(account(a))
    return world0, txs, expected, world("ccbegins")
