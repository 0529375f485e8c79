"""Command-line entry point.

Subcommands: eval, simulate, prove, mbt, evm step.  Each computes its
result once and returns it as (exit status, text lines, JSON payload); main
prints the lines, or the payload with --json.  Identical invocations on
identical files produce byte-identical output.  Exit status: 0 when the
command succeeded (witness found, theorem verified, simulation completed), 1
when a goal was falsified or an input rejected, 2 on usage or syntax errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import consensus, evm, goals, speclang, ttf
from .errors import KindError, ParseError, SetforgeError, UnknownName
from .solver import Unsat, UnknownOutcome, Verified, solve
from .universe import DEFAULT_SCOPE, Scope
from .values import vset


class _UsageError(SetforgeError):
    pass


def parse_scope(text: str) -> Scope:
    """--scope default | atoms=K,ints=LO..HI,card=C,seq=L (partial allowed)."""
    if text in ("default", ""):
        return DEFAULT_SCOPE
    kw = {}
    for part in text.split(","):
        if "=" not in part:
            raise _UsageError(f"bad scope fragment {part!r}")
        key, val = part.split("=", 1)
        key = key.strip()
        val = val.strip()
        try:
            if key == "atoms":
                kw["atoms_per_namespace"] = int(val)
            elif key == "ints":
                lo, hi = val.split("..", 1)
                kw["int_lo"] = int(lo)
                kw["int_hi"] = int(hi)
            elif key == "card":
                kw["max_set_card"] = int(val)
            elif key == "seq":
                kw["max_seq_len"] = int(val)
            else:
                raise _UsageError(f"unknown scope key {key!r}")
        except ValueError:
            raise _UsageError(f"bad scope value {val!r} for {key}") from None
    try:
        return Scope(**kw)
    except KindError as e:
        raise _UsageError(f"bad scope {text!r}: {e}") from None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"cannot read {path}: {e}") from None


def _read_json(path: str, what: str):
    """The JSON document in path; what names it in the error messages."""
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise ParseError(f"bad {what} JSON: {e.msg}", e.lineno, e.colno) from None
    except RecursionError:
        raise _UsageError(f"bad {what} JSON: nested too deeply") from None


def _witness_strings(witness: dict) -> dict:
    return {k: speclang.print_value(v) for k, v in sorted(witness.items())}


def _answer(r, scope, model: str, no_model: str) -> dict:
    """The verdict fields of a solver answer: `model` with the witness and
    the scope for Sat or Counterexample, `no_model` with the scope for Unsat
    or Verified, and unknown with the reason for Unknown."""
    if isinstance(r, (Unsat, Verified)):
        return {"verdict": no_model, "scope": scope.describe()}
    if hasattr(r, "witness"):
        return {"verdict": model, "witness": _witness_strings(r.witness),
                "scope": scope.describe()}
    return {"verdict": "unknown", "reason": r.reason}


def _verdict(payload: dict, heads: dict, *body: str):
    """The report of a verdict: the head line that `heads` gives for
    payload["verdict"] (or "Unknown: reason"), filled in from the payload,
    then `body`, then the witness, one `  name = value` per line.  Exit 0 for
    sat or verified, else 1."""
    verdict = payload["verdict"]
    head = "Unknown: {reason}" if verdict == "unknown" else heads[verdict]
    lines = [head.format(**payload), *body]
    lines += [f"  {k} = {v}" for k, v in payload.get("witness", {}).items()]
    return (0 if verdict in ("sat", "verified") else 1), lines, payload


def _pick_formula(path: str, goal_name):
    clauses, main = speclang.parse_file(_read(path))
    if goal_name:
        if goal_name not in clauses:
            raise _UsageError(f"no clause {goal_name!r} in {path}")
        return clauses[goal_name].body
    if main is not None:
        return main
    if len(clauses) == 1:
        return next(iter(clauses.values())).body
    raise _UsageError(f"{path} has several clauses; pick one with --goal")


# -- subcommands --------------------------------------------------------------


def cmd_eval(args):
    scope = parse_scope(args.scope)
    r = solve(_pick_formula(args.file, args.goal), scope)
    return _verdict({"command": "eval", **_answer(r, scope, "sat", "unsat")},
                    {"sat": "Sat", "unsat": "Unsat (scope: {scope})"})


def _parse_entry(src: str, where: str):
    """parse_value, with a ParseError prefixed by the JSON entry that holds
    src; its line and column stay those within src."""
    try:
        return speclang.parse_value(src)
    except ParseError as e:
        raise ParseError(f"{where}: {e.message}", e.line, e.col, e.token) from None


def _entries(entries, field: str) -> list:
    """entries, the value of a scenario's field, when it is a JSON list;
    TypeError otherwise."""
    if type(entries) is not list:
        raise TypeError(f"{field} is no list")
    return entries


def _packet(src: str, where: str):
    """The packet that src gives; KindError naming its entry otherwise."""
    p = _parse_entry(src, where)
    if not consensus._is_packet(p):
        raise KindError(f"{where}: not a packet: {p!r}")
    return p


def _load_scenario(path: str):
    obj = _read_json(path, "scenario")
    try:
        nodes = vset([_parse_entry(n, f"nodes[{i}]")
                      for i, n in enumerate(_entries(obj["nodes"], "nodes"))])
        soup = vset([_packet(p, f"soup[{i}]")
                     for i, p in enumerate(_entries(obj.get("soup", []), "soup"))])
        schedule = []
        for i, sel in enumerate(_entries(obj.get("schedule", []), "schedule")):
            schedule.append(sel if type(sel) is int else _parse_entry(sel, f"schedule[{i}]"))
        this = _parse_entry(obj["this"], "this") if "this" in obj else None
    except (KeyError, TypeError) as e:
        raise _UsageError(f"scenario is missing or mistypes a field: {e}") from None
    if this is not None and this not in nodes:
        raise _UsageError(f"focal node {speclang.print_value(this)} is not in nodes")
    conf = consensus.make_conf(consensus.conf_delta(consensus.init_conf(nodes)), soup)
    return conf, schedule, this


def cmd_simulate(args):
    conf, schedule, _this = _load_scenario(args.scenario)
    trace = consensus.run_schedule(conf, schedule)
    lines = []
    steps = []
    for i, rec in enumerate(trace.steps, 1):
        step = {
            "step": i,
            "packet": speclang.print_value(rec.packet),
            "node": rec.node.name,
            "enabled": rec.enabled,
            "ps": speclang.print_value(rec.emitted),
            "state": speclang.print_value(rec.state),
            "as": speclang.print_value(consensus.state_known(rec.state)),
        }
        steps.append(step)
        lines.append(f"step {i}: deliver {step['packet']} to {step['node']}")
        lines.append(f"  enabled = {'yes' if rec.enabled else 'no (consumed)'}")
        lines.append(f"  ps = {step['ps']}")
        lines.append(f"  as = {step['as']}")
    payload = {"command": "simulate", "steps": steps,
               "final": speclang.print_value(trace.confs[-1])}
    lines.append(f"final = {payload['final']}")
    if args.trace_out:
        try:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                for c in trace.confs:
                    fh.write(speclang.print_value(c) + "\n")
        except OSError as e:
            raise _UsageError(f"cannot write {args.trace_out}: {e}") from None
        lines.append(f"trace written to {args.trace_out}")
    return 0, lines, payload


def _prove_builtin(name: str, scope):
    if name == "checkpoint-ttf":
        return _prove_checkpoint_ttf(scope)
    if name not in goals.GOALS:
        known = ", ".join(sorted(goals.GOALS) + ["checkpoint-ttf"])
        raise UnknownName(f"unknown goal {name!r}; known: {known}")
    r = goals.prove_goal(name, scope)
    return _verdict({"command": "prove", "goal": name,
                     **_answer(r, scope, "falsified", "verified")},
                    {"verified": "Verified (scope: {scope})",
                     "falsified": "Falsified, counterexample:"})


_TTF_EXPECTED_SAT = (4, 5)


def _prove_checkpoint_ttf(scope):
    """Reproduce the override-partition outcome on the checkpoint step:
    eight raw conditions of which exactly the two domain cases survive."""
    t = goals.get_transition("checkpoint_state")
    occ = ttf.find_occurrences(t, "oplus")[0]
    conds = ttf.prune(ttf.instantiate_partition(occ, t), scope)
    sat_idx = [c.case.index for c in conds if c.satisfiable]
    ok = len(conds) == 8 and tuple(sat_idx) == _TTF_EXPECTED_SAT
    return _verdict({"command": "prove", "goal": "checkpoint-ttf",
                     "verdict": "verified" if ok else "falsified",
                     "satisfiable_cases": sat_idx, "scope": scope.describe()},
                    {"verified": "Verified (scope: {scope})",
                     "falsified": "Falsified (scope: {scope})"},
                    f"  raw conditions: {len(conds)}, satisfiable: {sat_idx}")


def cmd_prove(args):
    scope = parse_scope(args.scope)
    if args.file is None:
        if not args.goal:
            raise _UsageError("prove needs a goal file or --goal NAME")
        return _prove_builtin(args.goal, scope)
    # refutation style for files: the formula is the negated obligation and
    # must be unsatisfiable
    r = solve(_pick_formula(args.file, args.goal), scope)
    return _verdict({"command": "prove", "file": args.file,
                     **_answer(r, scope, "falsified", "verified")},
                    {"verified": "Verified: negation unsatisfiable (scope: {scope})",
                     "falsified": "Falsified, the negation has a model:"})


def cmd_mbt(args):
    scope = parse_scope(args.scope)
    t = goals.get_transition(args.transition)
    if args.all:
        occs = ttf.find_occurrences(t)
    else:
        if not args.occurrence:
            raise _UsageError("mbt needs --occurrence KIND[:ORDINAL] or --all")
        kind, _, ordinal = args.occurrence.partition(":")
        try:
            ordinal = int(ordinal) if ordinal else 1
        except ValueError:
            raise _UsageError(f"bad occurrence ordinal {ordinal!r}") from None
        occs = [o for o in ttf.find_occurrences(t, kind) if o.ordinal == ordinal]
        if not occs:
            raise _UsageError(f"transition {t.name} has no {kind} occurrence #{ordinal}")
    lines = []
    payload = {"command": "mbt", "transition": t.name, "scope": scope.describe(),
               "occurrences": []}
    for occ in occs:
        conds = ttf.prune(ttf.instantiate_partition(occ, t), scope)
        lines.append(
            f"{t.name}: {occ.operator} occurrence {occ.ordinal} "
            f"(constraint {occ.constraint_index}), scope: {scope.describe()}"
        )
        occ_payload = {"operator": occ.operator, "ordinal": occ.ordinal,
                       "constraint_index": occ.constraint_index, "conditions": []}
        for c in conds:
            status = c.status[0]
            lines.append(f"  case {c.case.index}: {status:<11} {c.case.label}")
            entry = {"case": c.case.index, "label": c.case.label, "status": status}
            if c.satisfiable:
                fx = _witness_strings(ttf.derive_test_case(c, t))
                entry["fixture"] = fx
                lines.append("    fixture: " + ", ".join(f"{k} = {v}" for k, v in fx.items()))
            elif status == "unknown":
                entry["reason"] = c.status[1]
            occ_payload["conditions"].append(entry)
        payload["occurrences"].append(occ_payload)
    return 0, lines, payload


def _load_fixture(path: str) -> dict:
    obj = _read_json(path, "fixture")
    if not isinstance(obj, dict):
        raise _UsageError("fixture is not a JSON object")
    out = {}
    for key, val in obj.items():
        out[key] = _parse_entry(val, key) if isinstance(val, str) else val
    return out


def cmd_evm(args):
    # argparse admits only the action "step" and the ops checkpoint and create
    fx = _load_fixture(args.fixture)
    try:
        if args.op == "checkpoint":
            w2 = evm.checkpoint_state(fx["world"], fx["transaction"])
            payload = {"command": "evm-step", "op": "checkpoint",
                       "world": speclang.print_value(w2)}
            return 0, [f"world' = {payload['world']}"], payload
        r = evm.create_dispatch(
            fx["machine"], fx["world"], fx["callstack"], fx["addr"], fx["depth"]
        )
    except KeyError as e:
        raise _UsageError(f"fixture is missing field {e}") from None
    payload = {"command": "evm-step", "op": "create",
               "machine": speclang.print_value(r.machine)}
    if isinstance(r, evm.Created):
        payload.update(outcome="created", args=speclang.print_value(r.args.to_record()),
                       step=speclang.print_value(r.world_step))
        lines = ["created", f"  args = {payload['args']}",
                 f"  machine' = {payload['machine']}", f"  step' = {payload['step']}"]
    else:
        payload["outcome"] = "not-created"
        lines = ["not-created", f"  machine' = {payload['machine']}"]
    return 0, lines, payload


# -- driver ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setforge",
                                 description="executable toolkit for set-based models")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scope", default="default",
                       help="atoms=K,ints=LO..HI,card=C,seq=L or 'default'")
        p.add_argument("--json", action="store_true", help="JSON report")

    p = sub.add_parser("eval", help="solve a formula file")
    p.add_argument("file")
    p.add_argument("--goal", default=None, help="named clause to evaluate")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate", help="replay a scenario file")
    p.add_argument("scenario")
    p.add_argument("--trace-out", default=None, help="write one configuration per line")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("prove", help="discharge an obligation")
    p.add_argument("file", nargs="?", default=None,
                   help="formula file holding the negated obligation")
    p.add_argument("--goal", default=None,
                   help="built-in goal name, or clause name inside the file")
    common(p)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("mbt", help="derive partition test conditions")
    p.add_argument("--transition", required=True)
    p.add_argument("--occurrence", default=None, help="operator kind, e.g. oplus or un:2")
    p.add_argument("--all", action="store_true", help="every partitionable occurrence")
    common(p)
    p.set_defaults(fn=cmd_mbt)

    p = sub.add_parser("evm", help="run one EVM transition")
    p.add_argument("action", choices=["step"])
    p.add_argument("--op", required=True, choices=["checkpoint", "create"])
    p.add_argument("--fixture", required=True, help="JSON fixture file")
    common(p)
    p.set_defaults(fn=cmd_evm)
    return ap


def main(argv=None) -> int:
    if os.environ.get("SETFORGE_SEED") is not None:
        print("error: SETFORGE_SEED is set, but this tool has no randomness; "
              "unset it rather than rely on a seed", file=sys.stderr)
        return 2
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        status, lines, payload = args.fn(args)
    except (ParseError, _UsageError, UnknownName) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnknownOutcome as e:
        print(f"unknown: {e}", file=sys.stderr)
        return 1
    except SetforgeError as e:
        print(f"rejected: {e}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
