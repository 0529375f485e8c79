"""Command-line entry point.

Subcommands: eval, simulate, prove, mbt, evm step.  Reports are plain text
by default and JSON with --json; identical invocations on identical files
produce byte-identical output.  Exit status: 0 when the command succeeded
(witness found, theorem verified, simulation completed), 1 when a goal was
falsified or an input rejected, 2 on usage or syntax errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import consensus, evm, goals, speclang, ttf
from .errors import KindError, ParseError, SetforgeError, UnknownName
from .solver import Sat, Unsat, UnknownOutcome, Verified, solve
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
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}") from None


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _witness_strings(witness: dict) -> dict:
    return {k: speclang.print_value(v) for k, v in sorted(witness.items())}


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


def cmd_eval(args) -> int:
    scope = parse_scope(args.scope)
    f = _pick_formula(args.file, args.goal)
    r = solve(f, scope)
    if isinstance(r, Sat):
        lines = ["Sat"] + [f"  {k} = {v}" for k, v in _witness_strings(r.witness).items()]
        _emit(args, lines, {"command": "eval", "verdict": "sat",
                            "witness": _witness_strings(r.witness), "scope": scope.describe()})
        return 0
    if isinstance(r, Unsat):
        _emit(args, [f"Unsat (scope: {scope.describe()})"],
              {"command": "eval", "verdict": "unsat", "scope": scope.describe()})
        return 1
    _emit(args, [f"Unknown: {r.reason}"],
          {"command": "eval", "verdict": "unknown", "reason": r.reason})
    return 1


def _parse_entry(src: str, where: str):
    """parse_value, with a ParseError prefixed by the JSON entry that holds
    src; its line and column stay those within src."""
    try:
        return speclang.parse_value(src)
    except ParseError as e:
        raise ParseError(f"{where}: {e.message}", e.line, e.col, e.token) from None


def _load_scenario(path: str):
    try:
        obj = json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise ParseError(f"bad scenario JSON: {e.msg}", e.lineno, e.colno) from None
    try:
        nodes = vset([_parse_entry(n, f"nodes[{i}]") for i, n in enumerate(obj["nodes"])])
        soup = vset([_parse_entry(p, f"soup[{i}]") for i, p in enumerate(obj.get("soup", []))])
        schedule = []
        for i, sel in enumerate(obj.get("schedule", [])):
            schedule.append(sel if isinstance(sel, int) else _parse_entry(sel, f"schedule[{i}]"))
        this = _parse_entry(obj["this"], "this") if "this" in obj else None
    except (KeyError, TypeError) as e:
        raise _UsageError(f"scenario is missing or mistypes a field: {e}") from None
    if this is not None and this not in nodes:
        raise _UsageError(f"focal node {speclang.print_value(this)} is not in nodes")
    conf = consensus.make_conf(consensus.conf_delta(consensus.init_conf(nodes)), soup)
    return conf, schedule, this


def cmd_simulate(args) -> int:
    conf, schedule, _this = _load_scenario(args.scenario)
    trace = consensus.run_schedule(conf, schedule)
    lines = []
    steps_payload = []
    for i, rec in enumerate(trace.steps, 1):
        state_s = speclang.print_value(rec.state)
        known_s = speclang.print_value(consensus.state_known(rec.state))
        lines.append(f"step {i}: deliver {speclang.print_value(rec.packet)} to {rec.node.name}")
        lines.append(f"  enabled = {'yes' if rec.enabled else 'no (consumed)'}")
        lines.append(f"  ps = {speclang.print_value(rec.emitted)}")
        lines.append(f"  as = {known_s}")
        steps_payload.append(
            {
                "step": i,
                "packet": speclang.print_value(rec.packet),
                "node": rec.node.name,
                "enabled": rec.enabled,
                "ps": speclang.print_value(rec.emitted),
                "state": state_s,
                "as": known_s,
            }
        )
    final = trace.confs[-1]
    lines.append(f"final = {speclang.print_value(final)}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for c in trace.confs:
                fh.write(speclang.print_value(c) + "\n")
        lines.append(f"trace written to {args.trace_out}")
    _emit(args, lines, {"command": "simulate", "steps": steps_payload,
                        "final": speclang.print_value(final)})
    return 0


def _prove_builtin(args, scope) -> int:
    name = args.goal
    if name == "checkpoint-ttf":
        return _prove_checkpoint_ttf(args, scope)
    r = goals.prove_goal(name, scope)
    if isinstance(r, Verified):
        _emit(args, [f"Verified (scope: {scope.describe()})"],
              {"command": "prove", "goal": name, "verdict": "verified",
               "scope": scope.describe()})
        return 0
    lines = ["Falsified, counterexample:"]
    lines += [f"  {k} = {v}" for k, v in _witness_strings(r.witness).items()]
    _emit(args, lines, {"command": "prove", "goal": name, "verdict": "falsified",
                        "witness": _witness_strings(r.witness), "scope": scope.describe()})
    return 1


_TTF_EXPECTED_SAT = (4, 5)


def _prove_checkpoint_ttf(args, scope) -> int:
    """Reproduce the override-partition outcome on the checkpoint step:
    eight raw conditions of which exactly the two domain cases survive."""
    t = goals.get_transition("checkpoint_state")
    occ = ttf.find_occurrences(t, "oplus")[0]
    conds = ttf.prune(ttf.instantiate_partition(occ, t), scope)
    sat_idx = tuple(c.case.index for c in conds if c.satisfiable)
    ok = len(conds) == 8 and sat_idx == _TTF_EXPECTED_SAT
    verdict = "verified" if ok else "falsified"
    lines = [f"{'Verified' if ok else 'Falsified'} (scope: {scope.describe()})",
             f"  raw conditions: {len(conds)}, satisfiable: {list(sat_idx)}"]
    _emit(args, lines, {"command": "prove", "goal": "checkpoint-ttf", "verdict": verdict,
                        "satisfiable_cases": list(sat_idx), "scope": scope.describe()})
    return 0 if ok else 1


def cmd_prove(args) -> int:
    scope = parse_scope(args.scope)
    if args.file is None:
        if not args.goal:
            raise _UsageError("prove needs a goal file or --goal NAME")
        return _prove_builtin(args, scope)
    # refutation style for files: the formula is the negated obligation and
    # must be unsatisfiable
    f = _pick_formula(args.file, args.goal)
    r = solve(f, scope)
    if isinstance(r, Unsat):
        _emit(args, [f"Verified: negation unsatisfiable (scope: {scope.describe()})"],
              {"command": "prove", "file": args.file, "verdict": "verified",
               "scope": scope.describe()})
        return 0
    if isinstance(r, Sat):
        lines = ["Falsified, the negation has a model:"]
        lines += [f"  {k} = {v}" for k, v in _witness_strings(r.witness).items()]
        _emit(args, lines, {"command": "prove", "file": args.file, "verdict": "falsified",
                            "witness": _witness_strings(r.witness), "scope": scope.describe()})
        return 1
    _emit(args, [f"Unknown: {r.reason}"],
          {"command": "prove", "file": args.file, "verdict": "unknown", "reason": r.reason})
    return 1


def cmd_mbt(args) -> int:
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
            raise _UsageError(
                f"transition {t.name} has no {kind} occurrence #{ordinal}"
            )
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
                fixture = ttf.derive_test_case(c, t)
                fx = _witness_strings(fixture)
                entry["fixture"] = fx
                lines.append("    fixture: " + ", ".join(f"{k} = {v}" for k, v in fx.items()))
            elif status == "unknown":
                entry["reason"] = c.status[1]
            occ_payload["conditions"].append(entry)
        payload["occurrences"].append(occ_payload)
    _emit(args, lines, payload)
    return 0


def _load_fixture(path: str) -> dict:
    try:
        obj = json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise ParseError(f"bad fixture JSON: {e.msg}", e.lineno, e.colno) from None
    out = {}
    for key, val in obj.items():
        out[key] = _parse_entry(val, key) if isinstance(val, str) else val
    return out


def cmd_evm(args) -> int:
    if args.action != "step":
        raise _UsageError(f"unknown evm action {args.action!r}")
    fx = _load_fixture(args.fixture)
    try:
        if args.op == "checkpoint":
            w2 = evm.checkpoint_state(fx["world"], fx["transaction"])
            _emit(args, [f"world' = {speclang.print_value(w2)}"],
                  {"command": "evm-step", "op": "checkpoint",
                   "world": speclang.print_value(w2)})
            return 0
        if args.op == "create":
            r = evm.create_dispatch(
                fx["machine"], fx["world"], fx["callstack"], fx["addr"], fx["depth"]
            )
            if isinstance(r, evm.Created):
                lines = [
                    "created",
                    f"  args = {speclang.print_value(r.args.to_record())}",
                    f"  machine' = {speclang.print_value(r.machine)}",
                    f"  step' = {speclang.print_value(r.world_step)}",
                ]
                _emit(args, lines, {"command": "evm-step", "op": "create",
                                    "outcome": "created",
                                    "args": speclang.print_value(r.args.to_record()),
                                    "machine": speclang.print_value(r.machine),
                                    "step": speclang.print_value(r.world_step)})
            else:
                lines = ["not-created", f"  machine' = {speclang.print_value(r.machine)}"]
                _emit(args, lines, {"command": "evm-step", "op": "create",
                                    "outcome": "not-created",
                                    "machine": speclang.print_value(r.machine)})
            return 0
        raise _UsageError(f"unknown evm op {args.op!r}")
    except KeyError as e:
        raise _UsageError(f"fixture is missing field {e}") from None


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
        return args.fn(args)
    except (ParseError, _UsageError, UnknownName) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnknownOutcome as e:
        print(f"unknown: {e}", file=sys.stderr)
        return 1
    except SetforgeError as e:
        print(f"rejected: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
