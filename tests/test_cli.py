import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from setforge import cli, goals, solver, ttf
from setforge import speclang as S
from setforge.cli import main, parse_scope
from setforge.solver import Counterexample, Unknown
from setforge.universe import DEFAULT_SCOPE, Scope

REPO = Path(__file__).resolve().parent.parent
SCENARIO = REPO / "scenarios" / "rcvaddr2.json"
EVM_CHECKPOINT = REPO / "scenarios" / "evm_checkpoint.json"
EVM_CREATE = REPO / "scenarios" / "evm_create.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scope_parsing():
    assert parse_scope("default") == DEFAULT_SCOPE
    s = parse_scope("atoms=2,ints=0..3,card=2,seq=1")
    assert s == Scope(2, 0, 3, 2, 1)
    assert parse_scope("atoms=5") == Scope(atoms_per_namespace=5)


def test_eval_sat_and_unsat(capsys, tmp_path):
    p = tmp_path / "f.slog"
    p.write_text("un(As,{a1},As_) & As = {a2}\n")
    code, out, _ = run_cli(capsys, "eval", str(p))
    assert code == 0
    assert "As_ = {a1,a2}" in out
    p.write_text("X = {} & X neq {}\n")
    code, out, _ = run_cli(capsys, "eval", str(p))
    assert code == 1
    assert out.startswith("Unsat")


def test_eval_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.slog"
    p.write_text("X = {\n")
    code, _, err = run_cli(capsys, "eval", str(p))
    assert code == 2
    assert "line" in err and "column" in err


def test_eval_deeply_nested_input_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "deep.slog"
    p.write_text("X = " + "{" * 3000 + "}" * 3000 + "\n")
    code, out, err = run_cli(capsys, "eval", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: input nested too deeply (line 1, column ")


def test_eval_prints_a_deeply_nested_witness(capsys, tmp_path):
    deep = "{" * 450 + "a1" + "}" * 450
    p = tmp_path / "deep.slog"
    p.write_text(f"X = {deep}.\n")
    code, out, _ = run_cli(capsys, "eval", str(p))
    assert code == 0
    printed = out.split("X = ", 1)[1].split()[0]
    assert S.parse_value(printed) == S.parse_value(deep)


def test_a_deeply_nested_conjunct_is_solved_again():
    # near the parser's limit, comparing two equal copies of the term
    # recurses deeper than Python allows: the kept compile of the first
    # solve cannot be looked up for the second, which compiles it again
    n = 450
    src = "X = " + "[" * n + "Y,1" + "],1" * (n - 1) + "] & Y = a1."
    answers = [solver.solve(S.parse_formula(src)) for _ in range(2)]
    assert isinstance(answers[0], solver.Sat)
    assert answers[0] == answers[1]
    assert answers[0].witness["Y"] == S.parse_value("a1")


def test_eval_answers_a_formula_whose_lifted_comprehension_reuses_a_free_name(capsys, tmp_path):
    # Y binds the inner comprehension and is free in in(Y,T): the formula
    # passes the binder check, so eval answers it rather than rejecting it
    p = tmp_path / "nested.slog"
    p.write_text("in(a1,ris(X in ris(Y in S,[],true,Y),[],true,X)) & in(Y,T).\n")
    code, out, _ = run_cli(capsys, "eval", str(p))
    assert (code, out) == (0, "Sat\n  S = {a1}\n  T = {a1}\n  Y = a1\n")


def test_eval_named_goal_selection(capsys, tmp_path):
    p = tmp_path / "clauses.slog"
    p.write_text("one(X) :- X = a1.\ntwo(Y) :- Y = {} & Y neq {}.\n")
    code, out, _ = run_cli(capsys, "eval", str(p), "--goal", "one")
    assert code == 0 and "X = a1" in out
    code, _, _ = run_cli(capsys, "eval", str(p), "--goal", "two")
    assert code == 1
    code, _, err = run_cli(capsys, "eval", str(p))
    assert code == 2 and "--goal" in err


def test_prove_builtin_goals(capsys):
    for goal in ("psd-psas-disjoint", "checkpoint-pfun", "checkpoint-ttf"):
        code, out, _ = run_cli(capsys, "prove", "--goal", goal)
        assert code == 0, goal
        assert "Verified" in out
        assert "scope:" in out  # verdicts always name the scope they hold in


def test_prove_refutation_file(capsys, tmp_path):
    p = tmp_path / "obligation.slog"
    p.write_text("pfun({[a1,1],[a1,2]})\n")
    code, out, _ = run_cli(capsys, "prove", str(p))
    assert code == 0 and "Verified" in out
    p.write_text("un(A,B,{a1})\n")
    code, out, _ = run_cli(capsys, "prove", str(p))
    assert code == 1 and "Falsified" in out


def test_prove_json_matches_text_verdict(capsys):
    code_t, out_t, _ = run_cli(capsys, "prove", "--goal", "checkpoint-pfun")
    code_j, out_j, _ = run_cli(capsys, "prove", "--goal", "checkpoint-pfun", "--json")
    assert code_t == code_j == 0
    payload = json.loads(out_j)
    assert payload["verdict"] == "verified"
    assert "Verified" in out_t


def test_simulate_walkthrough(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    code, out, _ = run_cli(capsys, "simulate", str(SCENARIO), "--trace-out", str(trace))
    assert code == 0
    assert "as = {a1,a2}" in out
    assert "as = {a1,a2,a3}" in out
    lines = trace.read_text().splitlines()
    assert len(lines) == 3  # initial plus two steps
    for line in lines:
        S.parse_value(line)  # every configuration reparses


def test_simulate_json(capsys):
    code, out, _ = run_cli(capsys, "simulate", str(SCENARIO), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"][0]["as"] == "{a1,a2}"
    assert payload["steps"][1]["ps"] == (
        "{[this,a1,addrMsg({a1,a2,a3})],[this,a2,addrMsg({a1,a2,a3})],[this,a3,connectMsg]}"
    )


def test_simulate_bad_schedule_is_rejected(capsys, tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"nodes": ["n1"], "this": "n1", "soup": [], "schedule": [0]}))
    code, _, err = run_cli(capsys, "simulate", str(p))
    assert code == 1
    assert "step 1" in err


def test_evm_step_checkpoint(capsys):
    code, out, _ = run_cli(capsys, "evm", "step", "--op", "checkpoint", "--fixture", str(EVM_CHECKPOINT))
    assert code == 0
    assert "[bal,80]" in out and "[nonce,1]" in out and "[step,ccbegins]" in out


def test_evm_step_checkpoint_rejects_bad_nonce(capsys, tmp_path):
    fx = json.loads(EVM_CHECKPOINT.read_text())
    fx["transaction"] = fx["transaction"].replace("[tn,0]", "[tn,5]")
    p = tmp_path / "fx.json"
    p.write_text(json.dumps(fx))
    code, _, err = run_cli(capsys, "evm", "step", "--op", "checkpoint", "--fixture", str(p))
    assert code == 1
    assert "rejected" in err


def test_evm_step_create(capsys):
    code, out, _ = run_cli(capsys, "evm", "step", "--op", "create", "--fixture", str(EVM_CREATE))
    assert code == 0
    assert "created" in out
    assert "[g,6300]" in out  # the 1/64 withholding
    assert "[e,8]" in out


def test_mbt_report(capsys):
    code, out, _ = run_cli(capsys, "mbt", "--transition", "checkpoint_state", "--occurrence", "oplus")
    assert code == 0
    assert out.count("infeasible") == 6
    assert out.count("satisfiable") == 2


def test_mbt_json_statuses(capsys):
    code, out, _ = run_cli(
        capsys, "mbt", "--transition", "checkpoint_state", "--occurrence", "oplus", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    conds = payload["occurrences"][0]["conditions"]
    assert [c["case"] for c in conds] == list(range(1, 9))
    assert [c["case"] for c in conds if c["status"] == "satisfiable"] == [4, 5]


def test_mbt_needs_occurrence_or_all(capsys):
    code, _, err = run_cli(capsys, "mbt", "--transition", "checkpoint_state")
    assert code == 2 and "--occurrence" in err


def test_mbt_bad_occurrence_ordinal_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "mbt", "--transition", "rcv_addr", "--occurrence", "un:x")
    assert (code, out) == (2, "")
    assert err == "error: bad occurrence ordinal 'x'\n"


def test_out_of_range_scope_is_a_usage_error(capsys, tmp_path):
    p = tmp_path / "f.slog"
    p.write_text("X = a1\n")
    for scope in ("atoms=-1", "ints=5..1", "card=-2", "atoms=x"):
        code, out, err = run_cli(capsys, "eval", str(p), "--scope", scope)
        assert (code, out) == (2, ""), scope
        assert err.startswith("error: bad scope"), (scope, err)


def test_empty_side_of_disj_and_subset_waits_for_a_set(capsys, tmp_path):
    # the empty side alone decided these before the other side was known to
    # be a set, and the witness then failed its re-check
    p = tmp_path / "f.slog"
    for src in ("disj({},B) & B = 3", "B = 3 & disj({},B)", "subset({},B) & B = a1"):
        p.write_text(src + ".\n")
        code, out, err = run_cli(capsys, "eval", str(p))
        assert (code, err) == (1, ""), src
        assert out.startswith("Unsat (scope: "), src


def test_unknown_goal_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "prove", "--goal", "nope")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown goal 'nope'; known: ")


def test_unknown_transition_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "mbt", "--transition", "nope", "--all")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown transition 'nope'; known: ")


def test_identical_invocations_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "mbt", "--transition", "checkpoint_state", "--occurrence", "oplus", "--json")
    _, out2, _ = run_cli(capsys, "mbt", "--transition", "checkpoint_state", "--occurrence", "oplus", "--json")
    assert out1 == out2
    _, sim1, _ = run_cli(capsys, "simulate", str(SCENARIO))
    _, sim2, _ = run_cli(capsys, "simulate", str(SCENARIO))
    assert sim1 == sim2


def test_seed_env_fails_loudly():
    env = dict(os.environ, SETFORGE_SEED="7", PYTHONPATH=str(REPO / "src"))
    r = subprocess.run(
        [sys.executable, "-m", "setforge.cli", "prove", "--goal", "checkpoint-pfun"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 2
    assert "SETFORGE_SEED" in r.stderr


def test_console_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    r = subprocess.run(
        [sys.executable, "-m", "setforge.cli", "eval", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0


def test_scope_flag_reaches_the_solver(capsys):
    code, out, _ = run_cli(
        capsys, "prove", "--goal", "psd-psas-disjoint",
        "--scope", "atoms=2,ints=0..2,card=2,seq=2",
    )
    assert code == 0
    assert "scope: atoms=2, ints=0..2, card=2, seq=2" in out


def test_evm_fixture_missing_field(capsys, tmp_path):
    p = tmp_path / "fx.json"
    p.write_text(json.dumps({"world": "{[acc,{}],[accCC,{}],[newaddr,null],[step,initial]}"}))
    code, _, err = run_cli(capsys, "evm", "step", "--op", "checkpoint", "--fixture", str(p))
    assert code == 2
    assert "transaction" in err


def test_eval_hostile_integers_are_parse_errors(capsys, tmp_path):
    p = tmp_path / "f.slog"
    cases = [("in(a1,{²}).\n", "(line 1, column 8 at '²')")]
    if hasattr(sys, "get_int_max_str_digits"):  # Python 3.10.7 on limit int() digits
        cases.append(("X = " + "1" * 5000 + ".\n", "(line 1, column 5 at '111111111111...')"))
    for src, where in cases:
        p.write_text(src, encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.rstrip().endswith(where)


def test_simulate_non_decimal_digit_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"nodes": ["this", "a1"], "this": "this",
                             "soup": ["[env,this,addrMsg({a1,²})]"], "schedule": [1]}),
                 encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(p))
    assert (code, out) == (2, "")
    assert err == "error: soup[0]: unexpected character (line 1, column 23 at '²')\n"


def test_scenario_parse_error_names_its_entry(capsys, tmp_path):
    p = tmp_path / "s.json"
    for scenario, where in (
        ({"nodes": ["this", "a1,"]}, "nodes[1]: "),
        ({"nodes": ["this"], "this": "th is"}, "this: "),
        ({"nodes": ["this"], "schedule": [0, "[env,this"]}, "schedule[1]: "),
    ):
        p.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: " + where) and "(line 1, column " in err, err


def test_evm_fixture_parse_error_names_its_key(capsys, tmp_path):
    fx = json.loads(EVM_CHECKPOINT.read_text())
    fx["transaction"] = fx["transaction"].replace("[tn,0]", "[tn,²]")
    col = fx["transaction"].index("²") + 1
    p = tmp_path / "fx.json"
    p.write_text(json.dumps(fx), encoding="utf-8")
    code, out, err = run_cli(capsys, "evm", "step", "--op", "checkpoint", "--fixture", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: transaction: unexpected character (line 1, column {col} at '²')\n"


# -- every report, pinned ---------------------------------------------------------
# Each REPORTS row is (patch, argv, exit code, stdout, stderr) for one verb in
# text or --json mode, or one error path.  "{tmp}" stands for the test's
# temporary directory and "{repo}" for the repository, in argv and in the
# output; a stdout longer than _PIN_CHARS characters is pinned by its sha256.
# A patch names the function of _PATCHES that the row runs under.

_PIN_CHARS = 400

_FILES = {
    "sat.slog": b"un(As,{a1},As_) & As = {a2}.\n",
    "unsat.slog": b"X = {} & X neq {}.\n",
    "clauses.slog": b"one(X) :- X = a1.\ntwo(Y) :- Y = {} & Y neq {}.\n",
    "syntax.slog": b"X = {\n",
    "search.slog": b"subset(A,B) & subset(B,C) & un(A,D,C) & A neq {} & A neq B & B neq C & D neq C.\n",
    "holds.slog": b"pfun({[a1,1],[a1,2]}).\n",
    "fails.slog": b"un(A,B,{a1}).\n",
    "notcreated.json": EVM_CREATE.read_bytes().replace(b"seq([5,0,64,7])", b"seq([500,0,64,7])"),
    "nofield.json": b'{"world": "{[acc,{}],[accCC,{}],[newaddr,null],[step,initial]}"}\n',
    "undecodable.slog": b"X = \xff\xfe\n",
    "list.json": b"[1,2]\n",
    "string.json": b'"x"\n',
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
    "boolindex.json": b'{"nodes": ["this", "a1"], "this": "this", "schedule": [true],'
                      b' "soup": ["[env,this,addrMsg({a1})]", "[env,this,addrMsg({})]"]}\n',
}


def _three_nodes(monkeypatch):
    """eval, prove FILE and the mbt conditions try at most 3 candidates."""
    def solve(f, scope=DEFAULT_SCOPE, sorts=None, budget=None):
        return solver.solve(f, scope, sorts=sorts, budget=3)
    monkeypatch.setattr(cli, "solve", solve)
    monkeypatch.setattr(ttf, "solve", solve)


def _counterexample(monkeypatch):
    """Every built-in goal is falsified (no scope falsifies a shipped one)."""
    packets = S.parse_value("{[this,a1,connectMsg]}")
    monkeypatch.setattr(goals, "prove_goal",
                        lambda name, scope: Counterexample({"PsD": packets, "PsAs": packets}))


def _solver_gives_up(monkeypatch):
    """Every solve inside the library answers Unknown."""
    monkeypatch.setattr(solver, "solve",
                        lambda *a, **k: Unknown("search budget exceeded (3 candidates tried)"))


_PATCHES = {"three-nodes": _three_nodes, "counterexample": _counterexample,
            "solver-gives-up": _solver_gives_up}


def _report(tmp_path, monkeypatch, capsys, patch, argv):
    """(exit code, stdout or its sha256, stderr) of one CLI run, with the
    temporary directory written as {tmp} and the repository as {repo}."""
    for name, data in _FILES.items():
        (tmp_path / name).write_bytes(data)
    if patch:
        _PATCHES[patch](monkeypatch)
    paths = {"{tmp}": str(tmp_path), "{repo}": str(REPO)}
    for key, path in paths.items():
        argv = [a.replace(key, path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    for key, path in paths.items():
        out, err = out.replace(path, key), err.replace(path, key)
    if len(out) > _PIN_CHARS:
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    return code, out, err


REPORTS = [
    (None, ["eval", "{tmp}/sat.slog"], 0,
     "Sat\n"
     "  As = {a2}\n"
     "  As_ = {a1,a2}\n",
     ""),
    (None, ["eval", "{tmp}/sat.slog", "--json"], 0,
     "{\n"
     '  "command": "eval",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "sat",\n'
     '  "witness": {\n'
     '    "As": "{a2}",\n'
     '    "As_": "{a1,a2}"\n'
     "  }\n"
     "}\n",
     ""),
    (None, ["eval", "{tmp}/unsat.slog"], 1,
     "Unsat (scope: atoms=3, ints=0..8, card=3, seq=4)\n",
     ""),
    (None, ["eval", "{tmp}/unsat.slog", "--json"], 1,
     "{\n"
     '  "command": "eval",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "unsat"\n'
     "}\n",
     ""),
    (None, ["eval", "{tmp}/clauses.slog", "--goal", "one"], 0,
     "Sat\n"
     "  X = a1\n",
     ""),
    (None, ["eval", "{tmp}/clauses.slog", "--goal", "one", "--json"], 0,
     "{\n"
     '  "command": "eval",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "sat",\n'
     '  "witness": {\n'
     '    "X": "a1"\n'
     "  }\n"
     "}\n",
     ""),
    (None, ["eval", "{tmp}/clauses.slog", "--goal", "two"], 1,
     "Unsat (scope: atoms=3, ints=0..8, card=3, seq=4)\n",
     ""),
    (None, ["eval", "{tmp}/clauses.slog", "--goal", "two", "--json"], 1,
     "{\n"
     '  "command": "eval",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "unsat"\n'
     "}\n",
     ""),
    (None, ["eval", "{tmp}/clauses.slog", "--goal", "three"], 2,
     "",
     "error: no clause 'three' in {tmp}/clauses.slog\n"),
    (None, ["eval", "{tmp}/clauses.slog", "--goal", "three", "--json"], 2,
     "",
     "error: no clause 'three' in {tmp}/clauses.slog\n"),
    (None, ["eval", "{tmp}/clauses.slog"], 2,
     "",
     "error: {tmp}/clauses.slog has several clauses; pick one with --goal\n"),
    (None, ["eval", "{tmp}/clauses.slog", "--json"], 2,
     "",
     "error: {tmp}/clauses.slog has several clauses; pick one with --goal\n"),
    (None, ["eval", "{tmp}/syntax.slog"], 2,
     "",
     "error: expected a term (line 2, column 1 at 'end of input')\n"),
    (None, ["eval", "{tmp}/syntax.slog", "--json"], 2,
     "",
     "error: expected a term (line 2, column 1 at 'end of input')\n"),
    (None, ["eval", "{tmp}/missing.slog"], 2,
     "",
     "error: cannot read {tmp}/missing.slog: [Errno 2] No such file or directory: '{tmp}/missing.slog'\n"),
    (None, ["eval", "{tmp}/missing.slog", "--json"], 2,
     "",
     "error: cannot read {tmp}/missing.slog: [Errno 2] No such file or directory: '{tmp}/missing.slog'\n"),
    ("three-nodes", ["eval", "{tmp}/search.slog"], 1,
     "Unknown: search budget exceeded (3 candidates tried)\n",
     ""),
    ("three-nodes", ["eval", "{tmp}/search.slog", "--json"], 1,
     "{\n"
     '  "command": "eval",\n'
     '  "reason": "search budget exceeded (3 candidates tried)",\n'
     '  "verdict": "unknown"\n'
     "}\n",
     ""),
    (None, ["eval", "{tmp}/sat.slog", "--scope", "atoms=x"], 2,
     "",
     "error: bad scope value 'x' for atoms\n"),
    (None, ["eval", "{tmp}/sat.slog", "--scope", "atoms=x", "--json"], 2,
     "",
     "error: bad scope value 'x' for atoms\n"),
    (None, ["prove", "{tmp}/holds.slog"], 0,
     "Verified: negation unsatisfiable (scope: atoms=3, ints=0..8, card=3, seq=4)\n",
     ""),
    (None, ["prove", "{tmp}/holds.slog", "--json"], 0,
     "{\n"
     '  "command": "prove",\n'
     '  "file": "{tmp}/holds.slog",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "verified"\n'
     "}\n",
     ""),
    (None, ["prove", "{tmp}/fails.slog"], 1,
     "Falsified, the negation has a model:\n"
     "  A = {a1}\n"
     "  B = {}\n",
     ""),
    (None, ["prove", "{tmp}/fails.slog", "--json"], 1,
     "{\n"
     '  "command": "prove",\n'
     '  "file": "{tmp}/fails.slog",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "falsified",\n'
     '  "witness": {\n'
     '    "A": "{a1}",\n'
     '    "B": "{}"\n'
     "  }\n"
     "}\n",
     ""),
    ("three-nodes", ["prove", "{tmp}/search.slog"], 1,
     "Unknown: search budget exceeded (3 candidates tried)\n",
     ""),
    ("three-nodes", ["prove", "{tmp}/search.slog", "--json"], 1,
     "{\n"
     '  "command": "prove",\n'
     '  "file": "{tmp}/search.slog",\n'
     '  "reason": "search budget exceeded (3 candidates tried)",\n'
     '  "verdict": "unknown"\n'
     "}\n",
     ""),
    (None, ["prove"], 2,
     "",
     "error: prove needs a goal file or --goal NAME\n"),
    (None, ["prove", "--json"], 2,
     "",
     "error: prove needs a goal file or --goal NAME\n"),
    (None, ["prove", "--goal", "psd-psas-disjoint"], 0,
     "Verified (scope: atoms=3, ints=0..8, card=3, seq=4)\n",
     ""),
    (None, ["prove", "--goal", "psd-psas-disjoint", "--json"], 0,
     "{\n"
     '  "command": "prove",\n'
     '  "goal": "psd-psas-disjoint",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "verified"\n'
     "}\n",
     ""),
    (None, ["prove", "--goal", "checkpoint-pfun", "--scope", "atoms=2,ints=0..2,card=2,seq=2"], 0,
     "Verified (scope: atoms=2, ints=0..2, card=2, seq=2)\n",
     ""),
    (None, ["prove", "--goal", "checkpoint-pfun", "--scope", "atoms=2,ints=0..2,card=2,seq=2", "--json"], 0,
     "{\n"
     '  "command": "prove",\n'
     '  "goal": "checkpoint-pfun",\n'
     '  "scope": "atoms=2, ints=0..2, card=2, seq=2",\n'
     '  "verdict": "verified"\n'
     "}\n",
     ""),
    ("counterexample", ["prove", "--goal", "checkpoint-pfun"], 1,
     "Falsified, counterexample:\n"
     "  PsAs = {[this,a1,connectMsg]}\n"
     "  PsD = {[this,a1,connectMsg]}\n",
     ""),
    ("counterexample", ["prove", "--goal", "checkpoint-pfun", "--json"], 1,
     "{\n"
     '  "command": "prove",\n'
     '  "goal": "checkpoint-pfun",\n'
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "falsified",\n'
     '  "witness": {\n'
     '    "PsAs": "{[this,a1,connectMsg]}",\n'
     '    "PsD": "{[this,a1,connectMsg]}"\n'
     "  }\n"
     "}\n",
     ""),
    ("solver-gives-up", ["prove", "--goal", "psd-psas-disjoint"], 1,
     "",
     "unknown: search budget exceeded (3 candidates tried)\n"),
    ("solver-gives-up", ["prove", "--goal", "psd-psas-disjoint", "--json"], 1,
     "",
     "unknown: search budget exceeded (3 candidates tried)\n"),
    (None, ["prove", "--goal", "nope"], 2,
     "",
     "error: unknown goal 'nope'; known: checkpoint-pfun, psd-psas-disjoint, checkpoint-ttf\n"),
    (None, ["prove", "--goal", "nope", "--json"], 2,
     "",
     "error: unknown goal 'nope'; known: checkpoint-pfun, psd-psas-disjoint, checkpoint-ttf\n"),
    (None, ["prove", "--goal", "checkpoint-ttf"], 0,
     "Verified (scope: atoms=3, ints=0..8, card=3, seq=4)\n"
     "  raw conditions: 8, satisfiable: [4, 5]\n",
     ""),
    (None, ["prove", "--goal", "checkpoint-ttf", "--json"], 0,
     "{\n"
     '  "command": "prove",\n'
     '  "goal": "checkpoint-ttf",\n'
     '  "satisfiable_cases": [\n'
     "    4,\n"
     "    5\n"
     "  ],\n"
     '  "scope": "atoms=3, ints=0..8, card=3, seq=4",\n'
     '  "verdict": "verified"\n'
     "}\n",
     ""),
    (None, ["prove", "--goal", "checkpoint-ttf", "--scope", "atoms=1,card=1"], 1,
     "Falsified (scope: atoms=1, ints=0..8, card=1, seq=4)\n"
     "  raw conditions: 8, satisfiable: [4]\n",
     ""),
    (None, ["prove", "--goal", "checkpoint-ttf", "--scope", "atoms=1,card=1", "--json"], 1,
     "{\n"
     '  "command": "prove",\n'
     '  "goal": "checkpoint-ttf",\n'
     '  "satisfiable_cases": [\n'
     "    4\n"
     "  ],\n"
     '  "scope": "atoms=1, ints=0..8, card=1, seq=4",\n'
     '  "verdict": "falsified"\n'
     "}\n",
     ""),
    (None, ["mbt", "--transition", "checkpoint_state", "--occurrence", "oplus"], 0,
     "sha256:5f136e74ad55c336fc90a05346bcf3245e051379c6e48e3dd1e2f0be409eb961",
     ""),
    (None, ["mbt", "--transition", "checkpoint_state", "--occurrence", "oplus", "--json"], 0,
     "sha256:43fa68ac8cb5ec4ac067a53021e1a2fd367bf600c862bdb855682643c37cb865",
     ""),
    (None, ["mbt", "--transition", "rcv_addr", "--all"], 0,
     "sha256:0009f30dd23f96ec90b5657c2c924289d24bf675b419b2eebaeb02cbb8ee951c",
     ""),
    (None, ["mbt", "--transition", "rcv_addr", "--all", "--json"], 0,
     "sha256:46ffa8466f3cd28694205be071b508c63ce938c34762e80478d4e2d8078471a7",
     ""),
    (None, ["mbt", "--transition", "rcv_addr", "--occurrence", "un:9"], 2,
     "",
     "error: transition rcv_addr has no un occurrence #9\n"),
    (None, ["mbt", "--transition", "rcv_addr", "--occurrence", "un:9", "--json"], 2,
     "",
     "error: transition rcv_addr has no un occurrence #9\n"),
    (None, ["mbt", "--transition", "rcv_addr", "--occurrence", "un:x"], 2,
     "",
     "error: bad occurrence ordinal 'x'\n"),
    (None, ["mbt", "--transition", "rcv_addr", "--occurrence", "un:x", "--json"], 2,
     "",
     "error: bad occurrence ordinal 'x'\n"),
    (None, ["mbt", "--transition", "rcv_addr"], 2,
     "",
     "error: mbt needs --occurrence KIND[:ORDINAL] or --all\n"),
    (None, ["mbt", "--transition", "rcv_addr", "--json"], 2,
     "",
     "error: mbt needs --occurrence KIND[:ORDINAL] or --all\n"),
    ("three-nodes", ["mbt", "--transition", "rcv_addr", "--occurrence", "un:2"], 0,
     "sha256:1d9419cb25a0b42bcd82916297e62c18d7479c5e44014052a55709ad25f96a35",
     ""),
    ("three-nodes", ["mbt", "--transition", "rcv_addr", "--occurrence", "un:2", "--json"], 0,
     "sha256:f0124dbc2b8ac85aeb49c2180a65f3020d3a634eef83bfe2150af037b0fa10cc",
     ""),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json"], 0,
     "sha256:7eb7662620a2007dfd85f562ae02ecd2b1e7ead65ad7fb219918a924b55aa4c6",
     ""),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json", "--json"], 0,
     "sha256:4be2ace32653193557ccb6cfe3757102470bd04568538f1123f14be6a456b2aa",
     ""),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json", "--trace-out", "{tmp}/trace.txt"], 0,
     "sha256:4804a994345f025179940981847fbb1dccc8a1c19ad5aacd071ef8d111617694",
     ""),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json", "--trace-out", "{tmp}/trace.txt", "--json"], 0,
     "sha256:4be2ace32653193557ccb6cfe3757102470bd04568538f1123f14be6a456b2aa",
     ""),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{repo}/scenarios/evm_checkpoint.json"], 0,
     "world' = {[acc,{[a1,{[bal,80],[code,prog({})],[nonce,1]}]}],[accCC,{}],[newaddr,null],[step,ccbegins]}\n",
     ""),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{repo}/scenarios/evm_checkpoint.json", "--json"], 0,
     "{\n"
     '  "command": "evm-step",\n'
     '  "op": "checkpoint",\n'
     '  "world": "{[acc,{[a1,{[bal,80],[code,prog({})],[nonce,1]}]}],[accCC,{}],[newaddr,null],[step,ccbegins]}"\n'
     "}\n",
     ""),
    (None, ["evm", "step", "--op", "create", "--fixture", "{repo}/scenarios/evm_create.json"], 0,
     "created\n"
     "  args = {[e,8],[g,6300],[i,prog({[0,7],[1,9]})],[o,a2],[p,2],[s,a1],[v,5]}\n"
     "  machine' = {[g,6400],[i,2],[m,{[0,7],[1,9]}],[out,seq([])],[pc,0],[s,seq([a1_n2,7])]}\n"
     "  step' = ccbegins\n",
     ""),
    (None, ["evm", "step", "--op", "create", "--fixture", "{repo}/scenarios/evm_create.json", "--json"], 0,
     "{\n"
     '  "args": "{[e,8],[g,6300],[i,prog({[0,7],[1,9]})],[o,a2],[p,2],[s,a1],[v,5]}",\n'
     '  "command": "evm-step",\n'
     '  "machine": "{[g,6400],[i,2],[m,{[0,7],[1,9]}],[out,seq([])],[pc,0],[s,seq([a1_n2,7])]}",\n'
     '  "op": "create",\n'
     '  "outcome": "created",\n'
     '  "step": "ccbegins"\n'
     "}\n",
     ""),
    (None, ["evm", "step", "--op", "create", "--fixture", "{tmp}/notcreated.json"], 0,
     "not-created\n"
     "  machine' = {[g,6400],[i,2],[m,{[0,7],[1,9]}],[out,seq([])],[pc,0],[s,seq([0,7])]}\n",
     ""),
    (None, ["evm", "step", "--op", "create", "--fixture", "{tmp}/notcreated.json", "--json"], 0,
     "{\n"
     '  "command": "evm-step",\n'
     '  "machine": "{[g,6400],[i,2],[m,{[0,7],[1,9]}],[out,seq([])],[pc,0],[s,seq([0,7])]}",\n'
     '  "op": "create",\n'
     '  "outcome": "not-created"\n'
     "}\n",
     ""),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{tmp}/nofield.json"], 2,
     "",
     "error: fixture is missing field 'transaction'\n"),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{tmp}/nofield.json", "--json"], 2,
     "",
     "error: fixture is missing field 'transaction'\n"),
    # hostile files: a usage error, never a traceback
    (None, ["eval", "{tmp}/undecodable.slog"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["eval", "{tmp}/undecodable.slog", "--json"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["prove", "{tmp}/undecodable.slog"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["prove", "{tmp}/undecodable.slog", "--json"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["simulate", "{tmp}/undecodable.slog"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["simulate", "{tmp}/undecodable.slog", "--json"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{tmp}/undecodable.slog"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{tmp}/undecodable.slog", "--json"], 2,
     "",
     "error: cannot read {tmp}/undecodable.slog: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json", "--trace-out", "{tmp}/missing/trace.txt"], 2,
     "",
     "error: cannot write {tmp}/missing/trace.txt: [Errno 2] No such file or directory: '{tmp}/missing/trace.txt'\n"),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json", "--trace-out", "{tmp}/missing/trace.txt", "--json"], 2,
     "",
     "error: cannot write {tmp}/missing/trace.txt: [Errno 2] No such file or directory: '{tmp}/missing/trace.txt'\n"),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json", "--trace-out", "{tmp}"], 2,
     "",
     "error: cannot write {tmp}: [Errno 21] Is a directory: '{tmp}'\n"),
    (None, ["simulate", "{repo}/scenarios/rcvaddr2.json", "--trace-out", "{tmp}", "--json"], 2,
     "",
     "error: cannot write {tmp}: [Errno 21] Is a directory: '{tmp}'\n"),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{tmp}/list.json"], 2,
     "",
     "error: fixture is not a JSON object\n"),
    (None, ["evm", "step", "--op", "checkpoint", "--fixture", "{tmp}/list.json", "--json"], 2,
     "",
     "error: fixture is not a JSON object\n"),
    (None, ["evm", "step", "--op", "create", "--fixture", "{tmp}/string.json"], 2,
     "",
     "error: fixture is not a JSON object\n"),
    (None, ["evm", "step", "--op", "create", "--fixture", "{tmp}/string.json", "--json"], 2,
     "",
     "error: fixture is not a JSON object\n"),
    (None, ["simulate", "{tmp}/deep.json"], 2,
     "",
     "error: bad scenario JSON: nested too deeply\n"),
    (None, ["simulate", "{tmp}/deep.json", "--json"], 2,
     "",
     "error: bad scenario JSON: nested too deeply\n"),
    (None, ["evm", "step", "--op", "create", "--fixture", "{tmp}/deep.json"], 2,
     "",
     "error: bad fixture JSON: nested too deeply\n"),
    (None, ["evm", "step", "--op", "create", "--fixture", "{tmp}/deep.json", "--json"], 2,
     "",
     "error: bad fixture JSON: nested too deeply\n"),
    (None, ["simulate", "{tmp}/boolindex.json"], 2,
     "",
     "error: scenario is missing or mistypes a field: expected string or bytes-like object,"
     " got 'bool'\n"),
    (None, ["simulate", "{tmp}/boolindex.json", "--json"], 2,
     "",
     "error: scenario is missing or mistypes a field: expected string or bytes-like object,"
     " got 'bool'\n"),
]


@pytest.mark.parametrize(
    "patch, argv, code, out, err", REPORTS,
    ids=[(f"{r[0]}: " if r[0] else "") + " ".join(r[1]) for r in REPORTS],
)
def test_report_is_as_pinned(tmp_path, monkeypatch, capsys, patch, argv, code, out, err):
    assert _report(tmp_path, monkeypatch, capsys, patch, argv) == (code, out, err)
