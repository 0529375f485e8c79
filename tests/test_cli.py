import json
import os
import subprocess
import sys
from pathlib import Path

from setforge import speclang as S
from setforge.cli import main, parse_scope
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
