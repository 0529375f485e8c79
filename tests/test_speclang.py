import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import values_st
from setforge import consensus as CN
from setforge import evm as E
from setforge import speclang as S
from setforge import values
from setforge.errors import NotGroundError, ParseError
from setforge.formula import FALSE, TRUE, Lit, RisT, SetT, TupT, Var
from setforge.values import FIELD_ATOMS, Atom, SeqV, atom, intv, tup, vseq, vset

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

RCVADDR_SRC = """
rcvAddr(S,P,Ps,S_) :-
  S = {[as,As] / Rest} &
  P = [_,this, addrMsg(Asm)] &
  un(As,Asm,As_) &
  diff(Asm,As,D) &
  PsD = ris(A in D,[],true,[this,A,connectMsg]) &
  PsAs = ris(A in As,[],true,[this,A,addrMsg(As_)]) &
  un(PsD,PsAs,Ps) &
  S_ = {[as,As_] / Rest}.
"""

# every value snippet quoted in the protocol walkthrough
TRACE_SNIPPETS = [
    "{a1,a2}",
    "{a2,a1,a3}",
    "[this,a3,connectMsg]",
    "{[as,{a1,a2}]}",
    "{[as,{}]}",
    "{[this,a3,connectMsg],[this,a1,addrMsg({a2,a1,a3})],[this,a2,addrMsg({a2,a1,a3})]}",
    "addrMsg({a1,a2})",
]


def test_parse_two_constraint_conjunction():
    f = S.parse_formula("un(As,Asm,As_) & diff(Asm,As,D)")
    assert len(f.disjuncts) == 1
    kinds = [c.kind for c in f.disjuncts[0]]
    assert kinds == ["un", "diff"]


def test_parse_record_pattern():
    f = S.parse_formula("S = {[as,As] / Rest}")
    (c,) = f.disjuncts[0]
    assert c.kind == "eq"
    assert c.args[0] == Var("S")
    pat = c.args[1]
    assert isinstance(pat, SetT) and pat.tail == Var("Rest")
    assert pat.elems[0] == TupT((Lit(atom("as")), Var("As")))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as e:
        S.parse_formula("X = {")
    assert e.value.line >= 1 and e.value.col >= 1


def test_parse_values():
    assert S.parse_value("{a1,a2}") == vset([atom("a1"), atom("a2")])
    assert S.parse_value("[this,a3,connectMsg]") == tup(
        atom("this"), atom("a3"), atom("connectMsg")
    )
    rec = S.parse_value("{[as,{a1,a2}]}")
    assert rec == vset([tup(atom("as"), vset([atom("a1"), atom("a2")]))])
    assert S.parse_value("seq([5,0,64,7])") == vseq([intv(5), intv(0), intv(64), intv(7)])
    assert S.parse_value("-3") == intv(-3)


def test_value_context_rejects_variables():
    with pytest.raises(NotGroundError):
        S.parse_value("[_,this,addrMsg({a1,a2})]")
    with pytest.raises(NotGroundError):
        S.parse_value("{a1/R}")


def test_underscores_are_fresh_and_distinct():
    f = S.parse_formula("P = [_,this,addrMsg(Asm)] & Q = [_,this,connectMsg]")
    c1, c2 = f.disjuncts[0]
    v1 = c1.args[1].elems[0]
    v2 = c2.args[1].elems[0]
    assert isinstance(v1, Var) and isinstance(v2, Var) and v1.name != v2.name


def test_named_clause_file():
    clauses, main = S.parse_file(RCVADDR_SRC)
    assert main is None
    clause = clauses["rcvAddr"]
    assert clause.params == ("S", "P", "Ps", "S_")
    assert len(clause.body.disjuncts[0]) == 8


def test_disjunction_distributes():
    f = S.parse_formula("x = a1 & (pfun(F) or npfun(F))")
    assert len(f.disjuncts) == 2
    assert all(len(d) == 2 for d in f.disjuncts)


def test_ris_five_argument_output_form():
    f4 = S.parse_formula("X = ris(A in D,[],true,[this,A,connectMsg])")
    f5 = S.parse_formula("X = ris(A in D,[],true,[this,A,connectMsg],true)")
    r4 = f4.disjuncts[0][0].args[1]
    r5 = f5.disjuncts[0][0].args[1]
    assert isinstance(r4, RisT) and isinstance(r5, RisT)
    assert r5.filter.is_true()
    assert S.print_term(r5) == S.print_term(r4)


def test_true_false_parts():
    assert S.parse_formula("true") == TRUE
    assert S.parse_formula("false") == FALSE
    assert S.print_formula(TRUE) == "true"
    assert S.print_formula(FALSE) == "false"


def test_canonical_set_printing():
    assert S.print_value(S.parse_value("{a2,a1,a3}")) == "{a1,a2,a3}"
    got = S.print_value(
        S.parse_value("{[this,a3,connectMsg],[this,a1,addrMsg({a2,a1,a3})],[this,a2,addrMsg({a2,a1,a3})]}")
    )
    assert got == "{[this,a1,addrMsg({a1,a2,a3})],[this,a2,addrMsg({a1,a2,a3})],[this,a3,connectMsg]}"


def test_record_fields_print_sorted():
    v = S.parse_value("{[tp,{}],[bf,{}],[as,{a1}]}")
    assert S.print_value(v) == "{[as,{a1}],[bf,{}],[tp,{}]}"


def test_trace_snippets_round_trip():
    for src in TRACE_SNIPPETS:
        v = S.parse_value(src)
        assert S.parse_value(S.print_value(v)) == v


def test_formula_round_trip_on_clause():
    clauses, _ = S.parse_file(RCVADDR_SRC)
    body = clauses["rcvAddr"].body
    assert S.parse_formula(S.print_formula(body)) == body


def test_constraint_name_not_a_constructor():
    with pytest.raises(ParseError):
        S.parse_formula("X = un(A,B)")


@given(values_st())
def test_value_round_trip(v):
    assert S.parse_value(S.print_value(v)) == v


@given(values_st())
def test_printing_is_injective_modulo_equality(v):
    # canonical form: printing twice gives the same text
    assert S.print_value(v) == S.print_value(S.parse_value(S.print_value(v)))


# -- the direct value reader against the term path -----------------------------------


def _term_path(src):
    return S.term_value(S.parse_term(src))


def _result(fn, src):
    """The value fn(src) builds, or the type, message, line and column of
    the error it raises."""
    try:
        return ("value", fn(src))
    except (ParseError, NotGroundError) as e:
        return (type(e), str(e), getattr(e, "line", None), getattr(e, "col", None))


def _assert_read_directly(src):
    """The direct reader takes src itself and builds the term path's value."""
    v = S._read_value(src)
    assert v is not None, src
    assert v == _term_path(src) == S.parse_value(src)
    assert S.print_value(v) == S.print_value(_term_path(src))


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, list):
        for x in obj:
            yield from _strings(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _strings(x)


def test_reader_matches_term_path_on_scenario_values():
    texts = [s for path in sorted(SCENARIOS.glob("*.json"))
             for s in _strings(json.loads(path.read_text()))]
    assert len(texts) >= 20
    for src in texts:
        _assert_read_directly(src)


def test_reader_matches_term_path_on_a_300_account_world():
    rng = random.Random(11)
    names = [f"a{i:03d}" for i in range(1, 301)]
    acc = ",".join(f"[{a},{{[bal,{rng.randint(0, 10**6)}],[code,prog({{}})],"
                   f"[nonce,{rng.randint(0, 9)}]}}]" for a in names)
    _assert_read_directly(f"{{[acc,{{{acc}}}],[accCC,{{}}],[newaddr,null],[step,initial]}}")
    for _ in range(50):
        _assert_read_directly(
            f"{{[sender,{rng.choice(names)}],[td,seq([])],[tg,{rng.randint(1, 100)}],"
            f"[ti,prog({{}})],[tn,{rng.randint(0, 9)}],[tp,{rng.randint(1, 20)}],"
            f"[tt,contractCreation],[tv,{rng.randint(-5, 1000)}]}}")


@given(values_st())
def test_reader_matches_term_path_on_printed_values(v):
    _assert_read_directly(S.print_value(v))


def test_reader_leaves_only_deeper_nesting_to_the_term_path():
    for depth in (S._READ_DEPTH, S._READ_DEPTH + 1):
        src = "[" * (depth - 1) + "{a1}" + ",a2]" * (depth - 1)  # depth containers
        assert (S._read_value(src) is None) == (depth == S._READ_DEPTH + 1)
        assert S.parse_value(src) == _term_path(src)


def test_reader_takes_field_names_from_the_field_atom_table(monkeypatch):
    for name in sorted(FIELD_ATOMS):
        v = S.parse_value(name)
        assert v == Atom(name) and v.ns == "field" and v is FIELD_ATOMS[name]
    # any other name still goes through infer_namespace
    seen = []
    infer = values.infer_namespace
    monkeypatch.setattr(values, "infer_namespace", lambda n: seen.append(n) or infer(n))
    v = S.parse_value("{[bal,a7],[nonce,zz],[sender,tx3],[code,addrMsg(h2)]}")
    assert seen == ["a7", "zz", "tx3", "addrMsg", "h2"]
    assert [(p.elems[0].ns, p.elems[1]) for p in v.elems] == [
        ("field", Atom("a7", "addr")),
        ("field", tup(Atom("addrMsg", "msg"), Atom("h2", "hash"))),
        ("field", Atom("zz", "opaque")), ("field", Atom("tx3", "tx"))]


def _constructed_records():
    a1, a2 = atom("a1"), atom("a2")
    prog = E.toprog(vset([tup(intv(0), intv(7))]))
    acc = vset([tup(a1, E.make_acc(1, 5, prog))])
    frame = E.make_frame(vseq([E.CREATE_INSTR]), 1)
    env = E.make_exec_env(a1, a2, 2, 0)
    packet = CN.make_packet(atom("env", "addr"), a1, CN.addr_msg(vset([a2])))
    args = E.CreateArgs(s=a1, o=a2, g=intv(9), p=intv(2), v=intv(0), i=prog, e=intv(1))
    return {
        "acc": E.make_acc(1, 5, prog),
        "world": E.make_world(acc, acc, a2, E.STEP_CCBEGINS),
        "machine": E.make_machine(10, 1, vset([tup(intv(0), intv(7))]), 1, vseq([intv(3)])),
        "transaction": E.make_transaction(0, 10, 2, 1, prog, vseq(), a1, E.TT_MESSAGE_CALL),
        "exec_env": env,
        "frame": frame,
        "call_stack": E.make_call_stack(vseq([frame]), vseq([env])),
        "create_args": args.to_record(),
        "block": CN.make_block(atom("h1"), vset([atom("tx1")]), atom("pr1")),
        "loc_state": CN.make_loc_state(vset([a2]), vset([tup(atom("h1"), atom("h2"))]), vset()),
        "conf": CN.make_conf(vset([tup(a1, CN.make_loc_state(vset([a2])))]), vset([packet])),
        "init_conf": CN.init_conf(vset([a1, a2])),
    }


_RECORDS = _constructed_records()


@pytest.mark.parametrize("name", list(_RECORDS))
def test_every_constructed_record_prints_to_text_that_parses_back(name):
    record = _RECORDS[name]
    # each record field is the table's one atom, and its bare name reads back as it
    assert all(p.elems[0] is FIELD_ATOMS[p.elems[0].name] for p in record.elems)
    assert S.parse_value(S.print_value(record)) == record


@pytest.mark.parametrize("wrap", [
    lambda v: vset([v]), lambda v: tup(v, atom("a2")), lambda v: vseq([v])])
def test_values_450_levels_deep_print_and_compare(wrap):
    v, w = atom("a1"), atom("a1")
    for _ in range(450):
        v, w = wrap(v), wrap(w)
    assert v is not w and v == w and not v != w and v <= w and hash(v) == hash(w)
    printed = S.print_value(v)
    assert printed == S.print_value(w) and printed.count("a1") == 1
    if not isinstance(v, SeqV):  # seq([ nests too deep for the term parser
        assert S.parse_value(printed) == v


MALFORMED = [
    "", " ", "{a1,}", "[a1,a2,]", "{,a1}", "{a1,,a2}", "[a1]", "[]", "seq([a1,])",
    "{a1/T}", "{a1 / }", "X", "_", "[a1,X]", "{[a1,_]}", "seq([X])", "addrMsg(X)",
    "ris(X in {a1},[],true,X)", "{ris(X in {a1},[],true,X)}", "seq(", "seq([a1]",
    "seq[a1]", "seq", "seq([])]", "seq([a1]]", "[seq([a1]],a2]", "{a1} % comment", "% only a comment",
    "{a1,\n% note\na2}", "{a1,\n\n  B}", "{a1,\n\n  a2", "\n\n}", "{a1}}", "}",
    "a1 a2", "[a1 a2]", "a1.", "-", "- 1", "--1", "1a", "a1 = a2", "f()",
    "un(a1,a2)", "or", "{in}", "true", "prog({})", "addrMsg({a1,a2})", "a1²", "²",
    "{a1,²}", "1" * 5000, "-" + "1" * 5000, "{" + "9" * 5000 + "}", "é", "{é,a1}",
    "\t{a1}\r\n", "{a1}\x0b", " {a1}", "[" * 70 + "a1,a2" + "]" * 70,
    "{" * 3000 + "}" * 3000, "[" * 3000 + "a1", "seq([" * 3000,
]


def test_reader_raises_like_term_path_on_malformed_input():
    for src in MALFORMED:
        assert _result(S.parse_value, src) == _result(_term_path, src), src


@given(st.text())
def test_reader_matches_term_path_on_random_text(src):
    assert _result(S.parse_value, src) == _result(_term_path, src)


@given(st.text(alphabet="{}[](),/ \n%_-09a1XseqprogMsg²é\u0661"))
def test_reader_matches_term_path_on_random_value_like_text(src):
    assert _result(S.parse_value, src) == _result(_term_path, src)


# -- integer literals: decimal digits, no more than the interpreter converts ---


def test_unicode_decimal_digits_are_integers():
    assert S.parse_value("\u0661") == intv(1)
    assert S.parse_value("-\u0661\u0662") == intv(-12)
    assert S.parse_value("{\u0661,a1}") == vset([intv(1), atom("a1")])
    assert S.parse_formula("X = \u0663") == S.parse_formula("X = 3")
    for src in ("\u0661", "-\u0661\u0662", "{\u0661,a1}", "[a1,\u0669\u0669]"):
        assert _result(S.parse_value, src) == _result(_term_path, src), src


def test_non_decimal_digit_is_a_parse_error():
    for fn, src, col in ((S.parse_value, "²", 1), (S.parse_value, "{a1,²}", 5),
                         (S.parse_formula, "in(a1,{²})", 8)):
        with pytest.raises(ParseError) as e:
            fn(src)
        assert (e.value.line, e.value.col, e.value.token) == (1, col, "²")
        assert str(e.value).startswith("unexpected character")
    with pytest.raises(ParseError) as e:
        S.parse_value("{a1,\n  ²}")
    assert (e.value.line, e.value.col) == (2, 3)
    assert S.parse_value("a²") == atom("a²")


# Python 3.10.7 and later limit the digits int() converts; earlier ones convert any length.
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() converts any number of digits")
def test_overlong_integer_literal_is_a_parse_error():
    digits = "1" * 5000
    for fn, src, col in ((S.parse_value, digits, 1), (S.parse_value, "{a1,-" + digits + "}", 5),
                         (S.parse_formula, "X = " + digits, 5),
                         (S.parse_formula, "in(" + digits + ",{})", 4)):
        with pytest.raises(ParseError) as e:
            fn(src)
        assert (e.value.line, e.value.col) == (1, col)
        assert str(e.value).startswith("integer literal has too many digits")
    assert S.parse_value("9" * 4000) == intv(int("9" * 4000))


# -- the tokens: kind, text, line and column, or the error and where it is ----

LEX_TABLE = [
    ("-5", [("INT", "-5", 1, 1), ("EOF", "", 1, 3)]),
    ("--5", ("unexpected character", 1, 1, "-")),
    ("12abc", [("INT", "12", 1, 1), ("LIDENT", "abc", 1, 3), ("EOF", "", 1, 6)]),
    ("a-5", [("LIDENT", "a", 1, 1), ("INT", "-5", 1, 2), ("EOF", "", 1, 4)]),
    ("١٢", [("INT", "١٢", 1, 1), ("EOF", "", 1, 3)]),
    ("-١", [("INT", "-١", 1, 1), ("EOF", "", 1, 3)]),
    ("\xb2", ("unexpected character", 1, 1, "\xb2")),
    ("a\xb2", [("LIDENT", "a\xb2", 1, 1), ("EOF", "", 1, 3)]),
    ("\xb2a", ("unexpected character", 1, 1, "\xb2")),
    ("\xbd", ("unexpected character", 1, 1, "\xbd")),
    ("Ⅻ", ("unexpected character", 1, 1, "Ⅻ")),
    ("ǅx", [("LIDENT", "ǅx", 1, 1), ("EOF", "", 1, 3)]),
    ("\xc9a", [("UIDENT", "\xc9a", 1, 1), ("EOF", "", 1, 3)]),
    ("\xe9", [("LIDENT", "\xe9", 1, 1), ("EOF", "", 1, 2)]),
    ("e\u0301", ("unexpected character", 1, 2, "\u0301")),
    ("\xa0", ("unexpected character", 1, 1, "\xa0")),
    ("\x0b", ("unexpected character", 1, 1, "\x0b")),
    ("a\fb", ("unexpected character", 1, 2, "\f")),
    (":-", [("DEFINE", ":-", 1, 1), ("EOF", "", 1, 3)]),
    (":", ("unexpected character", 1, 1, ":")),
    ("a:-b", [("LIDENT", "a", 1, 1), ("DEFINE", ":-", 1, 2), ("LIDENT", "b", 1, 4),
              ("EOF", "", 1, 5)]),
    ("_", [("UIDENT", "_", 1, 1), ("EOF", "", 1, 2)]),
    ("X1 _y", [("UIDENT", "X1", 1, 1), ("UIDENT", "_y", 1, 4), ("EOF", "", 1, 6)]),
    # the column does not advance over a comment
    ("%c", [("EOF", "", 1, 1)]),
    ("a%", [("LIDENT", "a", 1, 1), ("EOF", "", 1, 2)]),
    ("a %c", [("LIDENT", "a", 1, 1), ("EOF", "", 1, 3)]),
    ("a %c\nb", [("LIDENT", "a", 1, 1), ("LIDENT", "b", 2, 1), ("EOF", "", 2, 2)]),
    ("\n\n  %x", [("EOF", "", 3, 3)]),
    ("a\t\r\nb", [("LIDENT", "a", 1, 1), ("LIDENT", "b", 2, 1), ("EOF", "", 2, 2)]),
    ("in(a1 %x", [("LIDENT", "in", 1, 1), ("LP", "(", 1, 3), ("LIDENT", "a1", 1, 4),
                  ("EOF", "", 1, 7)]),
    ("{a1,\n  \xb2}", ("unexpected character", 2, 3, "\xb2")),
    ("", [("EOF", "", 1, 1)]),
]


def _lexed(src):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in S._lex(src)]
    except ParseError as e:
        return (e.message, e.line, e.col, e.token)


@pytest.mark.parametrize("src,expected", LEX_TABLE)
def test_tokens_and_errors_are_as_pinned(src, expected):
    assert _lexed(src) == expected
