"""Textual syntax for values and formulas (.slog files).

Grammar sketch:

    file    := clausedef { clausedef } | formula ["."]
    clausedef := lowerident "(" var {"," var} ")" ":-" formula "."
    formula := part { "&" part }
    part    := "(" formula "or" formula {"or" formula} ")"
             | kind "(" termlist ")" | term "=" term | term "neq" term
             | "true" | "false"
    term    := INT | VAR | "_"
             | lowerident [ "(" termlist ")" ]
             | "seq" "(" "[" [termlist] "]" ")"
             | "ris" "(" lowervar "in" term "," "[]" "," formula "," term
                       ["," formula] ")"
             | "[" termlist "]"
             | "{" [termlist] ["/" term] "}"

Formulas and values share one set of token rules (_TOKEN):

- Blanks (space, tab, CR, LF) and comments, from "%" to the end of the
  line, only separate tokens.
- A name starts with a letter (str.isalpha) or "_" and goes on with letters,
  digits (str.isalnum) and "_".  A VAR starts with an uppercase letter
  (str.isupper) or "_"; a bare "_" is a fresh anonymous variable.
- INT is an optional "-" and one or more decimal digits (str.isdecimal), no
  more than the interpreter converts to an int.
- ":-" is one token, and any other character is a token by itself; one
  that is not "&=()[]{},/." is an error.

Printing is canonical: set elements in structural-key order, which also
sorts record fields alphabetically; parse(print(x)) is the identity on
formulas and ground values.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from .errors import NotGroundError, ParseError
from .formula import (
    FALSE,
    KINDS,
    TRUE,
    Constraint,
    Formula,
    Lit,
    RisT,
    SeqT,
    SetT,
    Term,
    TupT,
    Var,
    _fresh_names,
    conj_formulas,
    disj_of,
)
from .values import FIELD_ATOMS, Atom, IntV, SeqV, SetV, TupV, Value

RESERVED = {"or", "neq", "in", "ris", "seq", "true", "false"}

# Constructor atoms printed in functor style rather than as plain tuples.
_FUNCTOR_NS = {"msg"}
_FUNCTOR_NAMES = {"prog"}


class _Tok:
    __slots__ = ("kind", "text", "src", "pos")

    def __init__(self, kind, text, src, pos):
        self.kind = kind
        self.text = text
        self.src = src
        self.pos = pos

    # line and column are counted only when an error reads them
    @property
    def line(self):
        return self.src.count("\n", 0, self.pos) + 1

    @property
    def col(self):
        return self.pos - self.src.rfind("\n", 0, self.pos)

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


_PUNCT = {
    ":-": "DEFINE",
    "&": "AMP",
    "=": "EQ",
    "(": "LP",
    ")": "RP",
    "[": "LB",
    "]": "RB",
    "{": "LC",
    "}": "RC",
    ",": "COMMA",
    "/": "SLASH",
    ".": "DOT",
}

# One token after the blanks and comments before it, or "" at the end of the
# text.  The parser and the value reader both split text with it.
_TOKEN = re.compile(r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*([{}\[\](),]|[^\W\d]\w*|-?\d+|:-|[^ \t\r\n%]|\Z)")


def _lex(src: str):
    toks = []
    for m in _TOKEN.finditer(src):
        text = m[1]
        pos = m.start(1)
        kind = _PUNCT.get(text)
        if kind is None:
            c = text[:1]
            if c.isalpha() or c == "_":
                kind = "UIDENT" if c.isupper() or c == "_" else "LIDENT"
            elif c.isdecimal() or (c == "-" and len(text) > 1):
                kind = "INT"
            elif not text:
                # a comment on the last line leaves the end of input at its "%"
                pct = src.find("%", max(m.start(), src.rfind("\n") + 1))
                toks.append(_Tok("EOF", "", src, pos if pct < 0 else pct))
                return toks
            else:
                bad = _Tok("CHAR", c, src, pos)
                raise ParseError("unexpected character", bad.line, bad.col, c)
        toks.append(_Tok(kind, text, src, pos))


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.pos = 0
        # anonymous-variable names must not collide with names in the source
        self._anon = _fresh_names("_G", {t.text for t in self.toks if t.kind == "UIDENT"})

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {what}", t.line, t.col, t.text or "end of input")
        return t

    def error(self, msg):
        t = self.peek()
        raise ParseError(msg, t.line, t.col, t.text or "end of input")

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        parts = [self.part()]
        while self.peek().kind == "AMP":
            self.next()
            parts.append(self.part())
        return conj_formulas(parts)

    def part(self) -> Formula:
        t = self.peek()
        if t.kind == "LP":
            self.next()
            branches = [self.formula()]
            while self.peek().kind == "LIDENT" and self.peek().text == "or":
                self.next()
                branches.append(self.formula())
            if len(branches) < 2:
                self.error("expected 'or' inside parenthesized formula")
            self.expect("RP", "')'")
            return disj_of(branches)
        if t.kind == "LIDENT":
            if t.text == "true":
                self.next()
                return TRUE
            if t.text == "false":
                self.next()
                return FALSE
            if t.text in KINDS and self.peek(1).kind == "LP":
                self.next()
                self.next()
                args = self.termlist()
                self.expect("RP", "')'")
                try:
                    return Formula(((Constraint(t.text, args),),))
                except Exception as e:
                    raise ParseError(str(e), t.line, t.col, t.text) from None
        left = self.term()
        op = self.next()
        if op.kind == "EQ":
            return Formula(((Constraint("eq", (left, self.term())),),))
        if op.kind == "LIDENT" and op.text == "neq":
            return Formula(((Constraint("neq", (left, self.term())),),))
        raise ParseError("expected '=' or 'neq' after term", op.line, op.col, op.text or "end of input")

    # -- terms -------------------------------------------------------------

    def termlist(self):
        out = [self.term()]
        while self.peek().kind == "COMMA":
            self.next()
            out.append(self.term())
        return out

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            try:
                return Lit(IntV(int(t.text)))
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(
                    "integer literal has too many digits", t.line, t.col, t.text[:12] + "..."
                ) from None
        if t.kind == "UIDENT":
            self.next()
            if t.text == "_":
                return Var(next(self._anon))
            return Var(t.text)
        if t.kind == "LB":
            self.next()
            elems = self.termlist()
            self.expect("RB", "']'")
            if len(elems) < 2:
                raise ParseError("tuples need at least 2 components", t.line, t.col, "[")
            return self._ground_tuple(elems)
        if t.kind == "LC":
            self.next()
            if self.peek().kind == "RC":
                self.next()
                return Lit(SetV(()))
            elems = self.termlist()
            tail = None
            if self.peek().kind == "SLASH":
                self.next()
                tail = self.term()
            self.expect("RC", "'}'")
            return self._ground_set(elems, tail)
        if t.kind == "LIDENT":
            if t.text == "ris":
                return self.ris()
            if t.text == "seq":
                return self.seq()
            if t.text in RESERVED:
                self.error(f"reserved word {t.text!r} cannot start a term")
            self.next()
            if self.peek().kind == "LP":
                if t.text in KINDS:
                    raise ParseError(
                        "constraint name used as a constructor", t.line, t.col, t.text
                    )
                self.next()
                args = self.termlist()
                self.expect("RP", "')'")
                return self._ground_tuple([Lit(Atom(t.text))] + args)
            return Lit(Atom(t.text))
        self.error("expected a term")

    def _ground_set(self, elems, tail):
        if tail is None and all(isinstance(e, Lit) for e in elems):
            return Lit(SetV([e.value for e in elems]))
        return SetT(elems, tail)

    def _ground_tuple(self, elems):
        if len(elems) >= 2 and all(isinstance(e, Lit) for e in elems):
            return Lit(TupV([e.value for e in elems]))
        return TupT(elems)

    def ris(self) -> Term:
        start = self.expect("LIDENT", "'ris'")
        self.expect("LP", "'('")
        binder_tok = self.next()
        if binder_tok.kind != "UIDENT" or binder_tok.text == "_":
            raise ParseError(
                "comprehension binder must be a named variable",
                binder_tok.line,
                binder_tok.col,
                binder_tok.text,
            )
        kw = self.next()
        if not (kw.kind == "LIDENT" and kw.text == "in"):
            raise ParseError("expected 'in' after binder", kw.line, kw.col, kw.text)
        domain = self.term()
        self.expect("COMMA", "','")
        lb = self.expect("LB", "'[]' parameter list")
        if self.peek().kind != "RB":
            raise ParseError("comprehension parameter list must be empty", lb.line, lb.col, "[")
        self.next()
        self.expect("COMMA", "','")
        filt = self.formula()
        self.expect("COMMA", "','")
        pattern = self.term()
        if self.peek().kind == "COMMA":
            # five-argument output form: trailing formula folded into the filter
            self.next()
            extra = self.formula()
            filt = conj_formulas([filt, extra])
        self.expect("RP", "')'")
        _ = start
        return RisT(binder_tok.text, domain, filt, pattern)

    def seq(self) -> Term:
        self.expect("LIDENT", "'seq'")
        self.expect("LP", "'('")
        self.expect("LB", "'['")
        elems = []
        if self.peek().kind != "RB":
            elems = self.termlist()
        self.expect("RB", "']'")
        self.expect("RP", "')'")
        if all(isinstance(e, Lit) for e in elems):
            return Lit(SeqV([e.value for e in elems]))
        return SeqT(elems)


@contextmanager
def _nesting_guard(p: _Parser):
    """Turn input nested deeper than the recursive descent can follow into
    a ParseError at the token the parser reached."""
    try:
        yield
    except RecursionError:
        t = p.peek()
        raise ParseError(
            "input nested too deeply", t.line, t.col, t.text or "end of input"
        ) from None


def parse_formula(src: str) -> Formula:
    p = _Parser(src)
    with _nesting_guard(p):
        f = p.formula()
    if p.peek().kind == "DOT":
        p.next()
    p.expect("EOF", "end of input")
    return f


def parse_term(src: str) -> Term:
    p = _Parser(src)
    with _nesting_guard(p):
        t = p.term()
    p.expect("EOF", "end of input")
    return t


def parse_value(src: str) -> Value:
    """The ground value src spells.  Text that the direct reader does not
    take goes through parse_term and term_value, which build the same value
    or raise the error for it."""
    v = _read_value(src)
    if v is None:
        v = term_value(parse_term(src))
    return v


# Deeper text goes to the recursive parser, which decides whether it is
# nested too deeply to read.
_READ_DEPTH = 64


def _read_value(src: str):
    """Build the value src spells as its tokens come, without a term tree;
    None when src is anything but a well-formed ground value nested at most
    _READ_DEPTH deep whose names and integers start with an ASCII character."""
    toks = _TOKEN.findall(src)
    del toks[toks.index(""):]  # the end of the text matches once or twice
    n = len(toks)
    # open containers, innermost last: closing token(s) and elements so far;
    # "}" a set, "]" a tuple, ")" a constructor, "])" a sequence
    open_ = []
    i = 0
    while i < n and len(open_) <= _READ_DEPTH:
        t = toks[i]
        i += 1
        c = t[0]
        if "a" <= c <= "z":
            paren = i < n and toks[i] == "("
            if t == "seq" and paren and toks[i + 1:i + 2] == ["["]:
                i += 2
                if toks[i:i + 2] != ["]", ")"]:
                    open_.append(("])", []))
                    continue
                i += 2
                v = SeqV(())
            elif t in RESERVED or (paren and t in KINDS):
                return None
            else:
                v = FIELD_ATOMS.get(t) or Atom(t)  # most names in a world are field names
                if paren:
                    i += 1
                    open_.append((")", [v]))
                    continue
        elif "0" <= c <= "9" or (c == "-" and len(t) > 1):
            try:
                v = IntV(int(t))
            except ValueError:
                return None
        elif c == "{" and i < n and toks[i] == "}":
            i += 1
            v = SetV(())
        elif c == "{" or c == "[":
            open_.append(("}" if c == "{" else "]", []))
            continue
        else:
            return None
        # v is complete: add it to its container, closing those that end here
        while open_:
            closer, elems = open_[-1]
            elems.append(v)
            if i == n:
                return None
            t = toks[i]
            i += 1
            if t == ",":
                break
            if t != closer[0]:
                return None
            open_.pop()
            if closer == "}":
                v = SetV(elems)
            elif closer == "])":
                if i == n or toks[i] != ")":
                    return None
                i += 1
                v = SeqV(elems)
            elif len(elems) < 2:
                return None
            else:
                v = TupV(elems)
        else:
            return v if i == n else None
    return None


def term_value(t: Term) -> Value:
    """Ground term to Value; rejects variables and comprehensions."""
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        raise NotGroundError(f"variable {t.name} in value context")
    if isinstance(t, TupT):
        return TupV([term_value(e) for e in t.elems])
    if isinstance(t, SeqT):
        return SeqV([term_value(e) for e in t.elems])
    if isinstance(t, SetT):
        if t.tail is not None:
            raise NotGroundError("open set extension in value context")
        return SetV([term_value(e) for e in t.elems])
    raise NotGroundError(f"non-ground term in value context: {t!r}")


class NamedClause:
    __slots__ = ("name", "params", "body")

    def __init__(self, name, params, body):
        self.name = name
        self.params = tuple(params)
        self.body = body


def parse_file(src: str):
    """Parse a .slog source: named clauses, a bare formula, or both."""
    p = _Parser(src)
    clauses = {}
    main = None
    with _nesting_guard(p):
        while p.peek().kind != "EOF":
            saved = p.pos
            clause = _try_clausedef(p)
            if clause is not None:
                if clause.name in clauses:
                    t = p.peek()
                    raise ParseError(f"duplicate clause {clause.name!r}", t.line, t.col)
                clauses[clause.name] = clause
                continue
            p.pos = saved
            if main is not None:
                p.error("only one bare formula per file")
            main = p.formula()
            if p.peek().kind == "DOT":
                p.next()
    return clauses, main


def _try_clausedef(p: _Parser):
    t = p.peek()
    if t.kind != "LIDENT" or p.peek(1).kind != "LP":
        return None
    # scan ahead for ':-' before the next '.', distinguishing a clause head
    # from a bare constraint
    depth = 0
    k = p.pos
    is_def = False
    while k < len(p.toks):
        tk = p.toks[k]
        if tk.kind == "LP":
            depth += 1
        elif tk.kind == "RP":
            depth -= 1
            if depth == 0:
                is_def = p.toks[k + 1].kind == "DEFINE"
                break
        k += 1
    if not is_def:
        return None
    name = p.next().text
    p.expect("LP", "'('")
    params = []
    while True:
        v = p.expect("UIDENT", "parameter variable")
        params.append(v.text)
        if p.peek().kind == "COMMA":
            p.next()
            continue
        break
    p.expect("RP", "')'")
    p.expect("DEFINE", "':-'")
    body = p.formula()
    p.expect("DOT", "'.' after clause body")
    return NamedClause(name, params, body)


# -- printing ---------------------------------------------------------------


def print_value(v: Value) -> str:
    # map calls this function itself, one frame per nesting level: a helper
    # frame per level would halve the depth it can print
    t = type(v)
    if t is Atom:
        return v.name
    if t is TupV:
        head = v.elems[0]
        if type(head) is Atom and (head.ns in _FUNCTOR_NS or head.name in _FUNCTOR_NAMES):
            return f"{head.name}({','.join(map(print_value, v.elems[1:]))})"
        return f"[{','.join(map(print_value, v.elems))}]"
    if t is SetV:
        return "{" + ",".join(map(print_value, v.elems)) + "}"
    if t is IntV:
        return str(v.n)
    if t is SeqV:
        return "seq([" + ",".join(map(print_value, v.elems)) + "])"
    raise NotGroundError(f"cannot print non-Value {v!r}")


def print_term(t: Term) -> str:
    if isinstance(t, Lit):
        return print_value(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, TupT):
        head = t.elems[0]
        if isinstance(head, Lit) and isinstance(head.value, Atom):
            a = head.value
            if a.ns in _FUNCTOR_NS or a.name in _FUNCTOR_NAMES:
                return f"{a.name}({','.join(print_term(e) for e in t.elems[1:])})"
        return f"[{','.join(print_term(e) for e in t.elems)}]"
    if isinstance(t, SeqT):
        return "seq([" + ",".join(print_term(e) for e in t.elems) + "])"
    if isinstance(t, SetT):
        inner = ",".join(print_term(e) for e in t.elems)
        if t.tail is not None:
            inner += "/" + print_term(t.tail)
        return "{" + inner + "}"
    if isinstance(t, RisT):
        return (
            f"ris({t.binder} in {print_term(t.domain)},[],"
            f"{print_formula(t.filter)},{print_term(t.pattern)})"
        )
    raise NotGroundError(f"cannot print term {t!r}")


def print_constraint(c: Constraint) -> str:
    if c.kind == "eq":
        return f"{print_term(c.args[0])} = {print_term(c.args[1])}"
    if c.kind == "neq":
        return f"{print_term(c.args[0])} neq {print_term(c.args[1])}"
    return f"{c.kind}({','.join(print_term(a) for a in c.args)})"


def print_formula(f: Formula) -> str:
    if f.is_false():
        return "false"
    rows = []
    for d in f.disjuncts:
        rows.append(" & ".join(print_constraint(c) for c in d) if d else "true")
    if len(rows) == 1:
        return rows[0]
    return "(" + " or ".join(rows) + ")"
