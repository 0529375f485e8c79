"""The compile of one conjunct into the problem the search runs.  It reads
no scope: it lifts each comprehension or open extension that is no eq or
neq operand into an equation on a fresh variable (_lifted), rewrites by
rules that hold in every scope (_rewrite) and gives each variable a sort
(_infer_sorts).  One walk per constraint (formula._scan, the walk of the
binder check and of free_vars) finds its free names, its literal atoms and
whether something in it is lifted.  Only such a constraint is rebuilt, and
the walk is repeated only when a constraint is rebuilt or replaced.
"""

from __future__ import annotations

import itertools

from ._frozen import Frozen
from .formula import Constraint, Lit, RisT, SeqT, SetT, Term, TupT, Var, _fresh_names, _scan
from .universe import AnyS, AtomS, IntS, RecordS, RelS, SeqS, SetS, Sort, TupleS
from .values import EMPTY_SET, Atom, IntV, SeqV, SetV, TupV


class Problem(Frozen):
    """One compiled conjunct: compiled, with its set terms lifted, for the
    witness re-check; constraints, compiled after _rewrite or None when it
    refutes them, for the search; per constraint its free names in
    first-occurrence order (free) and literal atoms (atoms); the caller's
    names (caller); and the sort of each name of caller and free (sorts)."""

    compiled: tuple
    constraints: tuple
    free: tuple
    atoms: tuple
    caller: tuple
    sorts: dict


# -- argument kinds: the positions that hold a set, a relation, an integer or a
# sequence (solver._eval_constraint reads a tag's class, _infer_sorts its sort)


class _Tag(Frozen):
    """An argument kind: the sort _infer_sorts gives a variable at such a
    position, and the class a ground value there must have."""

    sort: Sort
    ground: type


_SET = _Tag(SetS(AnyS()), SetV)
_REL = _Tag(RelS(AnyS(), AnyS()), SetV)
_INT = _Tag(IntS(), IntV)
_SEQ = _Tag(SeqS(AnyS()), SeqV)
_ANY = AnyS()
_TAG_ORDER = (_REL, _SET, _INT, _SEQ)  # a variable at two tagged positions takes the first

_ARG_KINDS = {
    **dict.fromkeys(("eq", "neq")),
    **dict.fromkeys(("in", "nin"), (None, _SET)),
    **dict.fromkeys(("un", "diff", "inters"), (_SET, _SET, _SET)),
    **dict.fromkeys(("disj", "ndisj", "subset", "nsubset"), (_SET, _SET)),
    **dict.fromkeys(("dom", "ran"), (_REL, _SET)),
    "apply": (_REL, None, None),
    "oplus": (_REL, _REL, _REL),
    "dres": (_SET, _REL, _REL),
    **dict.fromkeys(("pfun", "npfun"), (_REL,)),
    "seq_head": (_SEQ, None),
    "seq_tail": (_SEQ, _SEQ),
    "seq_concat": (_SEQ, _SEQ, _SEQ),
    "seq_nth": (_SEQ, _INT, None),
    **dict.fromkeys(("plus", "minus", "times", "intdiv"), (_INT, _INT, _INT)),
    **dict.fromkeys(("le", "lt"), (_INT, _INT)),
}


def _is_set_term(t):
    """Whether t is a comprehension or an open extension."""
    return isinstance(t, RisT) or (isinstance(t, SetT) and t.tail is not None)


# -- the compile ----------------------------------------------------------------------


def _compile(disjunct, declared) -> Problem:
    """The compiled problem of one conjunct; declared maps the caller's
    variables to their sorts."""
    binders = set()  # (binder, outermost) of every comprehension: no fresh name takes a binder
    compiled, scans = list(disjunct), _scan([c.args for c in disjunct], binders, atoms=True)
    caller = tuple(dict.fromkeys(itertools.chain.from_iterable(s[0] for s in scans)))
    lifts = [s[2] and _lifts(c, s[2]) for c, s in zip(disjunct, scans)]
    if any(lifts):  # rare: walk the compiled conjunct again
        used = set(caller).union(b for b, _ in binders)
        fresh = _fresh_names("_E", used)
        compiled = [d for c, lift in zip(disjunct, lifts)
                    for d in (_lifted(c, fresh) if lift else [c])]
        scans = _scan([c.args for c in compiled], atoms=True)
    constraints = _rewrite(compiled, declared)
    if constraints is None:
        return Problem(tuple(compiled), None, (), (), caller, {})
    if constraints != compiled:  # rare: the clash rule replaced a constraint
        scans = _scan([c.args for c in constraints], atoms=True)
    free, atoms = tuple(s[0] for s in scans), tuple(s[1] for s in scans)
    sorts = _infer_sorts(constraints, declared, itertools.chain(caller, *free))
    return Problem(tuple(compiled), tuple(constraints), free, atoms, caller, sorts)


def _lifts(c: Constraint, sets):
    """Whether _lifted has something to lift in c, which holds sets
    comprehensions and open extensions outside every filter and pattern:
    one that is no eq or neq operand."""
    if c.kind in ("eq", "neq"):
        sets -= sum(map(_is_set_term, c.args))  # an operand stays in place
    return sets > 0


def _lifted(c: Constraint, fresh):
    """The constraints that replace c: an equation for each comprehension
    and open extension in c that is no eq or neq operand, defining the
    fresh variable that takes its place, inner ones first, then c."""
    defs = []

    def walk(t, operand=False):
        kind = type(t)
        if kind is TupT or kind is SeqT:
            return kind([walk(e) for e in t.elems])
        if kind is SetT:
            elems = [walk(e) for e in t.elems]
            if t.tail is None:
                return SetT(elems)
            name = None if operand else next(fresh)
            t = SetT(elems, walk(t.tail))
        elif kind is RisT:
            name = None if operand else next(fresh)
            t = RisT(t.binder, walk(t.domain), t.filter, t.pattern)
        else:
            return t
        if name is None:
            return t
        defs.append(Constraint("eq", (Var(name), t)))
        return Var(name)

    operands = c.kind in ("eq", "neq")
    args = [walk(a, operands) for a in c.args]
    return [*defs, Constraint(c.kind, args)]


# -- the rewriting pass ---------------------------------------------------------------


def _pattern_shape(t):
    """(kind, parts) of a term whose value kind is fixed: a tuple or a
    sequence with its component terms, or any other literal with its value.
    None for a variable, a set term or a comprehension."""
    if isinstance(t, Lit):
        v = t.value
        if isinstance(v, TupV):
            return "tuple", [Lit(e) for e in v.elems]
        if isinstance(v, SeqV):
            return "seq", [Lit(e) for e in v.elems]
        return "literal", v
    if isinstance(t, TupT):
        return "tuple", t.elems
    if isinstance(t, SeqT):
        return "seq", t.elems
    return None


def _clash(p: Term, q: Term) -> bool:
    """Whether patterns p and q denote different values under every
    assignment of their variables, each side's variables taken
    independently: they differ in kind (atom or integer, tuple, set,
    sequence), are unequal literals, or are tuples or sequences of different
    length or with a pair of clashing components.  A variable, a set term or
    a comprehension clashes with nothing, so no clash rests on the value of
    a variable or on set equality."""
    sp, sq = _pattern_shape(p), _pattern_shape(q)
    if sp is None or sq is None:
        return False
    (kp, ep), (kq, eq) = sp, sq
    if kp != kq:
        return True
    if kp == "literal":
        return ep != eq
    return len(ep) != len(eq) or any(map(_clash, ep, eq))


_EMPTY = Lit(EMPTY_SET)


def _pair_first(t):
    """The first component term of a 2-tuple term, or None."""
    if isinstance(t, TupT) and len(t.elems) == 2:
        return t.elems[0]
    if isinstance(t, Lit) and isinstance(t.value, TupV) and len(t.value.elems) == 2:
        return Lit(t.value.elems[0])
    return None


def _only_member(t):
    """The member of a tail-free set term that lists exactly one, or None."""
    if isinstance(t, SetT) and t.tail is None and len(t.elems) == 1:
        return t.elems[0]
    if isinstance(t, Lit) and isinstance(t.value, SetV) and len(t.value.elems) == 1:
        return Lit(t.value.elems[0])
    return None


def _rewrite(constraints, declared):
    """Rewrite one conjunct by rules that hold in every scope.  Returns the
    rewritten constraints, or None when the conjunct is refuted.

    Pattern clash, the one rule that rewrites: no element lies in both of
    two variables defined by comprehensions whose patterns clash, so
    ndisj(X,Y) cannot hold, eq(X,Y) holds only as X = {} and Y = {}, and
    subset(X,Y) only as X = {}.

    The other rules only refute; the search runs what the clash rule left.
    Terms with equal keys denote one value: eq(Var,Var) joins two classes,
    and so does dom on one first argument (congruence).  The dom of a set
    term listing one pair [k,v] is {k}.  Against a singleton {e},
    disj(X,{e}) and nsubset({e},X) give nin(e,X), subset({e},X) and
    ndisj(X,{e}) give in(e,X), and subset(X,{e}) with in(e,X) gives
    X = {e}.  pfun(X) and a one-pair set term are partial functions, and
    so is the result of oplus on two of them or of dres on one.  The
    conjunct is refuted by in and nin of one element in one set, by neq of
    one class or of one singleton, by npfun of a partial function, by a
    declared variable whose sort holds no value of the kind of its argument
    position (_outside_arg_kinds), and by an apply whose argument can never
    be a key of its function (_apply_outside_keys).  declared maps the
    caller's variables to their sorts."""
    patterns = {}
    for c in constraints:
        if c.kind == "eq":
            for one, other in (c.args, c.args[::-1]):
                if isinstance(one, Var) and isinstance(other, RisT):
                    patterns.setdefault(one.name, []).append(other.pattern)

    def apart(a, b):
        return (
            isinstance(a, Var)
            and isinstance(b, Var)
            and any(
                _clash(p, q) for p in patterns.get(a.name, ()) for q in patterns.get(b.name, ())
            )
        )

    out = []
    for c in constraints:
        if not patterns or c.kind not in ("ndisj", "eq", "subset") or not apart(*c.args):
            out.append(c)
        elif c.kind == "ndisj":
            return None
        else:
            out.append(Constraint("eq", (c.args[0], _EMPTY)))
            if c.kind == "eq":
                out.append(Constraint("eq", (c.args[1], _EMPTY)))

    parent = {}  # union-find over variable names: a name -> its parent

    def find(name):
        while name in parent:
            name = parent[name]
        return name

    def key(t):
        if isinstance(t, Var):
            return "var", find(t.name)
        if isinstance(t, TupT):
            return ("tuple", *map(key, t.elems))
        return t

    links = [c for c in out if c.kind in ("eq", "dom")]
    merged = True
    while merged:
        merged = False
        dom_of = {}
        for c in links:
            a, b = c.args[0], c.args[-1]
            if c.kind == "dom" and isinstance(b, Var):
                a = dom_of.setdefault(key(a), b)
            elif c.kind != "eq" or not isinstance(a, Var) or not isinstance(b, Var):
                continue
            a, b = find(a.name), find(b.name)
            if a != b:
                parent[b] = a
                merged = True

    pfuns = set()  # keys of partial functions
    singles = {}  # key of a set -> keys of the e whose {e} it equals
    ins, nins = set(), set()  # (element key, set key)

    def is_pfun(t):
        return key(t) in pfuns or _pair_first(_only_member(t)) is not None

    def singleton_members(t):
        m = _only_member(t)
        return singles.get(key(t), set()) | (set() if m is None else {key(m)})

    sources = [c for c in out if c.kind in (
        "pfun", "oplus", "dres", "dom", "in", "nin", "disj", "ndisj", "subset", "nsubset")]
    size = None  # the number of facts: the loop ends when a pass adds none
    while size != (size := len(pfuns) + len(ins) + len(nins) + sum(map(len, singles.values()))):
        for c in sources:
            kind, args = c.kind, c.args
            if kind == "pfun":
                pfuns.add(key(args[0]))
            elif kind == "oplus" and is_pfun(args[0]) and is_pfun(args[1]):
                pfuns.add(key(args[2]))
            elif kind == "dres" and is_pfun(args[1]):
                pfuns.add(key(args[2]))
            elif kind == "dom":
                k = _pair_first(_only_member(args[0]))
                if k is not None:
                    singles.setdefault(key(args[1]), set()).add(key(k))
            elif kind in ("in", "nin"):
                (ins if kind == "in" else nins).add((key(args[0]), key(args[1])))
            elif kind in ("disj", "ndisj"):
                for x, s in (args, args[::-1]):
                    for e in singleton_members(s):
                        (nins if kind == "disj" else ins).add((e, key(x)))
            elif kind in ("subset", "nsubset"):
                a, b = args
                for e in singleton_members(a):
                    (ins if kind == "subset" else nins).add((e, key(b)))
                if kind == "subset":
                    for e in singleton_members(b):
                        if (e, key(a)) in ins:
                            singles.setdefault(key(a), set()).add(e)

    if ins & nins or _outside_arg_kinds(out, declared) or _apply_outside_keys(out, declared):
        return None
    for c in out:
        if c.kind == "npfun" and is_pfun(c.args[0]):
            return None
        if c.kind == "neq":
            a, b = c.args
            if key(a) == key(b) or singleton_members(a) & singleton_members(b):
                return None
    return out


# the classes of the values of each sort, the same in every scope
_SORT_CLASSES = {AnyS: {Atom, IntV}, AtomS: {Atom}, IntS: {IntV}, SetS: {SetV}, RelS: {SetV},
                 RecordS: {SetV}, SeqS: {SeqV}, TupleS: {TupV}}


def _outside_arg_kinds(constraints, declared):
    """Whether a declared variable sits at an argument position of
    _ARG_KINDS whose class no value of its sort has."""
    for c in constraints:
        tags = _ARG_KINDS[c.kind]
        if tags is not None:
            for tag, a in zip(tags, c.args):
                if tag is not None and type(a) is Var:
                    classes = _SORT_CLASSES.get(type(declared.get(a.name)))
                    if classes is not None and tag.ground not in classes:
                        return True
    return False


def _apply_outside_keys(constraints, declared):
    """Whether some apply(F,X,Y) cannot hold in any scope because X and the
    keys of F share no value class.  X is a literal or a declared variable.
    F's keys are those of its declared relation sort, or, for an undeclared
    F that occurs nowhere else, atoms and integers: only enumeration binds
    such an F, from the relation sort inference gives it.  An undeclared F
    that occurs elsewhere can be bound to any value."""
    applies = [c for c in constraints if c.kind == "apply"]
    only_applied = {
        c.args[0].name for c in applies
        if isinstance(c.args[0], Var) and c.args[0].name not in declared
    }
    if only_applied:
        only_applied -= set(_scan([[
            a for c in constraints
            for a in (c.args[1:] if c.kind == "apply" and isinstance(c.args[0], Var) else c.args)
        ]])[0][0])
    for c in applies:
        f, x = c.args[0], c.args[1]
        if not isinstance(f, Var):
            continue
        sort = _REL.sort if f.name in only_applied else declared.get(f.name)
        keys = _SORT_CLASSES.get(type(sort.key)) if isinstance(sort, RelS) else None
        if isinstance(x, Lit):
            xs = {type(x.value)}
        elif isinstance(x, Var) and x.name in declared:
            xs = _SORT_CLASSES.get(type(declared[x.name]))
        else:
            xs = None
        if keys is not None and xs is not None and not keys & xs:
            return True
    return False


# -- sort inference -------------------------------------------------------------------


def _infer_sorts(constraints, declared, names):
    """The sort of each of names, in first-occurrence order: its declared
    sort, else the sort of the first position that gives one, a position
    _ARG_KINDS tags, in each constraint relation first, then set, integer
    and sequence, or the domain of a comprehension or the tail of an open
    extension, a set, else any value."""
    sorts = dict(declared)
    for c in constraints:
        tags = _ARG_KINDS[c.kind]
        if tags is None:  # a compiled constraint has set terms only as eq or neq operands
            notes = [(t.domain if type(t) is RisT else t.tail, _SET)
                     for t in c.args if _is_set_term(t)]
        else:
            notes = [(a, t) for tag in _TAG_ORDER for t, a in zip(tags, c.args) if t is tag]
        for a, tag in notes:
            if type(a) is Var and a.name not in sorts:
                sorts[a.name] = tag.sort
    return {name: sorts.get(name) or _ANY for name in dict.fromkeys(names)}
