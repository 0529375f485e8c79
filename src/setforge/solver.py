"""Bounded satisfiability over finite sets, with constraint propagation.

The decision strategy is exhaustive enumeration inside a Scope, but ground
work is moved ahead of search wherever possible:

* each constraint kind has one propagation rule, looked up in a table,
  and one row of argument kinds (set, relation, integer, sequence): a
  ground argument of the wrong kind makes the constraint false before the
  rule runs, and the same row gives unsorted variables their sorts;
* functional constraints (un, diff, oplus, dom, apply, arithmetic, ...)
  compute their result as soon as their inputs are known;
* unify is the one structural matcher: neq is decided by trying the
  unification that = would make and undoing it on the trail, so a failure
  means the sides differ and a success that binds nothing means they are
  equal;
* structural facts are derived from partially known values: a relation
  whose keys are decided but whose range entries are still open already
  determines its domain, whether it is a partial function, and how an
  override rewrites it.  Open positions are holes (fresh variables) that
  are only enumerated if some constraint actually looks at them;
* set-membership and union constraints with a known result act as
  generators, proposing candidate decompositions in a fixed order, and a
  subset of a known set is drawn from that set's subsets only;
* before search, a compile that reads no scope (_compile) lifts nested
  comprehensions and open extensions into equations, gives variables
  their sorts and rewrites by rules that hold in every scope, so a
  conjunct it refutes has no model in any scope;
* atoms are symmetric until something names them: an atom, a set of atoms
  or a relation keyed by atoms is tried only as the canonical renaming of
  the scope atoms that no literal names and no enumerated binding of the
  decision path holds, so the search never retries a subtree that mirrors
  one already refuted.

Unsat therefore always means "no model within the scope's universes", and
every Sat answer carries a witness that is re-checked by direct ground
evaluation before it is returned.  A declared variable's value lies in its
sort's universe: a binding is checked when it grounds the variable.  A
leaf enumerates every hole still open, those of declared variables first,
so a witness is ground and a sort with no values in the scope has none.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import operator
from functools import partial

from . import kernel
from ._compile import _ARG_KINDS, _compile, _is_set_term
from ._frozen import Frozen
from .errors import (
    AmbiguousApplicationError,
    KindError,
    MissingFieldError,
    OutsideDomainError,
    RangeError,
    SetforgeError,
)
from .formula import (
    DUALS,
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
    negate,
)
from .universe import (
    DEFAULT_SCOPE,
    AnyS,
    AtomS,
    RecordS,
    RelS,
    Scope,
    SetS,
    TupleS,
    enumerate_sort,
    scope_atoms,
    sort_contains,
)
from .values import EMPTY_SET, Atom, IntV, SeqV, SetV, TupV, Value, _add_atoms, is_pair

DEFAULT_BUDGET = 500_000


# -- results ------------------------------------------------------------------


class Sat(Frozen):
    witness: dict

    def __bool__(self):
        return True


class Unsat(Frozen):
    def __bool__(self):
        return False


class Unknown(Frozen):
    reason: str

    def __bool__(self):
        return False


class Verified(Frozen):
    scope: Scope


class Counterexample(Frozen):
    witness: dict


class UnknownOutcome(SetforgeError):
    """Raised when a caller needs a definite verdict but the solver gave up."""


# -- partial values -------------------------------------------------------------

# A pval is either a ground Value, a PHole (reference to a possibly unbound
# variable), or a structural node whose children are pvals.  PSet lists all
# members of the set it denotes; duplicates merge when the set grounds.


class PHole:
    __slots__ = ("var",)

    def __init__(self, var):
        self.var = var

    def __repr__(self):
        return f"?{self.var}"


class PTup:
    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = tuple(elems)

    def __repr__(self):
        return f"PTup{self.elems!r}"


class PSet:
    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = tuple(elems)

    def __repr__(self):
        return f"PSet{self.elems!r}"


class PSeq:
    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = tuple(elems)

    def __repr__(self):
        return f"PSeq{self.elems!r}"


_GROUND_OF = {PTup: TupV, PSet: SetV, PSeq: SeqV}


def _walk(p, env):
    while type(p) is PHole:
        bound = env.get(p.var)
        if bound is None:
            return p
        p = bound
    return p


def resolve(p, env):
    """Walk bindings and collapse fully ground structure to a Value."""
    # _walk inlined: this is the search's most frequent call
    while type(p) is PHole:
        bound = env.get(p.var)
        if bound is None:
            return p
        p = bound
    ground = _GROUND_OF.get(type(p))
    if ground is None:
        if isinstance(p, Value):
            return p
        raise KindError(f"not a pval: {p!r}")
    rs = [resolve(e, env) for e in p.elems]
    for r in rs:
        if not isinstance(r, Value):
            return type(p)(rs)
    return ground(rs)


# -- terms to pvals --------------------------------------------------------------


class _Defer(Exception):
    """Internal: a term cannot be evaluated yet."""


def term_pval(t: Term, env):
    """The resolved pval of a term.  Children come back resolved already, so
    a compound is built straight from them.  An unbound variable is a hole,
    so every comprehension and open extension in t is valued (_set_value),
    left to right: _Defer at the first that has no value yet, KindError at
    the first that denotes no set."""
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        bound = env.get(t.name)
        return PHole(t.name) if bound is None else resolve(bound, env)
    if isinstance(t, TupT):
        rs = [term_pval(e, env) for e in t.elems]
        return TupV(rs) if all(isinstance(r, Value) for r in rs) else PTup(rs)
    if isinstance(t, SeqT):
        rs = [term_pval(e, env) for e in t.elems]
        return SeqV(rs) if all(isinstance(r, Value) for r in rs) else PSeq(rs)
    if isinstance(t, SetT) and t.tail is None:
        rs = [term_pval(e, env) for e in t.elems]
        return SetV(rs) if all(isinstance(r, Value) for r in rs) else PSet(rs)
    if not isinstance(t, (SetT, RisT)):
        raise KindError(f"not a term: {t!r}")
    v = _set_value(t, env)
    if v is None:
        raise _Defer()
    if v is _FAIL:
        raise KindError("a comprehension or an open extension denotes no set")
    return v


# -- unification ------------------------------------------------------------------

_OK, _FAIL, _DEFER = "ok", "fail", "defer"


def _occurs(var, p, env):
    p = _walk(p, env)
    if isinstance(p, PHole):
        return p.var == var
    if isinstance(p, (PTup, PSet, PSeq)):
        return any(_occurs(var, e, env) for e in p.elems)
    return False


def _pair_key(p, env):
    """Ground first component of a definite pair, or None."""
    p = _walk(p, env)
    if isinstance(p, TupV) and len(p.elems) == 2:
        return p.elems[0]
    if isinstance(p, PTup) and len(p.elems) == 2:
        k = resolve(p.elems[0], env)
        if isinstance(k, Value):
            return k
    return None


def _keyed_elems(p, env):
    """If every member is a definite pair with a ground, pairwise distinct
    key, return the key -> value mapping in key order; else None."""
    pairs = _listed_pairs(p, env)
    if pairs is None or pairs is _FAIL or len({k for k, _, _ in pairs}) != len(pairs):
        return None
    return dict(sorted(((k, v) for k, v, _ in pairs), key=lambda kv: kv[0]._key))


def unify(a, b, env):
    """Make a and b equal, binding holes in env.  Mutates env; partial
    bindings on _FAIL are fine because the branch is abandoned."""
    a = resolve(a, env)
    b = resolve(b, env)
    if isinstance(a, Value) and isinstance(b, Value):
        return _OK if a == b else _FAIL
    if isinstance(a, PHole):
        if isinstance(b, PHole) and b.var == a.var:
            return _OK
        if _occurs(a.var, b, env):
            return _FAIL
        env[a.var] = b
        return _OK
    if isinstance(b, PHole):
        if _occurs(b.var, a, env):
            return _FAIL
        env[b.var] = a
        return _OK
    return _unify_struct(a, b, env)


def _unify_struct(a, b, env):
    akind = _shape(a)
    bkind = _shape(b)
    if akind != bkind:
        return _FAIL
    if akind in ("tuple", "seq"):
        if len(a.elems) != len(b.elems):
            return _FAIL
        return _unify_pointwise(a.elems, b.elems, env)
    if akind == "set":
        if _is_empty_set(a) != _is_empty_set(b):
            return _FAIL
        ka = _keyed_elems(a, env)
        kb = _keyed_elems(b, env)
        if ka is not None and kb is not None:
            if list(ka.keys()) != list(kb.keys()):
                return _FAIL
            return _unify_pointwise(list(ka.values()), list(kb.values()), env)
        # single listed member against a singleton set
        ae = a.elems
        be = b.elems
        if len(ae) == 1 and len(be) == 1:
            return unify(ae[0], be[0], env)
        return _DEFER
    return _FAIL


def _unify_pointwise(xs, ys, env):
    result = _OK
    for x, y in zip(xs, ys):
        r = unify(x, y, env)
        if r == _FAIL:
            return _FAIL
        if r == _DEFER:
            result = _DEFER
    return result


_SHAPES = {TupV: "tuple", PTup: "tuple", SetV: "set", PSet: "set", SeqV: "seq", PSeq: "seq",
           Atom: "atom", IntV: "int"}


def _shape(p):
    return _SHAPES.get(type(p), "hole")


def _is_empty_set(p):
    return isinstance(p, (SetV, PSet)) and not p.elems


def _neq_decide(a, b, env):
    """Three-valued disequality: True, False, or None (unknown), by a trial
    unification undone on the trail, as Prolog's dif/2 decides it.  An
    unbound side decides nothing, unless both are the same hole."""
    a = resolve(a, env)
    b = resolve(b, env)
    if isinstance(a, PHole) or isinstance(b, PHole):
        return False if type(a) is type(b) and a.var == b.var else None
    mark = len(env)
    r = unify(a, b, env)
    bound = len(env) > mark
    _undo(env, mark)
    if r == _FAIL:
        return True
    return False if r == _OK and not bound else None


# -- listed-set structure helpers ------------------------------------------------


def _listed(p):
    """Members of a set whose extension is fully listed, or None."""
    return p.elems if isinstance(p, (SetV, PSet)) else None


def _listed_pairs(p, env):
    """(key, value, elem) triples when every member is a definite pair with
    a ground key; None when structure is still open; _FAIL sentinel when a
    member is definitely not a pair (the constraint cannot hold)."""
    elems = _listed(p)
    if elems is None:
        return None
    out = []
    for e in elems:
        w = _walk(e, env)
        if isinstance(w, Value) and not is_pair(w):
            return _FAIL
        if isinstance(w, (PSet, PSeq)) or (isinstance(w, PTup) and len(w.elems) != 2):
            return _FAIL
        k = _pair_key(w, env)
        if k is None:
            return None
        out.append((k, w.elems[1], w))
    return out


def _seq_elems(p):
    return p.elems if isinstance(p, (SeqV, PSeq)) else None


def _ground_int(p):
    return p.n if isinstance(p, IntV) else None


# -- single-constraint evaluation -------------------------------------------------
#
# Every constraint kind has one rule, in _RULES.  A ground argument at a
# position that _ARG_KINDS tags, of another kind than the tag's, makes the
# constraint false before its rule runs, so no rule checks the kinds of its
# arguments itself.  eq and neq have no tags: their rules take the terms,
# because a comprehension or an open extension has no pval.  A dual kind
# (nin, ndisj, nsubset, npfun) shares the rule of its positive kind.  Rules
# call kernel functions through the module, so that wrappers installed on
# it see every call.

_TRUE, _FALSE = "true", "false"


def _from_unify(r):
    return _TRUE if r == _OK else (_FALSE if r == _FAIL else _DEFER)


def _from_decision(v):
    """The verdict of a three-valued test: True, False or None (unknown)."""
    return _DEFER if v is None else (_TRUE if v else _FALSE)


def _eval_constraint(c: Constraint, env):
    """Evaluate or propagate one constraint against the current bindings.
    Returns 'true' (satisfied, possibly after binding), 'false', or 'defer'.
    Only an eq or neq operand is a comprehension or an open extension: the
    compile lifts every other one into an equation, so term_pval reads the
    arguments of every other kind without raising."""
    tags = _ARG_KINDS[c.kind]
    if tags is None:
        return _RULES[c.kind](*c.args, env)
    args = [term_pval(a, env) for a in c.args]
    for tag, v in zip(tags, args):
        if tag is not None and isinstance(v, Value) and not isinstance(v, tag.ground):
            return _FALSE
    return _RULES[c.kind](args, env)


def _member(positive, args, env):
    x, s = args
    if isinstance(s, SetV):
        if isinstance(x, Value):
            return _TRUE if (x in s) == positive else _FALSE
        if positive and len(s.elems) == 0:
            return _FALSE
        return _DEFER
    listed = _listed(s)
    if listed is not None and isinstance(x, Value):
        grounds = [e for e in (resolve(e, env) for e in listed) if isinstance(e, Value)]
        if any(e == x for e in grounds):
            return _TRUE if positive else _FALSE
    return _DEFER


def _set_op(op, args, env):
    """un, diff or inters: op names the kernel function."""
    a, b, out = args
    if isinstance(a, SetV) and isinstance(b, SetV):
        return _from_unify(unify(out, getattr(kernel, op)(a, b), env))
    return _DEFER


def _empty_beside_set(a, b):
    """Whether one side is the empty set and the other is set-shaped, so
    that the empty side alone decides disj and subset."""
    return _is_empty_set(a) and isinstance(b, (SetV, PSet))


def _disjoint(positive, args, env):
    a, b = args
    if isinstance(a, SetV) and isinstance(b, SetV):
        return _TRUE if kernel.disjoint(a, b) == positive else _FALSE
    if _empty_beside_set(a, b) or _empty_beside_set(b, a):
        return _TRUE if positive else _FALSE
    la, lb = _listed(a), _listed(b)
    if la is not None and lb is not None:
        ga = {e for e in (resolve(e, env) for e in la) if isinstance(e, Value)}
        gb = {e for e in (resolve(e, env) for e in lb) if isinstance(e, Value)}
        if ga & gb:
            return _FALSE if positive else _TRUE
    return _DEFER


def _subset(positive, args, env):
    a, b = args
    if isinstance(a, SetV) and isinstance(b, SetV):
        return _TRUE if kernel.subset(a, b) == positive else _FALSE
    if _empty_beside_set(a, b):
        return _TRUE if positive else _FALSE
    return _DEFER


def _dom(args, env):
    r, d = args
    pairs = _listed_pairs(r, env)
    if pairs is _FAIL:
        return _FALSE
    if pairs is None:
        return _DEFER
    return _from_unify(unify(d, SetV([k for k, _, _ in pairs]), env))


def _ran(args, env):
    r, d = args
    if isinstance(r, SetV):
        try:
            return _from_unify(unify(d, kernel.ran(r), env))
        except KindError:
            return _FALSE
    elems = _listed(r)
    if elems is None:
        return _DEFER
    vals = []
    for e in elems:
        w = _walk(e, env)
        if not (is_pair(w) if isinstance(w, Value) else isinstance(w, PTup) and len(w.elems) == 2):
            return _FALSE if isinstance(w, Value) else _DEFER
        v = resolve(w.elems[1], env)
        if not isinstance(v, Value):
            return _DEFER
        vals.append(v)
    return _from_unify(unify(d, SetV(vals), env))


def _apply(args, env):
    f, x, y = args
    if not isinstance(x, Value):
        return _DEFER
    pairs = _listed_pairs(f, env)
    if pairs is _FAIL:
        return _FALSE
    if pairs is None:
        return _DEFER
    hits = [v for k, v, _ in pairs if k == x]
    if not hits:
        return _FALSE
    if len(hits) == 1:
        return _from_unify(unify(y, hits[0], env))
    roots = [_walk(h, env) for h in hits]
    if all(
        isinstance(r, PHole) and isinstance(roots[0], PHole) and r.var == roots[0].var
        for r in roots
    ):
        return _from_unify(unify(y, roots[0], env))
    grounds = [resolve(h, env) for h in hits]
    if all(isinstance(g, Value) for g in grounds):
        if all(g == grounds[0] for g in grounds):
            return _from_unify(unify(y, grounds[0], env))
        return _FALSE
    return _DEFER


def _oplus(args, env):
    r, g, out = args
    rp = _listed_pairs(r, env)
    gp = _listed_pairs(g, env)
    if rp is _FAIL or gp is _FAIL:
        return _FALSE
    if rp is None or gp is None:
        return _DEFER
    gkeys = {k for k, _, _ in gp}
    kept = [e for k, _, e in rp if k not in gkeys]
    kept.extend(e for _, _, e in gp)
    return _from_unify(unify(out, resolve(PSet(kept), env), env))


def _dres(args, env):
    d, r, out = args
    if not isinstance(d, SetV):
        return _DEFER
    pairs = _listed_pairs(r, env)
    if pairs is _FAIL:
        return _FALSE
    if pairs is None:
        return _DEFER
    kept = [e for k, _, e in pairs if k in d]
    return _from_unify(unify(out, resolve(PSet(kept), env), env))


def _pfun(positive, args, env):
    (r,) = args
    pairs = _listed_pairs(r, env)
    if pairs is _FAIL:
        return _FALSE
    if pairs is None:
        return _DEFER
    groups = {}
    for k, v, _ in pairs:
        groups.setdefault(k, []).append(v)
    if positive:
        # a listed member pair with a repeated key collapses exactly when
        # the values coincide, so pfun forces the values in each key
        # group to be equal: propagate that by unification
        result = _TRUE
        for vs in groups.values():
            for other in vs[1:]:
                u = unify(vs[0], other, env)
                if u == _FAIL:
                    return _FALSE
                if u == _DEFER:
                    result = _DEFER
        return result
    all_collapse = True
    for vs in groups.values():
        if len(vs) == 1:
            continue
        verdicts = [_neq_decide(x, y, env) for x, y in itertools.combinations(vs, 2)]
        if any(v is True for v in verdicts):
            return _TRUE  # two definitely-distinct values share a key
        if not all(v is False for v in verdicts):
            all_collapse = False
    return _FALSE if all_collapse else _DEFER


def _seq_head(args, env):
    s, h = args
    elems = _seq_elems(s)
    if elems is None:
        return _DEFER
    if len(elems) == 0:
        return _FALSE
    return _from_unify(unify(h, elems[0], env))


def _seq_tail(args, env):
    s, t = args
    elems = _seq_elems(s)
    if elems is None:
        return _DEFER
    if len(elems) == 0:
        return _FALSE
    return _from_unify(unify(t, resolve(PSeq(elems[1:]), env), env))


def _seq_concat(args, env):
    a, b, out = args
    ea, eb, ec = _seq_elems(a), _seq_elems(b), _seq_elems(out)
    if ea is not None and eb is not None:
        return _from_unify(unify(out, resolve(PSeq(ea + eb), env), env))
    if ec is None or (ea is None and eb is None):
        return _DEFER
    # one part is known: it matches its end of out, and the rest is the other
    cut = len(ea) if ea is not None else len(ec) - len(eb)
    if not 0 <= cut <= len(ec):
        return _FALSE
    if ea is not None:
        xs, ys = [*ea, b], [*ec[:cut], PSeq(ec[cut:])]
    else:
        xs, ys = [*eb, a], [*ec[cut:], PSeq(ec[:cut])]
    return _from_unify(_unify_pointwise(xs, ys, env))


def _seq_nth(args, env):
    s, i, y = args
    elems = _seq_elems(s)
    n = _ground_int(i)
    if elems is None or n is None:
        return _DEFER
    if not 1 <= n <= len(elems):
        return _FALSE
    return _from_unify(unify(y, elems[n - 1], env))


def _plus(args, env):
    a, b, out = args
    na, nb, nc = map(_ground_int, args)
    if na is not None and nb is not None:
        return _from_unify(unify(out, IntV(na + nb), env))
    if nc is not None:
        for n, other in ((na, b), (nb, a)):
            if n is not None:
                return _from_unify(unify(other, IntV(nc - n), env))
    return _DEFER


def _minus(args, env):
    # a - b = c is b + c = a
    a, b, c = args
    return _plus((b, c, a), env)


def _times(args, env):
    a, b, out = args
    na, nb, nc = map(_ground_int, args)
    if na is not None and nb is not None:
        return _from_unify(unify(out, IntV(na * nb), env))
    if nc is not None:
        for n, other in ((na, b), (nb, a)):
            if n is not None:
                if n == 0:
                    return _FALSE if nc != 0 else _DEFER
                if nc % n != 0:
                    return _FALSE
                return _from_unify(unify(other, IntV(nc // n), env))
    return _DEFER


def _intdiv(args, env):
    # floor division, undefined for divisor 0
    na, nb, _ = map(_ground_int, args)
    if na is None or nb is None:
        return _DEFER
    if nb == 0:
        return _FALSE
    return _from_unify(unify(args[2], IntV(na // nb), env))


def _compare(holds, args, env):
    na, nb = map(_ground_int, args)
    if na is None or nb is None:
        return _DEFER
    return _TRUE if holds(na, nb) else _FALSE


def _set_value(t, env):
    """The value of a comprehension or an open extension once its inputs
    are ground, else None; _FAIL when it denotes no set.  Its domain, or its
    elements and then its tail, are read by term_pval, so a set term among
    them raises as term_pval does; the compile lifts every such one out of
    the search's constraints.  A comprehension's binder is set in env while
    its filter and pattern are evaluated, and restored after; a pattern
    that has no value or denotes no set makes the whole None or _FAIL.  An
    open extension {e1,...,ek / T} is the union of T and the ei, when T is a
    set that lists no ei."""
    if isinstance(t, SetT):
        elems = [term_pval(e, env) for e in t.elems]
        tail = term_pval(t.tail, env)
        if isinstance(tail, Value) and not isinstance(tail, SetV):
            return _FAIL
        if not isinstance(tail, SetV) or not all(isinstance(e, Value) for e in elems):
            return None
        if any(e in tail for e in elems):
            return _FAIL
        return kernel.union(SetV(elems), tail)
    domain = term_pval(t.domain, env)
    if not isinstance(domain, Value):
        return None
    if not isinstance(domain, SetV):
        return _FAIL
    out = []
    binder = t.binder
    saved = env.get(binder)
    try:
        for x in domain.elems:
            env[binder] = x
            v = eval_ground_formula(t.filter, env, partial_ok=True)
            if v is None:
                return None
            if not v:
                continue
            try:
                y = term_pval(t.pattern, env)
            except _Defer:
                return None
            except KindError:
                return _FAIL
            if not isinstance(y, Value):
                return None
            out.append(y)
    finally:
        if saved is None:
            env.pop(binder, None)
        else:
            env[binder] = saved
    return SetV(out)


def _operand(t, env):
    """The pval of an eq or neq operand, or the _set_value of a
    comprehension or an open extension."""
    return _set_value(t, env) if _is_set_term(t) else term_pval(t, env)


def _eval_eq(lhs: Term, rhs: Term, env):
    for one, other in ((lhs, rhs), (rhs, lhs)):
        if isinstance(one, RisT):
            return _eval_ris_eq(one, other, env)
        if isinstance(one, SetT) and one.tail is not None:
            return _eval_open_eq(one, _operand(other, env), env)
    return _from_unify(unify(term_pval(lhs, env), term_pval(rhs, env), env))


def _eval_neq(lhs: Term, rhs: Term, env):
    try:
        a = term_pval(lhs, env)
        b = term_pval(rhs, env)
    except (_Defer, KindError):
        # an operand is a comprehension or an open extension, whose value is
        # a set once known: decided then, and at once when a side is no set
        a, b = _operand(lhs, env), _operand(rhs, env)
        if a is _FAIL or b is _FAIL or any(
            isinstance(v, Value) and not isinstance(v, SetV) for v in (a, b)
        ):
            return _TRUE
        if a is None or b is None:
            return _DEFER
    return _from_decision(_neq_decide(a, b, env))


_RULES = {
    "eq": _eval_eq,
    "neq": _eval_neq,
    "in": partial(_member, True),
    "nin": partial(_member, False),
    "un": partial(_set_op, "union"),
    "diff": partial(_set_op, "difference"),
    "inters": partial(_set_op, "intersection"),
    "disj": partial(_disjoint, True),
    "ndisj": partial(_disjoint, False),
    "subset": partial(_subset, True),
    "nsubset": partial(_subset, False),
    "dom": _dom,
    "ran": _ran,
    "apply": _apply,
    "oplus": _oplus,
    "dres": _dres,
    "pfun": partial(_pfun, True),
    "npfun": partial(_pfun, False),
    "seq_head": _seq_head,
    "seq_tail": _seq_tail,
    "seq_concat": _seq_concat,
    "seq_nth": _seq_nth,
    "plus": _plus,
    "minus": _minus,
    "times": _times,
    "intdiv": _intdiv,
    "le": partial(_compare, operator.le),
    "lt": partial(_compare, operator.lt),
}


def _eval_ris_eq(ris: RisT, other: Term, env):
    got = _set_value(ris, env)
    if got is _FAIL:
        return _FALSE
    if got is None:
        return _DEFER
    if isinstance(other, SetT) and other.tail is not None:
        return _eval_open_eq(other, got, env)
    o = _operand(other, env)
    if o is None:
        return _DEFER
    return _FALSE if o is _FAIL else _from_unify(unify(o, got, env))


def _eval_open_eq(pat: SetT, s, env):
    """S = {e1,...,ek / T}, where s is the pval of S, or its _set_value when
    S is a comprehension or an open extension: the listed elements are
    members of S and the tail is exactly S without them (set-unification
    normal form)."""
    if s is None:
        return _DEFER
    if s is _FAIL:
        return _FALSE
    elem_pvals = [term_pval(e, env) for e in pat.elems]
    tail_pval = term_pval(pat.tail, env)

    if isinstance(s, SetV):
        # match listed elements against the ground set
        keyed = _keyed_elems(PSet(elem_pvals), env)
        s_keyed = _keyed_elems(s, env)
        if keyed is not None and s_keyed is not None:
            for k in keyed:
                if k not in s_keyed:
                    return _FALSE
            rest = SetV([e for e in s.elems if _pair_key(e, env) not in keyed])
            return _from_unify(_unify_pointwise(
                [*keyed.values(), tail_pval], [*(s_keyed[k] for k in keyed), rest], env
            ))
        grounds = [e for e in elem_pvals if isinstance(e, Value)]
        if len(grounds) == len(elem_pvals):
            for e in grounds:
                if e not in s:
                    return _FALSE
            rest = kernel.difference(s, SetV(grounds))
            return _from_unify(unify(tail_pval, rest, env))
        if len(s.elems) == 1 and len(elem_pvals) == 1:
            return _from_unify(_unify_pointwise(
                [elem_pvals[0], tail_pval], [s.elems[0], EMPTY_SET], env
            ))
        return _DEFER

    if isinstance(s, (PHole, PSet)):
        whole = _set_value(pat, env)
        if whole is None:
            return _DEFER
        return _FALSE if whole is _FAIL else _from_unify(unify(s, whole, env))
    if isinstance(s, Value):  # ground but not a set
        return _FALSE
    return _DEFER


# -- ground evaluation -------------------------------------------------------------

_EVAL_ERRORS = (
    KindError,
    OutsideDomainError,
    AmbiguousApplicationError,
    RangeError,
    MissingFieldError,
)


def _ground_term(t: Term, env):
    """The value of a term that env grounds, _Defer when it does not."""
    v = term_pval(t, env)
    if not isinstance(v, Value):
        raise _Defer()
    return v


def _ground_operand(t: Term, env):
    """The value of an eq or neq operand, None when it denotes no set."""
    if not _is_set_term(t):
        return _ground_term(t, env)
    v = _set_value(t, env)
    if v is None:
        raise _Defer()
    return None if v is _FAIL else v


def _need(cls, v):
    """v, when it is an instance of cls; KindError otherwise."""
    if not isinstance(v, cls):
        raise KindError(f"needs {cls.__name__}, got {type(v).__name__}")
    return v


def _ground_apply(f, x, y):
    # as a constraint, application is functional at the point: the kernel
    # operation's global-function precondition is not imposed
    if not kernel.is_relation(f):
        return False
    matches = [p.elems[1] for p in f.elems if p.elems[0] == x]
    return len(matches) == 1 and matches[0] == y


def _on_integers(holds):
    """The check of a relation between integers."""
    return lambda *args: holds(*(_need(IntV, a).n for a in args))


# One ground check per positive kind; a dual kind (formula.DUALS) is the
# negation of its positive kind's check.  A check raises one of
# _EVAL_ERRORS when an argument has the wrong kind, which makes the kind
# and its dual false.  The checks share nothing with the propagation rules
# in _RULES, and they call kernel functions through the module, so that
# wrappers installed on it see every call.
_GROUND_RULES = {
    "eq": lambda a, b: a is not None and a == b,
    "in": lambda x, s: x in _need(SetV, s),
    "un": lambda a, b, out: kernel.union(a, b) == out,
    "diff": lambda a, b, out: kernel.difference(a, b) == out,
    "inters": lambda a, b, out: kernel.intersection(a, b) == out,
    "disj": lambda a, b: kernel.disjoint(a, b),
    "subset": lambda a, b: kernel.subset(a, b),
    "dom": lambda r, d: kernel.dom(r) == d,
    "ran": lambda r, d: kernel.ran(r) == d,
    "apply": _ground_apply,
    "oplus": lambda r, g, out: kernel.override(r, g) == out,
    "dres": lambda d, r, out: kernel.dres(d, r) == out,
    "pfun": lambda r: kernel.is_pfun(r),
    "seq_head": lambda s, h: kernel.seq_head(s) == h,
    "seq_tail": lambda s, t: kernel.seq_tail(s) == t,
    "seq_concat": lambda a, b, out: kernel.seq_concat(a, b) == out,
    "seq_nth": lambda s, i, y: kernel.seq_nth(s, _need(IntV, i).n) == y,
    "plus": _on_integers(lambda a, b, c: a + b == c),
    "minus": _on_integers(lambda a, b, c: a - b == c),
    "times": _on_integers(lambda a, b, c: a * b == c),
    "intdiv": _on_integers(lambda a, b, c: b != 0 and a // b == c),
    "le": _on_integers(operator.le),
    "lt": _on_integers(operator.lt),
}


def _ground_constraint(c: Constraint, env) -> bool:
    check = _GROUND_RULES.get(c.kind)
    negated = check is None
    if negated:
        check = _GROUND_RULES[DUALS[c.kind]]
    ground = _ground_operand if c.kind in ("eq", "neq") else _ground_term
    try:
        return check(*[ground(a, env) for a in c.args]) != negated
    except _EVAL_ERRORS:
        return False


def eval_ground_formula(f: Formula, assignment: dict, partial_ok: bool = False):
    """Evaluate a formula under a (ground) assignment via the kernel.

    Returns a bool; with partial_ok=True an undecidable formula yields None
    instead of raising.  This is the direct evaluation route used to
    re-check every witness the search produces.
    """
    unknown = False
    for d in f.disjuncts:
        try:
            if all(_ground_constraint(c, assignment) for c in d):
                return True
        except _Defer:
            unknown = True
    if unknown:
        if partial_ok:
            return None
        raise SetforgeError("assignment does not ground the formula")
    return False


# -- search -------------------------------------------------------------------------
#
# One mutable env holds the bindings of the current branch.  A binding is
# only ever added, never changed, and dicts keep insertion order, so the
# env's keys are the trail: the names bound since a mark (the env's length
# then) are its last len(env) - mark keys, and undoing to the mark pops
# them, newest first.  A comprehension's binder is set in env only while
# the comprehension is evaluated, so it never shows in the trail.


class _Budget(Exception):
    pass


class _Stuck(Exception):
    pass


class _State:
    """Search state of one disjunct: its compiled problem, the env, the
    watch lists and the atoms in use."""

    __slots__ = ("scope", "constraints", "free", "names", "registry", "order", "budget", "nodes",
                 "fresh_names", "validate", "env", "watch", "sort_watch",
                 "used_atoms", "atom_orders")

    def __init__(self, scope, problem, budget, validate, nodes=0):
        self.scope = scope
        self.constraints = problem.constraints
        self.free = problem.free  # per constraint: its free names in first-occurrence order
        self.names = tuple(problem.sorts)  # the caller's names, then the constraints'
        self.registry = dict(problem.sorts)  # ordered: var -> Sort
        self.order = {name: i for i, name in enumerate(problem.sorts)}
        self.budget = budget
        self.nodes = nodes  # decision nodes so far, earlier disjuncts included
        self.fresh_names = _fresh_names("_H", self.registry)
        # caller-declared sorts define the in-scope universe of their
        # variables: a propagated binding outside it fails the branch
        self.validate = validate
        self.env = {}
        # hole -> the constraints (a dict used as an ordered set) that were
        # deferred while they could observe it; entries are never removed,
        # so a stale one only wakes a constraint that then defers again
        self.watch = {}
        # hole -> the declared variables that were not ground while it was open
        self.sort_watch = {name: {name: None} for name in validate}
        # the literal atoms of the constraints and those held by the
        # enumerated bindings of the current decision path
        self.used_atoms = set().union(*problem.atoms)
        self.atom_orders = {}  # (namespace, by value) -> scope atom -> position

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget()

    def fresh(self, sort):
        name = next(self.fresh_names)
        self.order[name] = len(self.registry)
        self.registry[name] = sort
        return name


def _undo(env, mark):
    while len(env) > mark:
        env.popitem()


def _bound_since(env, mark):
    """Names bound since the trail mark, newest first."""
    return itertools.islice(reversed(env), len(env) - mark)


def _open_holes(p, env, out):
    """Append to out the unbound holes that pval p reaches through env;
    returns out."""
    p = _walk(p, env)
    if isinstance(p, PHole):
        out.append(p.var)
    elif isinstance(p, (PTup, PSet, PSeq)):
        for e in p.elems:
            _open_holes(e, env, out)
    return out


def _atom_pool(st, ns, by_value, n):
    """The scope atoms of namespace ns that candidates are drawn from, in
    the stream's own order (value order, where a10 sorts before a2, or
    index order), and the unused ones among them in that order: every used
    atom and the first n unused ones."""
    order = st.atom_orders.get((ns, by_value))
    if order is None:
        atoms = scope_atoms(ns, st.scope)
        order = st.atom_orders[ns, by_value] = {
            a: i for i, a in enumerate(sorted(atoms) if by_value else atoms)
        }
    used = st.used_atoms
    fresh = []
    for a in order:
        if len(fresh) == n:
            break
        if a not in used:
            fresh.append(a)
    pool = [a for a in used if a in order] + fresh
    pool.sort(key=order.__getitem__)
    return pool, fresh


def _is_canonical(combo, fresh):
    """Whether the unused atoms in combo, a candidate's atoms in pool
    order, are the first unused ones."""
    unused = list(dict.fromkeys(a for a in combo if a in fresh))
    return unused == fresh[: len(unused)]


def _sort_candidates(sort, st):
    """Yield (pval, ()) decisions for a variable of the given sort.  Record,
    tuple and relation sorts produce structural templates whose open slots
    are fresh registered variables, so only the parts a constraint actually
    examines get enumerated.

    Atoms, sets of atoms and relations keyed by atoms skip every candidate
    that renames an earlier one by a permutation of unused atoms: scope
    atoms that no literal names and no enumerated binding of the decision
    path holds.  Such a renaming maps the constraints, the scope and the
    bindings so far to themselves, and the stream lists the canonical
    renaming, whose unused atoms come first, before the others."""
    scope = st.scope
    if isinstance(sort, RecordS):
        elems = []
        for fname, fsort in sort.fields:
            hole = st.fresh(fsort)
            elems.append(PTup((Atom(fname, "field"), PHole(hole))))
        yield PSet(elems)
        return
    if isinstance(sort, TupleS):
        yield PTup(tuple(PHole(st.fresh(s)) for s in sort.elems))
        return
    if isinstance(sort, RelS):
        # key multisets: repeated keys with open values cover the relations
        # that are not partial functions
        if isinstance(sort.key, AtomS):
            keys, fresh = _atom_pool(st, sort.key.ns, False, scope.max_set_card)
        else:
            keys, fresh = list(enumerate_sort(sort.key, scope)), []
        for card in range(0, scope.max_set_card + 1):
            for combo in itertools.combinations_with_replacement(keys, card):
                if _is_canonical(combo, fresh):
                    elems = [PTup((k, PHole(st.fresh(sort.val)))) for k in combo]
                    yield PSet(elems) if elems else SetV(())
        return
    if isinstance(sort, AtomS):
        yield from _atom_pool(st, sort.ns, False, 1)[0]
        return
    if isinstance(sort, SetS) and isinstance(sort.elem, AtomS):
        base, fresh = _atom_pool(st, sort.elem.ns, True, scope.max_set_card)
        for card in range(0, scope.max_set_card + 1):
            for combo in itertools.combinations(base, card):
                if _is_canonical(combo, fresh):
                    yield SetV(combo, _canonical=True)
        return
    yield from enumerate_sort(sort, scope)


def _in_declared_universe(st, mark):
    """Whether each declared variable that the bindings since the trail mark
    made ground lies in its sort's universe.  One still open is filed under
    the holes it waits for."""
    env, sort_watch = st.env, st.sort_watch
    for name in _bound_since(env, mark):
        for var in sort_watch.get(name, ()):
            holes = _open_holes(PHole(var), env, [])
            if holes:
                for h in holes:
                    sort_watch.setdefault(h, {})[var] = None
            elif not sort_contains(st.validate[var], resolve(PHole(var), env), st.scope):
                return False
    return True


def _watch(st, i):
    """File deferred constraint i under every unbound hole it can observe:
    the roots of its free variables and the holes inside their values."""
    env, watch = st.env, st.watch
    holes = []
    for name in st.free[i]:
        _open_holes(PHole(name), env, holes)
    for h in holes:
        watch.setdefault(h, {})[i] = None


def _propagate(st, pending, mark, queue):
    """Run constraints to a fixpoint: first the queued ones and those that
    watch a name bound since the trail mark, then whatever their bindings
    wake.

    pending lists the open constraints in ascending order.  Each round runs its
    constraints in that order.  A constraint woken by a binding runs later
    in the same round when it comes after the one that bound, else in the
    next round, and one whose own evaluation bound something runs again in
    the next round.  That is the round-robin fixpoint minus evaluations
    that can neither bind nor decide anything, so bindings happen in the
    same order.  Returns the constraints left open, or None when one fails
    or a declared variable grounds outside its universe."""
    env, constraints, watch = st.env, st.constraints, st.watch
    closed = set()

    def is_open(j):
        k = bisect.bisect_left(pending, j)
        return k < len(pending) and pending[k] == j and j not in closed

    queued = set(queue)
    for name in _bound_since(env, mark):
        for j in watch.get(name, ()):
            if j not in queued and is_open(j):
                queued.add(j)
                queue.append(j)
    heapq.heapify(queue)
    while True:
        again = {}
        while queue:
            i = heapq.heappop(queue)
            before = len(env)
            r = _eval_constraint(constraints[i], env)
            if r == _FALSE:
                return None
            if r == _DEFER:
                _watch(st, i)
            else:
                closed.add(i)
            if len(env) == before:
                continue
            if r == _DEFER:
                again[i] = None
            for name in _bound_since(env, before):
                for j in watch.get(name, ()):
                    if j == i or not is_open(j):
                        continue
                    if j < i:
                        again[j] = None
                    elif j not in queued:
                        queued.add(j)
                        heapq.heappush(queue, j)
        if not _in_declared_universe(st, mark):
            return None
        if not again:
            break
        mark = len(env)
        queue = sorted(again)
        queued = set(queue)
    left = list(pending)
    for i in sorted(closed, reverse=True):
        del left[bisect.bisect_left(left, i)]
    return left


_PLACE_A, _PLACE_B, _PLACE_BOTH = 0, 1, 2


def _pending_holes(st, pending):
    """Unbound variables the pending constraints can still observe, in first
    observation order (the keys of a dict)."""
    env = st.env
    out = {}
    for i in pending:
        for name in st.free[i]:
            root = _walk(PHole(name), env)
            if isinstance(root, PHole):
                out[root.var] = None
            else:
                out.update(dict.fromkeys(sorted(set(_open_holes(root, env, [])))))
    return out


def _pick_decision(st, pending):
    """The next decision: ("split", a, b, out) for a union with a ground
    result, else ("bind", var, candidates, tick_first), whose candidates are
    bound to var in turn."""
    env, order = st.env, st.order
    if not pending:
        # a leaf grounds every hole it still has: first those of the bound
        # declared variables, which are checked when they ground, then those
        # of the caller's names and the constraints'.  The first fill is no
        # decision node, and an empty universe fails the branch
        for name in itertools.chain([v for v in st.validate if v in env], st.names):
            holes = _open_holes(PHole(name), env, [])
            if holes:
                var = min(holes, key=lambda h: order.get(h, len(order)))
                return ("bind", var, _sort_candidates(st.registry.get(var) or AnyS(), st), False)
        return None
    for i in pending:
        c = st.constraints[i]
        if c.kind == "in":
            x = term_pval(c.args[0], env)
            s = term_pval(c.args[1], env)
            if isinstance(s, SetV) and isinstance(x, PHole):
                return ("bind", x.var, s.elems, True)
        if c.kind == "un":
            a = term_pval(c.args[0], env)
            b = term_pval(c.args[1], env)
            out = term_pval(c.args[2], env)
            if isinstance(out, SetV) and not (isinstance(a, Value) and isinstance(b, Value)):
                return ("split", a, b, out)
    live = [v for v in _pending_holes(st, pending) if v in order]
    if not live:
        return None
    # a bare variable equated to a comprehension or an open extension is
    # determined by the pattern's inputs; decide those first
    defined = set()
    for i in pending:
        c = st.constraints[i]
        if c.kind == "eq":
            for one, other in (c.args, c.args[::-1]):
                if isinstance(one, Var) and _is_set_term(other):
                    root = _walk(PHole(one.name), env)
                    if isinstance(root, PHole):
                        defined.add(root.var)
    var = min([v for v in live if v not in defined] or live, key=lambda v: order[v])
    within = None  # the members of every ground B of a pending subset(var,B)
    for i in pending:
        c = st.constraints[i]
        if c.kind == "subset" and isinstance(c.args[0], Var):
            root = _walk(PHole(c.args[0].name), env)
            b = term_pval(c.args[1], env)
            if isinstance(root, PHole) and root.var == var and isinstance(b, SetV):
                within = set(b.elems) if within is None else within.intersection(b.elems)
    stream = _sort_candidates(st.registry.get(var) or AnyS(), st)
    if within is not None:
        # a member outside B makes subset(var,B) false
        stream = (v for v in stream if not isinstance(v, SetV) or within.issuperset(v.elems))
    return ("bind", var, stream, True)


def _candidates(decision, st):
    """Bind the decision's candidates in env one after another, undoing the
    previous one first; yields after each binding.  Every candidate tried
    is a decision node, except the first of a bind whose tick_first is
    False."""
    env = st.env
    mark = len(env)
    if decision[0] == "split":
        _, a, b, out = decision
        for combo in itertools.product((_PLACE_A, _PLACE_B, _PLACE_BOTH), repeat=len(out.elems)):
            st.tick()
            _undo(env, mark)
            left = SetV([e for e, w in zip(out.elems, combo) if w != _PLACE_B], _canonical=True)
            right = SetV([e for e, w in zip(out.elems, combo) if w != _PLACE_A], _canonical=True)
            if unify(a, left, env) != _FAIL and unify(b, right, env) != _FAIL:
                yield True
        return
    _, var, candidates, tick = decision
    # fresh vars registered by abandoned candidates stay in the registry:
    # they are unreachable, and keeping it append-only keeps runs identical
    used = st.used_atoms
    added = set()  # the atoms the current candidate brought into use
    for cand in candidates:
        if tick:
            st.tick()
        tick = True
        _undo(env, mark)
        used -= added
        added = set()
        _add_atoms(cand, added)
        added -= used
        used |= added
        env[var] = cand
        yield True
    used -= added


def _search(st):
    """Depth-first search over decisions, kept on an explicit stack of
    (trail mark, open constraints, candidates) frames.  True when env ends
    up satisfying every constraint with every declared variable in its
    universe, False when no branch does."""
    env = st.env
    everything = list(range(len(st.constraints)))
    pending = _propagate(st, everything, 0, list(everything))
    stack = []
    while True:
        if pending is not None:
            decision = _pick_decision(st, pending)
            if decision is None:
                if not pending:
                    return True
                raise _Stuck(
                    "constraints left undecided with no enumerable variable: "
                    + ", ".join(st.constraints[i].kind for i in pending)
                )
            stack.append((len(env), pending, _candidates(decision, st)))
        while stack:
            mark, pending, candidates = stack[-1]
            if next(candidates, False):
                break
            stack.pop()
        else:
            return False
        pending = _propagate(st, pending, mark, [])


# -- public api ----------------------------------------------------------------------


def solve(f: Formula, scope: Scope = DEFAULT_SCOPE, sorts=None, budget: int = DEFAULT_BUDGET):
    """Find a witness for f within the scope, or establish there is none.

    Each disjunct is compiled once, reading no scope (_compile), and a
    disjunct that the compile refutes has no model in any scope; any other
    Unsat is scope-relative.  Enumeration order is fixed (atoms in namespace
    order, integers ascending, sets by cardinality then element order), so
    identical inputs give identical answers.  The budget bounds the
    decision nodes of all disjuncts together.
    """
    declared = dict(sorts or {})
    budget = DEFAULT_BUDGET if budget is None else budget
    nodes = 0
    unknown = None
    for disjunct in f.disjuncts:
        problem = _compile(disjunct, declared)
        if problem.constraints is None:
            continue
        st = _State(scope, problem, budget, declared, nodes)
        try:
            found = _search(st)
        except _Budget:
            return Unknown(f"search budget exceeded ({budget} decision nodes)")
        except _Stuck as e:
            unknown = Unknown(str(e))
            found = False
        nodes = st.nodes
        if not found:
            continue
        env = st.env
        assignment = {}
        for name in st.registry:
            val = resolve(PHole(name), env)
            if isinstance(val, Value):
                assignment[name] = val
        for name in problem.caller:  # the caller's names are registered too
            if name not in assignment:
                val = resolve(PHole(name), env)
                raise SetforgeError(f"internal: witness for {name} is not ground: {val!r}")
        witness = {name: assignment[name] for name in problem.caller}
        # no second binder check: f passed it, and a comprehension lifted out
        # of another one's domain may reuse a binder that is free elsewhere
        recheck = object.__new__(Formula)
        recheck.disjuncts = (problem.compiled,)
        ok = eval_ground_formula(recheck, assignment, partial_ok=True)
        if ok is not True:
            raise SetforgeError(
                f"internal: witness failed direct re-evaluation: {witness!r}"
            )
        return Sat(witness)
    return unknown if unknown is not None else Unsat()


def check_unsat(f: Formula, scope: Scope = DEFAULT_SCOPE, sorts=None, budget: int = DEFAULT_BUDGET):
    """(True, None) when no model exists in scope; (False, witness) otherwise."""
    r = solve(f, scope, sorts=sorts, budget=budget)
    if isinstance(r, Unsat):
        return True, None
    if isinstance(r, Sat):
        return False, r.witness
    raise UnknownOutcome(r.reason)


def prove_implication(
    hyp: Formula,
    concl: Formula,
    scope: Scope = DEFAULT_SCOPE,
    sorts=None,
    budget: int = DEFAULT_BUDGET,
):
    """Discharge hyp => concl by showing hyp & not(concl) has no model."""
    refutation = conj_formulas([hyp, negate(concl)])
    unsat, witness = check_unsat(refutation, scope, sorts=sorts, budget=budget)
    if unsat:
        return Verified(scope)
    return Counterexample(witness)
