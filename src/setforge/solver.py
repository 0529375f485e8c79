"""Bounded satisfiability over finite sets, with constraint propagation.

The decision strategy is exhaustive enumeration inside a Scope, but ground
work is moved ahead of search wherever possible:

* each constraint kind has one propagation rule, looked up in a table,
  and one row of argument kinds (set, relation, integer, sequence): a
  ground argument of the wrong kind makes the constraint false before the
  rule runs, and the same row gives unsorted variables their sorts;
* every rule, and the matcher unify, answers True (holds, possibly after
  binding), False (fails) or None (not decided yet); a reader that cannot
  give its value, such as _listed_pairs, returns the answer instead;
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
  conjunct it refutes has no model in any scope; a conjunct is compiled
  once per process for each set of declared sorts, and every later solve
  of an equal conjunct, at any scope, reuses that compile (_compiled);
* one generator gives every sort's candidates (_values), drawing atoms
  from the used ones and the first few unused ones, so a decision costs
  the same at any atoms=; a set of atoms or a relation's keys are tried
  only as the canonical renaming of the unused atoms, so the search never
  retries a subtree that mirrors one already refuted.

Unsat therefore always means "no model within the scope's universes", and
every Sat answer carries a witness that is re-checked by direct ground
evaluation before it is returned.  A declared variable's value lies in its
sort's universe: a binding is checked when it grounds the variable.  A
leaf enumerates every hole still open, those of declared variables first,
so a witness is ground and a sort with no values in the scope has none.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from functools import lru_cache, partial

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
    _unchecked,
    conj_formulas,
    negate,
)
from .universe import (
    DEFAULT_SCOPE,
    AnyS,
    AtomS,
    IntS,
    RecordS,
    RelS,
    Scope,
    SeqS,
    SetS,
    Sort,
    TupleS,
    _scope_atom_stream,
    _scope_index,
    sort_contains,
)
from .values import EMPTY_SET, ENUMERABLE_NS, Atom, IntV, SeqV, SetV, TupV, Value, _add_atoms, is_pair

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

# A pval is either a ground Value, the name (a str) of a variable, which
# stands for itself while env leaves it unbound, or a structural node whose
# children are pvals.  PSet lists all members of the set it denotes;
# duplicates merge when the set grounds.


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
    """The pval at the end of p's chain of variable bindings: a value, a
    structural node or the name of an unbound variable."""
    while type(p) is str:
        bound = env.get(p)
        if bound is None:
            return p
        p = bound
    return p


def resolve(p, env):
    """Walk bindings and collapse fully ground structure to a Value.  A
    structure none of whose children changed comes back as itself, and a
    child that is a Value already is kept without a call."""
    # _walk inlined: this is the search's most frequent call
    while type(p) is str:
        bound = env.get(p)
        if bound is None:
            return p
        p = bound
    ground = _GROUND_OF.get(type(p))
    if ground is None:
        if isinstance(p, Value):
            return p
        raise KindError(f"not a pval: {p!r}")
    elems = p.elems
    rs = [e if isinstance(e, Value) else resolve(e, env) for e in elems]
    for r in rs:
        if not isinstance(r, Value):
            return p if all(map(operator.is_, rs, elems)) else type(p)(rs)
    return ground(rs)


# -- terms to pvals --------------------------------------------------------------


class _Defer(Exception):
    """Internal: a term cannot be evaluated yet."""


# _set_value of a comprehension or an open extension that denotes no set
_NO_SET = object()


def term_pval(t: Term, env):
    """The resolved pval of a term.  Children come back resolved already, so
    a compound is built straight from them.  An unbound variable is its
    name, so every comprehension and open extension in t is valued
    (_set_value), left to right: _Defer at the first that has no value yet,
    KindError at the first that denotes no set.  No term class has
    subclasses, so the dispatch is on the exact type, most frequent first."""
    kind = type(t)
    if kind is Var:
        bound = env.get(t.name)
        return t.name if bound is None else resolve(bound, env)
    if kind is Lit:
        return t.value
    if kind is TupT:
        rs = [term_pval(e, env) for e in t.elems]
        return TupV(rs) if all(isinstance(r, Value) for r in rs) else PTup(rs)
    if kind is SeqT:
        rs = [term_pval(e, env) for e in t.elems]
        return SeqV(rs) if all(isinstance(r, Value) for r in rs) else PSeq(rs)
    if kind is SetT and t.tail is None:
        rs = [term_pval(e, env) for e in t.elems]
        return SetV(rs) if all(isinstance(r, Value) for r in rs) else PSet(rs)
    if kind is not SetT and kind is not RisT:
        raise KindError(f"not a term: {t!r}")
    v = _set_value(t, env)
    if v is None:
        raise _Defer()
    if v is _NO_SET:
        raise KindError("a comprehension or an open extension denotes no set")
    return v


# -- unification ------------------------------------------------------------------


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
    if type(pairs) is not list or len({k for k, _, _ in pairs}) != len(pairs):
        return None
    return dict(sorted(((k, v) for k, v, _ in pairs), key=lambda kv: kv[0]._key))


def unify(a, b, env):
    """Make a and b equal, binding holes in env.  True when they are equal
    now, False when they cannot be, None when that is not decided yet (two
    listed sets whose members are still open).  Mutates env; partial
    bindings on False are fine because the branch is abandoned."""
    a = resolve(a, env)
    b = resolve(b, env)
    if isinstance(a, Value) and isinstance(b, Value):
        return a == b
    if type(a) is str:
        if type(b) is str and a == b:
            return True
        if a in _open_holes(b, env, []):
            return False
        env[a] = b
        return True
    if type(b) is str:
        if b in _open_holes(a, env, []):
            return False
        env[b] = a
        return True
    return _unify_struct(a, b, env)


def _unify_struct(a, b, env):
    # a partial node has the kind of the value it grounds to
    kind = _GROUND_OF.get(type(a), type(a))
    if kind is not _GROUND_OF.get(type(b), type(b)):
        return False
    if kind is TupV or kind is SeqV:
        if len(a.elems) != len(b.elems):
            return False
        return _unify_pointwise(a.elems, b.elems, env)
    if kind is SetV:
        if _is_empty_set(a) != _is_empty_set(b):
            return False
        ka = _keyed_elems(a, env)
        kb = _keyed_elems(b, env)
        if ka is not None and kb is not None:
            if list(ka.keys()) != list(kb.keys()):
                return False
            return _unify_pointwise(list(ka.values()), list(kb.values()), env)
        # single listed member against a singleton set
        ae = a.elems
        be = b.elems
        if len(ae) == 1 and len(be) == 1:
            return unify(ae[0], be[0], env)
        return None
    return False


def _unify_pointwise(xs, ys, env):
    result = True
    for x, y in zip(xs, ys):
        r = unify(x, y, env)
        if r is False:
            return False
        if r is None:
            result = None
    return result


def _is_empty_set(p):
    return isinstance(p, (SetV, PSet)) and not p.elems


def _neq_decide(a, b, env):
    """Three-valued disequality: True, False, or None (unknown), by a trial
    unification undone on the trail, as Prolog's dif/2 decides it.  An
    unbound side decides nothing, unless both are the same variable."""
    a = resolve(a, env)
    b = resolve(b, env)
    if type(a) is str or type(b) is str:
        return False if type(a) is type(b) and a == b else None
    mark = len(env)
    r = unify(a, b, env)
    bound = len(env) > mark
    _undo(env, mark)
    if r is False:
        return True
    return False if r is True and not bound else None


# -- listed-set structure helpers ------------------------------------------------


def _listed(p):
    """Members of a set whose extension is fully listed, or None."""
    return p.elems if isinstance(p, (SetV, PSet)) else None


def _listed_pairs(p, env):
    """(key, value, elem) triples when every member is a definite pair with
    a ground key.  Otherwise the answer of a constraint that needs them:
    False when a member is definitely not a pair, None while the structure
    is still open.  An empty list is falsy, so test the result by type."""
    elems = _listed(p)
    if elems is None:
        return None
    out = []
    for e in elems:
        w = _walk(e, env)
        if isinstance(w, Value) and not is_pair(w):
            return False
        if isinstance(w, (PSet, PSeq)) or (isinstance(w, PTup) and len(w.elems) != 2):
            return False
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
# Every constraint kind has one rule, in _RULES.  A rule answers True (the
# constraint holds, possibly after binding), False (it fails) or None (not
# decided yet), as unify does, so a rule that ends in a unification
# returns its answer.  A ground argument at a position that _ARG_KINDS
# tags, of another kind than the tag's, makes the constraint false before
# its rule runs, so no rule checks the kinds of its arguments itself.  eq
# and neq have no tags: their rules take the terms, because a
# comprehension or an open extension has no pval.  A dual kind (nin,
# ndisj, nsubset, npfun) shares the rule of its positive kind.  Rules call
# kernel functions through the module, so that wrappers installed on it
# see every call.


def _eval_constraint(c: Constraint, env):
    """Evaluate or propagate one constraint against the current bindings.
    Returns True (satisfied, possibly after binding), False, or None (not
    decided yet).  Only an eq or neq operand is a comprehension or an open
    extension: the compile lifts every other one into an equation, so
    term_pval reads the arguments of every other kind without raising."""
    tags = _ARG_KINDS[c.kind]
    if tags is None:
        return _RULES[c.kind](*c.args, env)
    args = [term_pval(a, env) for a in c.args]
    for tag, v in zip(tags, args):
        if tag is not None and isinstance(v, Value) and not isinstance(v, tag.ground):
            return False
    return _RULES[c.kind](args, env)


def _member(positive, args, env):
    x, s = args
    if isinstance(s, SetV):
        if isinstance(x, Value):
            return (x in s) == positive
        if positive and len(s.elems) == 0:
            return False
        return None
    listed = _listed(s)
    if listed is not None and isinstance(x, Value):
        grounds = [e for e in (resolve(e, env) for e in listed) if isinstance(e, Value)]
        if any(e == x for e in grounds):
            return positive
    return None


def _set_op(op, args, env):
    """un, diff or inters: op names the kernel function."""
    a, b, out = args
    if isinstance(a, SetV) and isinstance(b, SetV):
        return unify(out, getattr(kernel, op)(a, b), env)
    return None


def _empty_beside_set(a, b):
    """Whether one side is the empty set and the other is set-shaped, so
    that the empty side alone decides disj and subset."""
    return _is_empty_set(a) and isinstance(b, (SetV, PSet))


def _disjoint(positive, args, env):
    a, b = args
    if isinstance(a, SetV) and isinstance(b, SetV):
        return kernel.disjoint(a, b) == positive
    if _empty_beside_set(a, b) or _empty_beside_set(b, a):
        return positive
    la, lb = _listed(a), _listed(b)
    if la is not None and lb is not None:
        ga = {e for e in (resolve(e, env) for e in la) if isinstance(e, Value)}
        gb = {e for e in (resolve(e, env) for e in lb) if isinstance(e, Value)}
        if ga & gb:
            return not positive
    return None


def _subset(positive, args, env):
    a, b = args
    if isinstance(a, SetV) and isinstance(b, SetV):
        return kernel.subset(a, b) == positive
    if _empty_beside_set(a, b):
        return positive
    return None


def _dom(args, env):
    r, d = args
    pairs = _listed_pairs(r, env)
    if type(pairs) is not list:
        return pairs
    return unify(d, SetV([k for k, _, _ in pairs]), env)


def _ran(args, env):
    r, d = args
    if isinstance(r, SetV):
        try:
            return unify(d, kernel.ran(r), env)
        except KindError:
            return False
    elems = _listed(r)
    if elems is None:
        return None
    vals = []
    for e in elems:
        w = _walk(e, env)
        if not (is_pair(w) if isinstance(w, Value) else isinstance(w, PTup) and len(w.elems) == 2):
            return False if isinstance(w, Value) else None
        v = resolve(w.elems[1], env)
        if not isinstance(v, Value):
            return None
        vals.append(v)
    return unify(d, SetV(vals), env)


def _apply(args, env):
    f, x, y = args
    if not isinstance(x, Value):
        return None
    pairs = _listed_pairs(f, env)
    if type(pairs) is not list:
        return pairs
    hits = [v for k, v, _ in pairs if k == x]
    if not hits:
        return False
    if len(hits) == 1:
        return unify(y, hits[0], env)
    roots = [_walk(h, env) for h in hits]
    if all(type(r) is str and r == roots[0] for r in roots):
        return unify(y, roots[0], env)
    grounds = [resolve(h, env) for h in hits]
    if all(isinstance(g, Value) for g in grounds):
        if all(g == grounds[0] for g in grounds):
            return unify(y, grounds[0], env)
        return False
    return None


def _oplus(args, env):
    r, g, out = args
    rp = _listed_pairs(r, env)
    gp = _listed_pairs(g, env)
    if rp is False or gp is False:
        return False
    if rp is None or gp is None:
        return None
    gkeys = {k for k, _, _ in gp}
    kept = [e for k, _, e in rp if k not in gkeys]
    kept.extend(e for _, _, e in gp)
    return unify(out, resolve(PSet(kept), env), env)


def _dres(args, env):
    d, r, out = args
    if not isinstance(d, SetV):
        return None
    pairs = _listed_pairs(r, env)
    if type(pairs) is not list:
        return pairs
    kept = [e for k, _, e in pairs if k in d]
    return unify(out, resolve(PSet(kept), env), env)


def _pfun(positive, args, env):
    (r,) = args
    pairs = _listed_pairs(r, env)
    if type(pairs) is not list:
        return pairs
    groups = {}
    for k, v, _ in pairs:
        groups.setdefault(k, []).append(v)
    if positive:
        # a listed member pair with a repeated key collapses exactly when
        # the values coincide, so pfun forces the values in each key
        # group to be equal: propagate that by unification
        firsts = [vs[0] for vs in groups.values() for _ in vs[1:]]
        others = [v for vs in groups.values() for v in vs[1:]]
        return _unify_pointwise(firsts, others, env)
    all_collapse = True
    for vs in groups.values():
        if len(vs) == 1:
            continue
        verdicts = [_neq_decide(x, y, env) for x, y in itertools.combinations(vs, 2)]
        if any(v is True for v in verdicts):
            return True  # two definitely-distinct values share a key
        if not all(v is False for v in verdicts):
            all_collapse = False
    return False if all_collapse else None


def _seq_head(args, env):
    s, h = args
    elems = _seq_elems(s)
    if elems is None:
        return None
    if len(elems) == 0:
        return False
    return unify(h, elems[0], env)


def _seq_tail(args, env):
    s, t = args
    elems = _seq_elems(s)
    if elems is None:
        return None
    if len(elems) == 0:
        return False
    return unify(t, resolve(PSeq(elems[1:]), env), env)


def _seq_concat(args, env):
    a, b, out = args
    ea, eb, ec = _seq_elems(a), _seq_elems(b), _seq_elems(out)
    if ea is not None and eb is not None:
        return unify(out, resolve(PSeq(ea + eb), env), env)
    if ec is None or (ea is None and eb is None):
        return None
    # one part is known: it matches its end of out, and the rest is the other
    cut = len(ea) if ea is not None else len(ec) - len(eb)
    if not 0 <= cut <= len(ec):
        return False
    if ea is not None:
        xs, ys = [*ea, b], [*ec[:cut], PSeq(ec[cut:])]
    else:
        xs, ys = [*eb, a], [*ec[cut:], PSeq(ec[:cut])]
    return _unify_pointwise(xs, ys, env)


def _seq_nth(args, env):
    s, i, y = args
    elems = _seq_elems(s)
    n = _ground_int(i)
    if elems is None or n is None:
        return None
    if not 1 <= n <= len(elems):
        return False
    return unify(y, elems[n - 1], env)


def _plus(args, env):
    a, b, out = args
    na, nb, nc = map(_ground_int, args)
    if na is not None and nb is not None:
        return unify(out, IntV(na + nb), env)
    if nc is not None:
        for n, other in ((na, b), (nb, a)):
            if n is not None:
                return unify(other, IntV(nc - n), env)
    return None


def _minus(args, env):
    # a - b = c is b + c = a
    a, b, c = args
    return _plus((b, c, a), env)


def _times(args, env):
    a, b, out = args
    na, nb, nc = map(_ground_int, args)
    if na is not None and nb is not None:
        return unify(out, IntV(na * nb), env)
    if nc is not None:
        for n, other in ((na, b), (nb, a)):
            if n is not None:
                if n == 0:
                    return None if nc == 0 else False
                if nc % n != 0:
                    return False
                return unify(other, IntV(nc // n), env)
    return None


def _intdiv(args, env):
    # floor division, undefined for divisor 0
    na, nb, _ = map(_ground_int, args)
    if na is None or nb is None:
        return None
    if nb == 0:
        return False
    return unify(args[2], IntV(na // nb), env)


def _compare(holds, args, env):
    na, nb = map(_ground_int, args)
    if na is None or nb is None:
        return None
    return holds(na, nb)


def _set_value(t, env):
    """The value of a comprehension or an open extension once its inputs
    are ground, else None; _NO_SET when it denotes no set.  Its domain, or
    its elements and then its tail, are read by term_pval, so a set term
    among them raises as term_pval does; the compile lifts every such one
    out of the search's constraints.  A comprehension's binder is set in
    env while its filter and pattern are evaluated, and restored after; a
    pattern that has no value or denotes no set makes the whole None or
    _NO_SET.  An open extension {e1,...,ek / T} is the union of T and the
    ei, when T is a set that lists no ei."""
    if isinstance(t, SetT):
        elems = [term_pval(e, env) for e in t.elems]
        tail = term_pval(t.tail, env)
        if isinstance(tail, Value) and not isinstance(tail, SetV):
            return _NO_SET
        if not isinstance(tail, SetV) or not all(isinstance(e, Value) for e in elems):
            return None
        if any(e in tail for e in elems):
            return _NO_SET
        return kernel.union(SetV(elems), tail)
    domain = term_pval(t.domain, env)
    if not isinstance(domain, Value):
        return None
    if not isinstance(domain, SetV):
        return _NO_SET
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
                return _NO_SET
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
        if isinstance(one, SetT) and one.tail is not None:
            return _eval_open_eq(one, _operand(other, env), env)
    try:
        a = term_pval(lhs, env)
        b = term_pval(rhs, env)
    except _Defer:
        return None
    except KindError:
        return False  # a comprehension that denotes no set
    return unify(a, b, env)


def _eval_neq(lhs: Term, rhs: Term, env):
    try:
        a = term_pval(lhs, env)
        b = term_pval(rhs, env)
    except (_Defer, KindError):
        # an operand is a comprehension or an open extension, whose value is
        # a set once known: decided then, and at once when a side is no set
        a, b = _operand(lhs, env), _operand(rhs, env)
        if a is _NO_SET or b is _NO_SET or any(
            isinstance(v, Value) and not isinstance(v, SetV) for v in (a, b)
        ):
            return True
        if a is None or b is None:
            return None
    return _neq_decide(a, b, env)


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


def _eval_open_eq(pat: SetT, s, env):
    """S = {e1,...,ek / T}, where s is the pval of S, or its _set_value when
    S is a comprehension or an open extension: the listed elements are
    members of S and the tail is exactly S without them (set-unification
    normal form)."""
    if s is None:
        return None
    if s is _NO_SET:
        return False
    elem_pvals = [term_pval(e, env) for e in pat.elems]
    tail_pval = term_pval(pat.tail, env)

    if isinstance(s, SetV):
        # match listed elements against the ground set
        keyed = _keyed_elems(PSet(elem_pvals), env)
        s_keyed = _keyed_elems(s, env)
        if keyed is not None and s_keyed is not None:
            for k in keyed:
                if k not in s_keyed:
                    return False
            rest = SetV([e for e in s.elems if _pair_key(e, env) not in keyed])
            return _unify_pointwise(
                [*keyed.values(), tail_pval], [*(s_keyed[k] for k in keyed), rest], env
            )
        grounds = [e for e in elem_pvals if isinstance(e, Value)]
        if len(grounds) == len(elem_pvals):
            for e in grounds:
                if e not in s:
                    return False
            rest = kernel.difference(s, SetV(grounds))
            return unify(tail_pval, rest, env)
        if len(s.elems) == 1 and len(elem_pvals) == 1:
            return _unify_pointwise([elem_pvals[0], tail_pval], [s.elems[0], EMPTY_SET], env)
        return None

    if type(s) is str or isinstance(s, PSet):
        whole = _set_value(pat, env)
        if whole is None:
            return None
        return False if whole is _NO_SET else unify(s, whole, env)
    if isinstance(s, Value):  # ground but not a set
        return False
    return None


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
    return None if v is _NO_SET else v


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

    __slots__ = ("scope", "constraints", "free", "names", "registry", "order", "budget", "tried",
                 "fresh_names", "validate", "env", "watch", "sort_watch", "used_atoms")

    def __init__(self, scope, problem, budget, validate, tried=0):
        self.scope = scope
        self.constraints = problem.constraints
        self.free = problem.free  # per constraint: its free names in first-occurrence order
        self.names = tuple(problem.sorts)  # the caller's names, then the constraints'
        self.registry = dict(problem.sorts)  # ordered: var -> Sort
        self.order = {name: i for i, name in enumerate(problem.sorts)}
        self.budget = budget
        self.tried = tried  # candidates tried so far, earlier disjuncts included
        self.fresh_names = _fresh_names("_H", self.registry)
        # caller-declared sorts define the in-scope universe of their
        # variables: a propagated binding outside it fails the branch
        self.validate = validate
        self.env = {}
        # hole -> the constraints (a dict used as an ordered set) that were
        # deferred while they could observe it; entries are never removed,
        # so a stale one only wakes a constraint that then defers again
        self.watch = {}
        # hole -> the declared variables that wait on it: each one not ground
        # waits on one of its open holes; stale entries are never removed
        self.sort_watch = {name: {name: None} for name in validate}
        # the literal atoms of the constraints and those held by the
        # enumerated bindings of the current decision path
        self.used_atoms = set().union(*problem.atoms)

    def charge(self):
        self.tried += 1
        if self.tried > self.budget:
            raise _Budget()

    def tick(self):
        """A decision node: a hook for the tests to count them by."""

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
    """Append to out the names of the unbound variables (holes) that pval p
    reaches through env, left to right; returns out."""
    # _walk inlined, as in resolve
    while type(p) is str:
        bound = env.get(p)
        if bound is None:
            out.append(p)
            return out
        p = bound
    kind = type(p)
    if kind is PTup or kind is PSet or kind is PSeq:
        for e in p.elems:
            _open_holes(e, env, out)
    return out


def _atom_pool(st, ns, by_value, n):
    """The scope atoms of namespace ns that candidates are drawn from, in
    the stream's own order (value order, where a10 sorts before a2, or
    index order), and the unused ones among them in that order: every used
    atom and the first n unused ones.  The scope atoms are walked lazily up
    to the n-th unused one, so the work does not grow with atoms=."""
    scope, used = st.scope, st.used_atoms
    stream = _scope_atom_stream(ns, scope, by_value)
    fresh = list(itertools.islice((a for a in stream if a not in used), n))
    pool = [a for a in used if _scope_index(a, ns, scope)] + fresh
    pool.sort(key=None if by_value else lambda a: _scope_index(a, ns, scope))
    return pool, fresh


def _is_canonical(fresh, combo):
    """Whether the unused atoms in combo, a candidate's atoms in pool
    order, are the first unused ones of each namespace: fresh lists each
    namespace's unused pool atoms in pool order."""
    for ns_fresh in fresh:
        unused = list(dict.fromkeys(a for a in combo if a in ns_fresh))
        if unused != ns_fresh[: len(unused)]:
            return False
    return True


def _subsets(base, card, pick=itertools.combinations):
    """pick(base, k) for k from 0 to card: the sub-tuples of base by size."""
    return itertools.chain.from_iterable(pick(base, k) for k in range(card + 1))


def _atom_bound(sort, scope):
    """At least the most distinct atoms of one namespace in a sort's value."""
    kind = type(sort)
    if kind is SetS or kind is SeqS:
        size = scope.max_set_card if kind is SetS else scope.max_seq_len
        return size * _atom_bound(sort.elem, scope)
    if kind is RelS:
        return scope.max_set_card * (_atom_bound(sort.key, scope) + _atom_bound(sort.val, scope))
    if kind is TupleS or kind is RecordS:
        parts = sort.elems if kind is TupleS else dict(sort.fields).values()
        return sum(_atom_bound(s, scope) for s in parts)
    return 0 if kind is IntS else 1


def _values(sort, st, n, by_value=False, fresh=None, keep=None):
    """The sort's ground values in its universe's order (atoms by index,
    integers ascending, sets, a relation being one, by cardinality and then
    by members in value order, sequences by length, tuples and records as
    products), less those with an unused atom outside _atom_pool(st, ns,
    by_value, n), by_value holding inside a set.  An atom sort appends each
    namespace's unused pool atoms, a list, to fresh; keep filters sets."""
    scope = st.scope
    kind = type(sort)
    if kind is AtomS or kind is AnyS:
        for ns in (sort.ns,) if kind is AtomS else ENUMERABLE_NS:
            pool, unused = _atom_pool(st, ns, by_value, n)
            if fresh is not None:
                fresh.append(unused)
            yield from pool
    if kind is IntS or kind is AnyS:
        yield from map(IntV, range(scope.int_lo, scope.int_hi + 1))
    elif kind is SetS or kind is RelS:
        elem = sort.elem if kind is SetS else TupleS((sort.key, sort.val))
        members = list(_values(elem, st, n, True, fresh))
        if type(elem) is not AtomS:  # an atom pool drawn by value is in value order
            members.sort()
        combos = _subsets(members, scope.max_set_card)
        yield from map(SetV, combos if keep is None else filter(keep, combos))
    elif kind is SeqS:
        base = list(_values(sort.elem, st, n, by_value))
        for length in range(scope.max_seq_len + 1):
            yield from map(SeqV, itertools.product(base, repeat=length))
    elif kind is TupleS:
        yield from map(TupV, itertools.product(*[list(_values(s, st, n, by_value)) for s in sort.elems]))
    elif kind is RecordS:
        names = [Atom(f, "field") for f, _ in sort.fields]
        for combo in itertools.product(*[list(_values(s, st, n, by_value)) for _, s in sort.fields]):
            yield SetV(map(TupV, zip(names, combo)))


def _sort_candidates(sort, st):
    """The candidates for a variable of the given sort, in its universe's
    order: a structural template for a record or a tuple and one per key
    multiset for a relation, whose open slots are fresh registered
    variables, else the sort's ground values (_values).  A set of atoms or
    a relation's keys skip every candidate that renames an earlier one by a
    permutation of unused atoms: scope atoms that no literal names and no
    enumerated binding of the decision path holds.  Such a renaming maps
    the constraints, the scope and the bindings so far to themselves, and
    the stream lists the canonical renaming first."""
    scope, card = st.scope, st.scope.max_set_card
    kind = type(sort)
    if kind is RecordS:
        yield PSet([PTup((Atom(f, "field"), st.fresh(s))) for f, s in sort.fields])
    elif kind is TupleS:
        yield PTup(tuple(st.fresh(s) for s in sort.elems))
    elif kind is RelS:
        # key multisets: repeated keys with open values cover the relations
        # that are not partial functions
        fresh = []
        keys = list(_values(sort.key, st, card * _atom_bound(sort.key, scope), False, fresh))
        for combo in _subsets(keys, card, itertools.combinations_with_replacement):
            if _is_canonical(fresh, combo):
                yield PSet([PTup((k, st.fresh(sort.val))) for k in combo]) if combo else EMPTY_SET
    elif kind is SetS and type(sort.elem) in (AtomS, AnyS):
        fresh = []
        yield from _values(sort, st, card, False, fresh, partial(_is_canonical, fresh))
    else:
        yield from _values(sort, st, _atom_bound(sort, scope))


def _in_declared_universe(st, mark):
    """Whether each declared variable that the bindings since the trail mark
    made ground lies in its sort's universe.  A variable waits on one open
    hole, as a watched literal does: when that hole binds, the variable is
    checked if it is ground now, else filed under its first open hole."""
    env, sort_watch = st.env, st.sort_watch
    for name in _bound_since(env, mark):
        for var in sort_watch.get(name, ()):
            holes = _open_holes(var, env, [])
            if holes:
                sort_watch.setdefault(holes[0], {})[var] = None
            elif not sort_contains(st.validate[var], resolve(env[var], env), st.scope):
                return False
    return True


def _watch(st, i):
    """File deferred constraint i under every unbound hole it can observe:
    the roots of its free names and the holes in their values (_open_holes)."""
    env, watch = st.env, st.watch
    holes = []
    for name in st.free[i]:
        _open_holes(name, env, holes)
    for h in holes:
        watch.setdefault(h, {})[i] = None


# what a propagation at the root or after a union's placement is asked to
# reuse: no answers
_NOTHING_ASKED = ({}, 0)


def _propagate(st, pending, mark, queue, asked=_NOTHING_ASKED):
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
    or a declared variable grounds outside its universe.

    asked is (answers, length): the answers, by constraint index, that the
    forward-checking tests just gave the candidate bound last, and the
    env's length then (_candidates).  An answer stands in for evaluating
    its constraint again when no binding can have changed it: True always,
    since bindings are only added and a constraint that holds stays dropped,
    and None while the env still has that length."""
    env, constraints, watch = st.env, st.constraints, st.watch
    answers, asked_at = asked
    live = set(pending)  # the constraints still open
    queued = set(queue)
    for name in _bound_since(env, mark):
        for j in watch.get(name, ()):
            if j not in queued and j in live:
                queued.add(j)
                queue.append(j)
    heapq.heapify(queue)
    while True:
        again = {}
        while queue:
            i = heapq.heappop(queue)
            before = len(env)
            if i in answers and (answers[i] or before == asked_at):
                r = answers[i]
            else:
                r = _eval_constraint(constraints[i], env)
            if r is False:
                return None
            if r is None:
                _watch(st, i)
            else:
                live.discard(i)
            if len(env) == before:
                continue
            if r is None:
                again[i] = None
            for name in _bound_since(env, before):
                for j in watch.get(name, ()):
                    if j == i or j not in live:
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
    return [i for i in pending if i in live]


_PLACE_A, _PLACE_B, _PLACE_BOTH = 0, 1, 2
# the kinds a candidate is tested against before it costs a decision node
_UNARY_TESTED = frozenset(("in", "nin", "subset", "nsubset", "disj", "ndisj", "neq"))


def _pending_holes(st, pending):
    """Unbound variables the pending constraints can still observe (the
    keys of a dict), free name by free name, each name walked once.  The
    holes that one name reaches come in name order, not observation order,
    so _H10 before _H2: the decision order rests on that."""
    env, free = st.env, st.free
    out = {}
    for name in dict.fromkeys(name for i in pending for name in free[i]):
        out.update(dict.fromkeys(sorted(set(_open_holes(name, env, [])))))
    return out


def _pick_decision(st, pending):
    """The next decision: ("split", a, b, out) for a union with a ground
    result, else ("bind", var, candidates, tick_first, tests), whose
    candidates are bound to var in turn.  tests lists the indices of the
    pending set constraints (_UNARY_TESTED) that var alone decides: var is
    a bare argument and every other one is ground."""
    env, order = st.env, st.order
    if not pending:
        # a leaf grounds every hole it still has: first those of the bound
        # declared variables, which are checked when they ground, then those
        # of the caller's names and the constraints'.  The first fill is no
        # decision node, and an empty universe fails the branch
        for name in itertools.chain([v for v in st.validate if v in env], st.names):
            holes = _open_holes(name, env, [])
            if holes:
                var = min(holes, key=lambda h: order.get(h, len(order)))
                return ("bind", var, _sort_candidates(st.registry.get(var) or AnyS(), st), False, ())
        return None
    for i in pending:
        c = st.constraints[i]
        if c.kind == "in":
            x = term_pval(c.args[0], env)
            s = term_pval(c.args[1], env)
            if isinstance(s, SetV) and type(x) is str:
                return ("bind", x, s.elems, True, ())
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
                    root = _walk(one.name, env)
                    if type(root) is str:
                        defined.add(root)
    var = min([v for v in live if v not in defined] or live, key=lambda v: order[v])
    tests = []
    for i in pending:
        c = st.constraints[i]
        if c.kind in _UNARY_TESTED:
            mine = [isinstance(a, Var) and _walk(a.name, env) == var for a in c.args]
            if any(mine) and all(
                m or not _is_set_term(a) and isinstance(term_pval(a, env), Value)
                for m, a in zip(mine, c.args)
            ):
                tests.append(i)
    return ("bind", var, _sort_candidates(st.registry.get(var) or AnyS(), st), True, tests)


def _test(tests, st):
    """The answers of the constraints with the indices in tests to the
    candidate just bound, by index, or None at the first that answers
    False."""
    env, constraints = st.env, st.constraints
    answers = {}
    for i in tests:
        r = _eval_constraint(constraints[i], env)
        if r is False:
            return None
        answers[i] = r
    return answers


def _candidates(decision, st):
    """Bind the decision's candidates in env one after another, undoing the
    previous one first; yields after each binding what the next
    propagation is asked to reuse (_propagate): the tests' answers to that
    candidate and the env's length, or nothing asked after a placement.  A
    bind's candidate that one of its tests answers False is skipped: the
    next propagation would have failed on that test, which watches var
    (forward checking).  No tested kind binds anything, so a test reads
    the candidate's own binding.  Every other candidate is a decision
    node, except the first of a bind whose tick_first is False.  Every
    candidate and every placement is charged to the budget, before its
    tests run."""
    env = st.env
    mark = len(env)
    if decision[0] == "split":
        _, a, b, out = decision
        for combo in itertools.product((_PLACE_A, _PLACE_B, _PLACE_BOTH), repeat=len(out.elems)):
            st.charge()
            st.tick()
            _undo(env, mark)
            left = SetV([e for e, w in zip(out.elems, combo) if w != _PLACE_B])
            right = SetV([e for e, w in zip(out.elems, combo) if w != _PLACE_A])
            if unify(a, left, env) is not False and unify(b, right, env) is not False:
                yield _NOTHING_ASKED
        return
    _, var, candidates, tick, tests = decision
    # fresh vars registered by abandoned candidates stay in the registry:
    # they are unreachable, and keeping it append-only keeps runs identical
    used = st.used_atoms
    added = set()  # the atoms the current candidate brought into use
    for cand in candidates:
        _undo(env, mark)
        env[var] = cand
        st.charge()
        answers = _test(tests, st)
        if answers is None:
            continue
        if tick:
            st.tick()
        tick = True
        used -= added
        added = set()
        _add_atoms(cand, added)
        added -= used
        used |= added
        yield answers, len(env)
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
            asked = next(candidates, None)
            if asked is not None:
                break
            stack.pop()
        else:
            return False
        pending = _propagate(st, pending, mark, [], asked)


# -- public api ----------------------------------------------------------------------


@lru_cache(maxsize=256)
def _compiled(disjunct, declared):
    """_compile's problem of a conjunct under the declared sorts, given as
    (name, sort) pairs, kept for the process: the compile reads no scope,
    so a scope sweep or any later solve of an equal conjunct reuses it."""
    return _compile(disjunct, dict(declared))


def solve(f: Formula, scope: Scope = DEFAULT_SCOPE, sorts=None, budget: int = DEFAULT_BUDGET):
    """Find a witness for f within the scope, or establish there is none.

    Each disjunct is compiled once per process for each set of declared
    sorts, reading no scope (_compile), and a disjunct that the compile
    refutes has no model in any scope; any other Unsat is scope-relative.
    Enumeration order is fixed (atoms in namespace order, integers
    ascending, sets by cardinality then element order), so identical
    inputs give identical answers.  The budget bounds the candidates that
    all disjuncts together try, tested or not.  A term nested so deeply
    that the compile, the search or the re-check of a witness exceeds
    Python's recursion limit gives Unknown.
    """
    try:
        return _solve(f, scope, sorts, budget)
    except RecursionError:
        return Unknown("a term is nested too deeply to solve within Python's recursion limit")


def _solve(f, scope, sorts, budget):
    """solve, but for its answer to a RecursionError."""
    declared = dict(sorts or {})
    for name, sort in declared.items():
        if not isinstance(sort, Sort):
            raise KindError(f"the sort declared for {name!r} is not a sort: {sort!r}")
    key = tuple(declared.items())
    budget = DEFAULT_BUDGET if budget is None else budget
    tried = 0
    unknown = None
    for disjunct in f.disjuncts:
        try:
            problem = _compiled(disjunct, key)
        except RecursionError:  # a key too deeply nested to hash or compare is a miss
            problem = _compile(disjunct, declared)
        if problem.constraints is None:
            continue
        st = _State(scope, problem, budget, declared, tried)
        try:
            found = _search(st)
        except _Budget:
            return Unknown(f"search budget exceeded ({budget} candidates tried)")
        except _Stuck as e:
            unknown = Unknown(str(e))
            found = False
        tried = st.tried
        if not found:
            continue
        env = st.env
        assignment = {}
        for name in st.registry:
            bound = env.get(name)
            if bound is not None and isinstance(val := resolve(bound, env), Value):
                assignment[name] = val
        for name in problem.caller:  # the caller's names are registered too
            if name not in assignment:
                val = resolve(name, env)
                raise SetforgeError(f"internal: witness for {name} is not ground: {val!r}")
        witness = {name: assignment[name] for name in problem.caller}
        # no second binder check: f passed it, and a comprehension lifted out
        # of another one's domain may reuse a binder that is free elsewhere
        ok = eval_ground_formula(_unchecked((problem.compiled,)), assignment, partial_ok=True)
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
