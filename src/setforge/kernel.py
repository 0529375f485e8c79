"""Set, relation, sequence and record operations over ground values.

These are the operators the schema predicates use.  All functions are pure,
validate argument kinds, and raise the errors named in errors.py.  The hot
element-level loops are the primitives in _backend.py; this module owns the
value-level contracts.  Every set built here is ``SetV(elems, key)`` from a
primitive's result, or from a splice of an operand's elements and key.
"""

from __future__ import annotations

from bisect import bisect_left

from . import _backend
from .errors import (
    AmbiguousApplicationError,
    KindError,
    MissingFieldError,
    OutsideDomainError,
    RangeError,
)
from .values import Atom, SeqV, SetV, TupV, Value, is_pair

BACKEND_NAME = _backend.BACKEND_NAME


def _need_set(v: Value, op: str) -> SetV:
    if not isinstance(v, SetV):
        raise KindError(f"{op} needs a set, got {type(v).__name__}")
    return v


# What a set is known to be, kept in its ``_facts`` slot from the first time
# it is asked and computed then from the set's own elements.  Only override
# records a fact as it builds a set, and only one it knows without a scan:
# a function overridden by a function, or by at most one pair, is a function.
_NOT_REL, _REL, _NOT_PFUN, _PFUN = range(4)
_set_facts = SetV._facts.__set__


def _relation_fact(s: SetV) -> int:
    """_NOT_REL, or one of the relation facts once every element is a pair.

    Elements are sorted by key and a pair's key starts with (2, 2), so every
    element is a pair exactly when the first and the last one are."""
    try:
        return s._facts
    except AttributeError:
        elems = s.elems
        pair = not elems or elems[0]._key[:2] == (2, 2) == elems[-1]._key[:2]
        fact = _REL if pair else _NOT_REL
        _set_facts(s, fact)
        return fact


def is_relation(v: Value) -> bool:
    """True iff v is a set of pairs."""
    return isinstance(v, SetV) and _relation_fact(v) != _NOT_REL


def _need_rel(v: Value, op: str) -> SetV:
    s = _need_set(v, op)
    if _relation_fact(s) == _NOT_REL:
        bad = next(e for e in s.elems if not is_pair(e))
        raise KindError(f"{op} needs a binary relation; offending element {bad!r}")
    return s


def _is_pfun(r: SetV) -> bool:
    """is_pfun of a set that _need_rel has accepted."""
    fact = r._facts
    if fact == _REL:
        fact = _PFUN if _backend.is_pfun_elems(r.elems) else _NOT_PFUN
        _set_facts(r, fact)
    return fact == _PFUN


def _need_seq(v: Value, op: str) -> SeqV:
    if not isinstance(v, SeqV):
        raise KindError(f"{op} needs a sequence, got {type(v).__name__}")
    return v


def union(a: Value, b: Value) -> SetV:
    """a ∪ b."""
    a = _need_set(a, "union")
    b = _need_set(b, "union")
    return SetV(*_backend.union(a.elems, a._key, b.elems, b._key))


def difference(a: Value, b: Value) -> SetV:
    """a ∖ b."""
    a = _need_set(a, "difference")
    b = _need_set(b, "difference")
    return SetV(*_backend.difference(a.elems, a._key, b.elems, b._key))


def intersection(a: Value, b: Value) -> SetV:
    a = _need_set(a, "intersection")
    b = _need_set(b, "intersection")
    return SetV(*_backend.intersection(a.elems, a._key, b.elems, b._key))


def subset(a: Value, b: Value) -> bool:
    a = _need_set(a, "subset")
    b = _need_set(b, "subset")
    return len(_backend.difference(a.elems, a._key, b.elems, b._key)[0]) == 0


def disjoint(a: Value, b: Value) -> bool:
    a = _need_set(a, "disjoint")
    b = _need_set(b, "disjoint")
    return len(_backend.intersection(a.elems, a._key, b.elems, b._key)[0]) == 0


def dom(r: Value) -> SetV:
    """Set of first components of a binary relation."""
    r = _need_rel(r, "dom")
    return SetV(*_backend.dom_elems(r.elems, r._key))


def in_dom(x: Value, r: Value) -> bool:
    """x ∈ dom r, by bisection into r's pairs: the domain is not built."""
    r = _need_rel(r, "dom")
    return len(_backend.lookup(r.elems, r._key, x)) > 0


def ran(r: Value) -> SetV:
    """Set of second components of a binary relation."""
    r = _need_rel(r, "ran")
    return SetV(*_backend.ran_elems(r.elems, r._key))


def override(r: Value, g: Value) -> SetV:
    """Relational override: pairs of g replace same-key pairs of r."""
    r = _need_rel(r, "override")
    g = _need_rel(g, "override")
    out = SetV(*_backend.override_elems(r.elems, r._key, g.elems, g._key))
    if r._facts == _PFUN and (g._facts == _PFUN or len(g.elems) < 2):
        _set_facts(out, _PFUN)
    return out


def dres(d: Value, r: Value) -> SetV:
    """Domain restriction: keep the pairs of r whose key lies in d."""
    d = _need_set(d, "dres")
    r = _need_rel(r, "dres")
    return SetV(*_backend.dres_elems(d._key, r.elems, r._key))


def is_pfun(r: Value) -> bool:
    """True iff no two pairs of r share a first component."""
    return _is_pfun(_need_rel(r, "is_pfun"))


def apply(f: Value, x: Value) -> Value:
    """The unique y with (x, y) in f; f must be a partial function."""
    f = _need_rel(f, "apply")
    if not _is_pfun(f):
        raise AmbiguousApplicationError("application on a relation that is not a function")
    hits = _backend.lookup(f.elems, f._key, x)
    if not hits:
        raise OutsideDomainError(f"application outside domain: {x!r}")
    return hits[0]


def ris_eval(domain: Value, filter_fn, pattern_fn) -> SetV:
    """Comprehension over a finite set: {pattern(x) | x in domain, filter(x)}."""
    domain = _need_set(domain, "ris_eval")
    out = []
    for x in domain.elems:
        if filter_fn(x):
            y = pattern_fn(x)
            if not isinstance(y, Value):
                raise KindError(f"comprehension pattern produced a non-Value: {y!r}")
            out.append(y)
    return SetV(out)


def seq_tail(s: Value) -> SeqV:
    s = _need_seq(s, "seq_tail")
    if len(s.elems) == 0:
        raise RangeError("tail of the empty sequence")
    return SeqV(s.elems[1:])


def seq_head(s: Value) -> Value:
    s = _need_seq(s, "seq_head")
    if len(s.elems) == 0:
        raise RangeError("head of the empty sequence")
    return s.elems[0]


def seq_concat(a: Value, b: Value) -> SeqV:
    a = _need_seq(a, "seq_concat")
    b = _need_seq(b, "seq_concat")
    return SeqV(a.elems + b.elems)


def seq_nth(s: Value, i: int) -> Value:
    """1-based indexing."""
    s = _need_seq(s, "seq_nth")
    if not 1 <= i <= len(s.elems):
        raise RangeError(f"index {i} outside 1..{len(s.elems)}")
    return s.elems[i - 1]


def _record_pairs(r: Value, op: str):
    r = _need_rel(r, op)
    elems = r.elems
    # pairs sort by first component and atom keys sort first, so every
    # field is an atom exactly when the last one is
    if elems and not isinstance(elems[-1].elems[0], Atom):
        bad = next(e.elems[0] for e in elems if not isinstance(e.elems[0], Atom))
        raise KindError(f"{op}: record field is not an atom: {bad!r}")
    if not _is_pfun(r):
        raise KindError(f"{op}: duplicate field atoms in record")
    return r


def record_get(r: Value, f: Atom) -> Value:
    r = _record_pairs(r, "record_get")
    hits = _backend.lookup(r.elems, r._key, f)
    if not hits:
        raise MissingFieldError(f"record has no field {f.name!r}")
    return hits[0]


def record_set(r: Value, f: Atom, v: Value) -> SetV:
    """r with field f set to v: the new pair is spliced into r's elements and
    its key into r's key, at f's bisected position, in place of f's pair."""
    r = _record_pairs(r, "record_set")
    p = TupV((f, v))
    elems, key, fk = r.elems, r._key, f._key
    i = bisect_left(key, (2, 2, fk), 2)
    j = i + 1 if i < len(key) and key[i][2] == fk else i
    return SetV(elems[:i - 2] + (p,) + elems[j - 2:],
                (3, len(elems) + 1 - (j - i)) + key[2:i] + (p._key,) + key[j:])
