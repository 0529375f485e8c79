"""Ground value representation: atoms, integers, tuples, finite sets, sequences.

Records and binary relations are not separate kinds; a record is a set of
(field-atom, value) pairs and a relation is a set of 2-tuples.  Every value
is immutable and carries a precomputed structural key that gives a total
order over all values.  Set elements are stored deduplicated and sorted by
that key, so structural equality of sets is order-insensitive for free and
printing is canonical.

A set's key is the flat tuple ``(3, n, k1, ..., kn)`` of its element keys in
that order, so element i's key is ``key[i + 2]``.  The kernel primitives in
_backend.py build each result's key by slicing runs of their operands' keys
and search a set by bisecting its key, so the kernel never rebuilds a key
element by element from sets it already has.  Comparing two values
compares their keys, one tuple comparison in C.

Values remember what they are asked once: the hash of a value is computed
from its key on first use, and a set remembers whether it is a binary
relation and whether it is a partial function (see kernel.py).
"""

from __future__ import annotations

import re

from . import _backend
from .errors import KindError

# Namespaces for atoms.  Given sets are pairwise disjoint, so every atom is
# tagged with the namespace it belongs to; equality compares the tag too.
NAMESPACES = ("addr", "hash", "proof", "tx", "msg", "field", "opaque")
_NS_RANK = {ns: i for i, ns in enumerate(NAMESPACES)}

# Namespaces whose atoms the solver may enumerate, with the name prefix used
# to generate fresh atoms (a1, a2, ..., h1, ...).  msg and field atoms are
# structural tags and are never enumerated.
ENUMERABLE_NS = ("addr", "hash", "proof", "tx", "opaque")
NS_PREFIX = {"addr": "a", "hash": "h", "proof": "pr", "tx": "tx", "opaque": "u"}

# A prefix and digits name an atom of the namespace its group is called by.
_NUMBERED_RE = re.compile(
    r"(?:(?P<addr>a|n)|(?P<hash>h)|(?P<proof>pr)|(?P<tx>tx)|(?P<opaque>u))\d+$"
)


def infer_namespace(name: str) -> str:
    """Namespace of a lowercase atom name, by lexical convention."""
    if name in ("this", "env", "null"):
        return "addr"
    m = _NUMBERED_RE.match(name)
    if m is not None:
        return m.lastgroup
    if name.endswith("Msg"):
        return "msg"
    if name in FIELD_ATOMS:
        return "field"
    return "opaque"


class Value:
    """Base class of all ground values.  Subclasses are immutable.

    ``_hash`` stays unset until the first ``hash(v)``, which stores
    ``hash(v._key)`` there: most values are built and compared, never hashed.
    """

    __slots__ = ("_key", "_hash")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Value):
            return NotImplemented
        return self._key == other._key

    def __ne__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        return self._key != other._key

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key)
            _set_hash(self, h)
            return h


class Atom(Value):
    """Member of a given set; no structure beyond its name and namespace."""

    __slots__ = ("ns", "name")

    def __init__(self, name: str, ns: str | None = None):
        if ns is None:
            ns = infer_namespace(name)
        if ns not in _NS_RANK:
            raise KindError(f"unknown atom namespace {ns!r}")
        _set_ns(self, ns)
        _set_name(self, name)
        _set_key(self, (0, _NS_RANK[ns], name))

    def __repr__(self):
        return f"Atom({self.name!r}, {self.ns!r})"


class IntV(Value):
    """Arbitrary-precision integer value."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool):
            raise KindError(f"IntV needs a Python int, got {type(n).__name__}")
        _set_n(self, n)
        _set_key(self, (1, n))

    def __repr__(self):
        return f"IntV({self.n})"


class TupV(Value):
    """Ordered tuple of at least two values."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        elems = tuple(elems)
        if len(elems) < 2:
            raise KindError("tuples need at least 2 components")
        for e in elems:
            if not isinstance(e, Value):
                raise KindError(f"tuple component is not a Value: {e!r}")
        _set_tup(self, elems)
        _set_key(self, (2, len(elems), *[e._key for e in elems]))

    def __len__(self):
        return len(self.elems)

    def __repr__(self):
        return f"TupV{self.elems!r}"


class SetV(Value):
    """Finite set; elements stored deduplicated in canonical key order.

    ``SetV(elems)`` canonicalises any elements.  ``SetV(elems, key)`` takes
    a canonical element tuple and the set's key as they are: the kernel
    passes them as a _backend primitive or a splice built them.

    ``_facts`` stays unset until kernel.py first asks whether the set is a
    binary relation; it then records that, and later whether it is a
    partial function, computed from the elements alone.  kernel.override
    records the latter on its result when it knows it without a scan.
    """

    __slots__ = ("elems", "_facts")

    def __init__(self, elems=(), key=None):
        if key is None:
            if not isinstance(elems, (list, tuple)):
                elems = tuple(elems)  # the check below must not consume an iterator
            for e in elems:
                if not isinstance(e, Value):
                    raise KindError(f"set element is not a Value: {e!r}")
            elems, key = _backend.canon(elems)
        _set_set(self, elems)
        _set_key(self, key)

    def __len__(self):
        return len(self.elems)

    def __contains__(self, v):
        return _backend.member(self._key, v)

    def __iter__(self):
        return iter(self.elems)

    def __repr__(self):
        return f"SetV{{{', '.join(map(repr, self.elems))}}}"


class SeqV(Value):
    """Finite sequence with 1-based indexing."""

    __slots__ = ("elems",)

    def __init__(self, elems=()):
        elems = tuple(elems)
        for e in elems:
            if not isinstance(e, Value):
                raise KindError(f"sequence element is not a Value: {e!r}")
        _set_seq(self, elems)
        _set_key(self, (4, len(elems), *[e._key for e in elems]))

    def __len__(self):
        return len(self.elems)

    def __repr__(self):
        return f"SeqV{self.elems!r}"


# Constructors write each slot through its own descriptor: faster than
# object.__setattr__, and past Value.__setattr__, which refuses every write.
_set_key, _set_hash = Value._key.__set__, Value._hash.__set__
_set_ns, _set_name, _set_n = Atom.ns.__set__, Atom.name.__set__, IntV.n.__set__
_set_tup, _set_set, _set_seq = TupV.elems.__set__, SetV.elems.__set__, SeqV.elems.__set__

# Known record field names, each mapped to the one field atom that every
# record and the parser share; infer_namespace puts these names in "field".
FIELD_ATOMS = {
    name: Atom(name, "field")
    for name in (
        "as bf tp prev txs pf delta soup acc accCC newaddr step "
        "nonce bal code g pc m i s out tn tg tv ti td sender tt "
        "cs ees ia io ip ie e o p v"
    ).split()
}


def atom(name: str, ns: str | None = None) -> Atom:
    return Atom(name, ns)


def intv(n: int) -> IntV:
    return IntV(n)


def tup(*elems: Value) -> TupV:
    return TupV(elems)


def vset(elems=()) -> SetV:
    return SetV(elems)


def vseq(elems=()) -> SeqV:
    return SeqV(elems)


EMPTY_SET = SetV(())
EMPTY_SEQ = SeqV(())


def _add_atoms(v, out: set) -> None:
    """Add every atom inside v to out.  v is a value, or any structure that
    keeps its parts in ``elems`` (the solver's partial values)."""
    if isinstance(v, Atom):
        out.add(v)
    else:
        for e in getattr(v, "elems", ()):
            _add_atoms(e, out)


def is_pair(v: Value) -> bool:
    return isinstance(v, TupV) and len(v.elems) == 2


def _need_addr(v: Value, what: str) -> Atom:
    """v, when it is an address atom; KindError naming what otherwise."""
    if not isinstance(v, Atom) or v.ns != "addr":
        raise KindError(f"{what} must be an address atom, got {v!r}")
    return v
