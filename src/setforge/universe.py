"""Enumeration scopes, sorts and membership in a sort's universe.

A Scope fixes finite bounds: how many atoms each namespace contributes, the
integer interval, the largest set cardinality and the longest sequence.
Sorts describe the shape of a variable's candidate space, and a sort's
universe is the finite set of its ground values within a scope.
sort_contains tests membership in it without listing it; the search draws
its candidates itself (solver._values), from the scope atoms of each
namespace, a1 to aN, which _scope_atom_stream names lazily.
"""

from __future__ import annotations

from functools import lru_cache

from ._frozen import Frozen
from .errors import KindError
from .values import ENUMERABLE_NS, NS_PREFIX, Atom, IntV, SeqV, SetV, TupV, Value


class Scope(Frozen):
    atoms_per_namespace: int = 3
    int_lo: int = 0
    int_hi: int = 8
    max_set_card: int = 3
    max_seq_len: int = 4

    def __post_init__(self):
        for name, bound in zip(self._fields, self._values):
            if type(bound) is not int:
                raise KindError(f"scope bound {name} must be an integer, got {bound!r}")
        if self.atoms_per_namespace < 0 or self.max_set_card < 0 or self.max_seq_len < 0:
            raise KindError("scope bounds must be non-negative")
        if self.int_lo > self.int_hi:
            raise KindError("empty integer interval in scope")

    def describe(self) -> str:
        return (
            f"atoms={self.atoms_per_namespace}, ints={self.int_lo}..{self.int_hi}, "
            f"card={self.max_set_card}, seq={self.max_seq_len}"
        )


DEFAULT_SCOPE = Scope()


class Sort(Frozen):
    """Base of the sorts below."""


class AtomS(Sort):
    ns: str

    def __post_init__(self):
        if self.ns not in ENUMERABLE_NS:
            raise KindError(f"namespace {self.ns!r} is not enumerable")


class IntS(Sort):
    pass


class AnyS(Sort):
    """Unsorted base universe: every enumerable atom plus every integer."""


def _need_sorts(owner, *parts):
    """KindError unless each of parts is a Sort: a sort is built only of
    sorts, so it always hashes and compares."""
    for part in parts:
        if not isinstance(part, Sort):
            raise KindError(f"{owner} component is not a sort: {part!r}")


class SetS(Sort):
    elem: Sort

    def __post_init__(self):
        _need_sorts("SetS", self.elem)


class RelS(Sort):
    """Binary relation; enumerated key-structure-first during search."""

    key: Sort
    val: Sort

    def __post_init__(self):
        _need_sorts("RelS", self.key, self.val)


class SeqS(Sort):
    elem: Sort

    def __post_init__(self):
        _need_sorts("SeqS", self.elem)


class TupleS(Sort):
    elems: tuple

    def __post_init__(self):
        if type(self.elems) is not tuple:
            raise KindError(f"tuple sort components must be a tuple, got {self.elems!r}")
        _need_sorts("TupleS", *self.elems)
        if len(self.elems) < 2:
            raise KindError("tuple sorts need at least 2 components")


class RecordS(Sort):
    """Fixed field set; fields given as a tuple of (name, sort) pairs."""

    fields: tuple

    def __post_init__(self):
        if type(self.fields) is not tuple or not all(
            type(f) is tuple and len(f) == 2 and type(f[0]) is str for f in self.fields
        ):
            raise KindError(f"record sort fields must be a tuple of (name, sort) pairs, got {self.fields!r}")
        _need_sorts("RecordS", *(sort for _, sort in self.fields))


@lru_cache(maxsize=1024)
def _scope_atom(ns: str, i: int) -> Atom:
    """The i-th scope atom of namespace ns, one object for the process: the
    search draws the same few atoms in every decision."""
    return Atom(f"{NS_PREFIX[ns]}{i}", ns)


def _scope_atom_stream(ns: str, scope: Scope, by_value: bool):
    """The scope atoms of namespace ns, a1 to aN, lazily, in index order or
    in value order, which is the order of the decimal names: a1, a10, a100,
    ..., a2."""
    count = scope.atoms_per_namespace
    i = 1
    for _ in range(count):
        yield _scope_atom(ns, i)
        if not by_value:
            i += 1
        elif i * 10 <= count:
            i *= 10
        else:
            # the next name that is not an extension of i's
            while i % 10 == 9 or i + 1 > count:
                i //= 10
            i += 1


def _scope_index(v, ns: str, scope: Scope) -> int:
    """The index of v among the scope atoms of namespace ns, a1 to aN, from
    1, or 0 when v is none of them; found without listing them."""
    if not isinstance(v, Atom) or v.ns != ns:
        return 0
    # only the scope atoms' names: no zero padding, ASCII digits
    prefix = NS_PREFIX[ns]
    suffix = v.name[len(prefix):]
    if not (
        v.name.startswith(prefix)
        and suffix.isascii()
        and suffix.isdigit()
        and not suffix.startswith("0")
    ):
        return 0
    i = int(suffix)
    return i if i <= scope.atoms_per_namespace else 0


def sort_contains(sort: Sort, v, scope: Scope) -> bool:
    """Membership in the sort's universe within the scope, without listing it."""
    if not isinstance(v, Value):
        return False
    if isinstance(sort, AtomS):
        return _scope_index(v, sort.ns, scope) > 0
    if isinstance(sort, IntS):
        return isinstance(v, IntV) and scope.int_lo <= v.n <= scope.int_hi
    if isinstance(sort, AnyS):
        return any(
            sort_contains(AtomS(ns), v, scope) for ns in ENUMERABLE_NS
        ) or sort_contains(IntS(), v, scope)
    if isinstance(sort, SetS):
        return (
            isinstance(v, SetV)
            and len(v.elems) <= scope.max_set_card
            and all(sort_contains(sort.elem, e, scope) for e in v.elems)
        )
    if isinstance(sort, RelS):
        return (
            isinstance(v, SetV)
            and len(v.elems) <= scope.max_set_card
            and all(
                isinstance(e, TupV)
                and len(e.elems) == 2
                and sort_contains(sort.key, e.elems[0], scope)
                and sort_contains(sort.val, e.elems[1], scope)
                for e in v.elems
            )
        )
    if isinstance(sort, SeqS):
        return (
            isinstance(v, SeqV)
            and len(v.elems) <= scope.max_seq_len
            and all(sort_contains(sort.elem, e, scope) for e in v.elems)
        )
    if isinstance(sort, TupleS):
        return (
            isinstance(v, TupV)
            and len(v.elems) == len(sort.elems)
            and all(sort_contains(s, e, scope) for s, e in zip(sort.elems, v.elems))
        )
    if isinstance(sort, RecordS):
        if not isinstance(v, SetV) or len(v.elems) != len(sort.fields):
            return False
        want = dict(sort.fields)
        for e in v.elems:
            if not (isinstance(e, TupV) and len(e.elems) == 2):
                return False
            f = e.elems[0]
            if not isinstance(f, Atom) or f.ns != "field" or f.name not in want:
                return False
            if not sort_contains(want[f.name], e.elems[1], scope):
                return False
        return True
    raise KindError(f"cannot test membership for sort {sort!r}")
