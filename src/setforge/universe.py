"""Enumeration scopes and sorted value universes for bounded solving.

A Scope fixes finite bounds: how many atoms each namespace contributes, the
integer interval, the largest set cardinality and the longest sequence.
Sorts describe the shape of a variable's candidate space; every sort
enumerates to a finite, deterministically ordered stream of ground values
(atoms in namespace order, integers ascending, sets by cardinality then
element order, sequences by length then element order).
"""

from __future__ import annotations

import itertools

from ._frozen import Frozen
from .errors import KindError
from .values import ENUMERABLE_NS, NS_PREFIX, Atom, IntV, SeqV, SetV, TupV


class Scope(Frozen):
    atoms_per_namespace: int = 3
    int_lo: int = 0
    int_hi: int = 8
    max_set_card: int = 3
    max_seq_len: int = 4

    def __post_init__(self):
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


class SetS(Sort):
    elem: Sort


class RelS(Sort):
    """Binary relation; enumerated key-structure-first during search."""

    key: Sort
    val: Sort


class SeqS(Sort):
    elem: Sort


class TupleS(Sort):
    elems: tuple

    def __post_init__(self):
        if len(self.elems) < 2:
            raise KindError("tuple sorts need at least 2 components")


class RecordS(Sort):
    """Fixed field set; fields given as a tuple of (name, sort) pairs."""

    fields: tuple


def scope_atoms(ns: str, scope: Scope):
    prefix = NS_PREFIX[ns]
    return [Atom(f"{prefix}{i}", ns) for i in range(1, scope.atoms_per_namespace + 1)]


def enumerate_sort(sort: Sort, scope: Scope):
    """Lazy stream of all ground values of the sort, in the fixed order."""
    if isinstance(sort, AtomS):
        yield from scope_atoms(sort.ns, scope)
    elif isinstance(sort, IntS):
        for n in range(scope.int_lo, scope.int_hi + 1):
            yield IntV(n)
    elif isinstance(sort, AnyS):
        for ns in ENUMERABLE_NS:
            yield from scope_atoms(ns, scope)
        for n in range(scope.int_lo, scope.int_hi + 1):
            yield IntV(n)
    elif isinstance(sort, SetS):
        base = sorted(enumerate_sort(sort.elem, scope))
        for card in range(0, scope.max_set_card + 1):
            for combo in itertools.combinations(base, card):
                yield SetV(combo, _canonical=True)
    elif isinstance(sort, RelS):
        pairs = sorted(
            TupV((k, v))
            for k in enumerate_sort(sort.key, scope)
            for v in enumerate_sort(sort.val, scope)
        )
        for card in range(0, scope.max_set_card + 1):
            for combo in itertools.combinations(pairs, card):
                yield SetV(combo, _canonical=True)
    elif isinstance(sort, SeqS):
        base = list(enumerate_sort(sort.elem, scope))
        for ln in range(0, scope.max_seq_len + 1):
            for combo in itertools.product(base, repeat=ln):
                yield SeqV(combo)
    elif isinstance(sort, TupleS):
        streams = [list(enumerate_sort(s, scope)) for s in sort.elems]
        for combo in itertools.product(*streams):
            yield TupV(combo)
    elif isinstance(sort, RecordS):
        names = [f for f, _ in sort.fields]
        streams = [list(enumerate_sort(s, scope)) for _, s in sort.fields]
        for combo in itertools.product(*streams):
            yield SetV([TupV((Atom(f, "field"), v)) for f, v in zip(names, combo)])
    else:
        raise KindError(f"cannot enumerate sort {sort!r}")


def sort_contains(sort: Sort, v, scope: Scope) -> bool:
    """Membership in the sort's enumerated universe, without enumerating."""
    from .values import Value  # local import keeps the module cycle-free

    if not isinstance(v, Value):
        return False
    if isinstance(sort, AtomS):
        if not isinstance(v, Atom) or v.ns != sort.ns:
            return False
        # only the names scope_atoms generates: no zero padding, ASCII digits
        prefix = NS_PREFIX[sort.ns]
        suffix = v.name[len(prefix):]
        return (
            v.name.startswith(prefix)
            and suffix.isascii()
            and suffix.isdigit()
            and not suffix.startswith("0")
            and int(suffix) <= scope.atoms_per_namespace
        )
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
