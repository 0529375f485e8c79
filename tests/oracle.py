"""The tests' own universe of a sort: every ground value within a scope,
listed in full and in a fixed order, independently of the search.

Atoms come in index order (a1, a2, ..., within each namespace, namespaces
in the order of values.ENUMERABLE_NS), integers ascending, sets by
cardinality and then element order, with the elements sorted by value,
relations as sets of pairs, sequences by length and tuples and records as
products.  The search's candidate streams draw from part of this universe
in the same order; brute_force_sat ranges over all of it.
"""

import itertools

from setforge.errors import KindError
from setforge.universe import AnyS, AtomS, IntS, RecordS, RelS, SeqS, SetS, TupleS
from setforge.values import ENUMERABLE_NS, NS_PREFIX, Atom, IntV, SeqV, SetV, TupV


def scope_atoms(ns, scope):
    return [Atom(f"{NS_PREFIX[ns]}{i}", ns) for i in range(1, scope.atoms_per_namespace + 1)]


def enumerate_sort(sort, scope):
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
                yield SetV(combo)
    elif isinstance(sort, RelS):
        pairs = sorted(
            TupV((k, v))
            for k in enumerate_sort(sort.key, scope)
            for v in enumerate_sort(sort.val, scope)
        )
        for card in range(0, scope.max_set_card + 1):
            for combo in itertools.combinations(pairs, card):
                yield SetV(combo)
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
