"""Kernel primitives over a set's canonical elements and its key.

A set is held as two tuples: its elements, deduplicated and sorted by
structural key, and its own key ``(3, n, k1, ..., kn)``, where ki is the key
of element i (see values.py).  Element i's key is thus ``key[i + 2]``.
Every primitive takes each set operand as its elements and its key, and
every primitive that builds a set returns ``(elems, key)``, in that
canonical form.  A result never reads its element keys one by one from an
operand: it copies runs of an operand's elements by slicing, and the same
runs of the operand's key beside them.  Searches bisect a key in C with
``bisect_left(key, k, 2)``, not a Python key function.  A union, a
difference or an intersection bisects each element of its shorter side
into the longer one, so removing one packet from a soup of hundreds
compares a few keys, not all of them.

A pair's key is ``(2, 2, kx, ky)``, so pairs sort by first component, then
by second, and a relation's pairs with one first component are contiguous.
The probe ``(2, 2, kx)`` sorts just before the first of them.

kernel.py and values.py call these through the module
(``_backend.<name>``), and no primitive calls another, so a wrapper set on
a name here sees every call from outside.
"""

from bisect import bisect_left
from operator import attrgetter

BACKEND_NAME = "python"
_KEY = attrgetter("_key")


def _built(out, out_k):
    """(elems, key) of a canonical result: out is its element list, and
    out_k is [3, _, k1, ..., kn]."""
    out_k[1] = len(out)
    return tuple(out), tuple(out_k)


def _distinct(keyed):
    """(elems, key) of the (element, key) pairs of keyed, which come in key
    order: of a run of equal keys the first is kept."""
    out, out_k = [], [3, 0]
    last = None
    for v, k in keyed:
        if k != last:
            out.append(v)
            out_k.append(k)
            last = k
    return _built(out, out_k)


def canon(elems):
    """(elems, key) of the distinct elements in structural key order; of
    equal keys the first is kept."""
    items = sorted(elems, key=_KEY)
    return _distinct(zip(items, map(_KEY, items)))


def member(key, v):
    """Whether v is in the set whose key this is."""
    k = v._key
    i = bisect_left(key, k, 2)
    return i < len(key) and key[i] == k


def _merge_shorter(short, kshort, longer, klong, keep_short):
    """Union of two sets, short no longer than longer: each element of short
    is bisected into longer, and the runs of longer between them are copied
    by slicing.  On equal keys the element of short is kept when keep_short
    holds, else that of longer."""
    if not short:
        return longer, klong
    out, out_k = [], [3, 0]
    lo, n = 2, len(klong)
    for v, k in zip(short, kshort[2:]):
        j = bisect_left(klong, k, lo, n)
        out += longer[lo - 2:j - 2]
        out_k += klong[lo:j]
        if j < n and klong[j] == k:
            if not keep_short:
                v, k = longer[j - 2], klong[j]
            j += 1
        out.append(v)
        out_k.append(k)
        lo = j
    out += longer[lo - 2:]
    out_k += klong[lo:]
    return _built(out, out_k)


def union(a, ka, b, kb):
    """a ∪ b; on equal keys the element of a is kept."""
    if len(a) <= len(b):
        return _merge_shorter(a, ka, b, kb, True)
    return _merge_shorter(b, kb, a, ka, False)


def difference(a, ka, b, kb):
    """Elements of a whose key is not in b, bisecting the shorter side into
    the other."""
    out, out_k = [], [3, 0]
    if len(b) >= len(a):
        lo, n = 2, len(kb)
        for v, k in zip(a, ka[2:]):
            j = bisect_left(kb, k, lo, n)
            if j < n and kb[j] == k:
                j += 1
            else:
                out.append(v)
                out_k.append(k)
            lo = j
        return _built(out, out_k)
    # cut each element of b out of a, copying the runs between by slicing
    lo, n = 2, len(ka)
    for k in kb[2:]:
        j = bisect_left(ka, k, lo, n)
        out += a[lo - 2:j - 2]
        out_k += ka[lo:j]
        lo = j + 1 if j < n and ka[j] == k else j
    out += a[lo - 2:]
    out_k += ka[lo:]
    return _built(out, out_k)


def intersection(a, ka, b, kb):
    """Elements of a whose key is in b, bisecting the shorter side into the
    other."""
    out, out_k = [], [3, 0]
    if len(a) <= len(b):
        lo, n = 2, len(kb)
        for v, k in zip(a, ka[2:]):
            j = bisect_left(kb, k, lo, n)
            if j < n and kb[j] == k:
                out.append(v)
                out_k.append(k)
                j += 1
            lo = j
    else:
        lo, n = 2, len(ka)
        for k in kb[2:]:
            j = bisect_left(ka, k, lo, n)
            if j < n and ka[j] == k:
                out.append(a[j - 2])
                out_k.append(ka[j])
                j += 1
            lo = j
    return _built(out, out_k)


def dom_elems(pairs, key):
    """First components of a relation.  Pairs sharing one are contiguous and
    sorted by it, so dropping repeats in a row suffices."""
    return _distinct(zip([p.elems[0] for p in pairs], [pk[2] for pk in key[2:]]))


def ran_elems(pairs, key):
    """Second components of a relation.  A pair's key ends with the key of
    its second component, so they are sorted by that."""
    seconds = [pk[3] for pk in key[2:]]
    order = sorted(range(len(seconds)), key=seconds.__getitem__)
    return _distinct(zip([pairs[i].elems[1] for i in order], [seconds[i] for i in order]))


def _run_end(key, i, k):
    """The index past the run of pairs from key[i] on whose first component
    has the key k."""
    n = len(key)
    while i < n and key[i][2] == k:
        i += 1
    return i


def override_elems(r_pairs, r_key, g_pairs, g_key):
    """Pairs of r whose first component is outside dom g, plus all of g: one
    merge, which jumps by binary search over each run of r between two first
    components of g."""
    out, out_k = [], [3, 0]
    i, n = 2, len(r_key)
    for q, qk in zip(g_pairs, g_key[2:]):
        k = qk[2]
        j = bisect_left(r_key, (2, 2, k), i, n)
        out += r_pairs[i - 2:j - 2]
        out_k += r_key[i:j]
        out.append(q)
        out_k.append(qk)
        i = _run_end(r_key, j, k)
    out += r_pairs[i - 2:]
    out_k += r_key[i:]
    return _built(out, out_k)


def dres_elems(d_key, r_pairs, r_key):
    """Pairs of r whose first component lies in the set with key d_key: each
    pair's first component is bisected into d_key."""
    out, out_k = [], [3, 0]
    lo, n = 2, len(d_key)
    for p, pk in zip(r_pairs, r_key[2:]):
        k = pk[2]
        j = bisect_left(d_key, k, lo, n)
        if j < n and d_key[j] == k:
            out.append(p)
            out_k.append(pk)
        lo = j
    return _built(out, out_k)


def lookup(pairs, key, x):
    """All second components paired with x (canonical order)."""
    k = x._key
    i, n = bisect_left(key, (2, 2, k), 2), len(key)
    out = []
    while i < n and key[i][2] == k:
        out.append(pairs[i - 2].elems[1])
        i += 1
    return tuple(out)


def is_pfun_elems(pairs):
    """True iff no two pairs share a first component.  Pairs sharing one
    are contiguous, so comparing neighbours suffices."""
    prev = None
    for p in pairs:
        k = p.elems[0]._key
        if k == prev:
            return False
        prev = k
    return True
