"""Kernel primitives over canonical element tuples.

Every function here works on tuples of value objects that carry a
precomputed structural key in ``_key`` (see values.py) and, for pairs, the
components in ``.elems``.  Set arguments are assumed deduplicated and
sorted by key; results preserve that form.  A pair's key orders pairs by
first component, then by second, so a relation's pairs with one first
component are contiguous.  A union or a difference bisects each element
of its shorter side into the longer one and copies the runs between them
by slicing, so removing one packet from a soup of hundreds compares a few
keys, not all of them.  kernel.py and values.py call these through the
module (``_backend.<name>``), so a wrapper set on a name here sees every
call from outside.
"""

from bisect import bisect_left
from operator import attrgetter

BACKEND_NAME = "python"
_KEY = attrgetter("_key")


def canon(elems):
    """Sort by structural key and drop duplicates."""
    items = sorted(elems, key=_KEY)
    out = []
    last = None
    for v in items:
        k = v._key
        if k != last:
            out.append(v)
            last = k
    return tuple(out)


def member(elems, v):
    """Binary search for v in a canonical element tuple."""
    k = v._key
    lo, hi = 0, len(elems)
    while lo < hi:
        mid = (lo + hi) // 2
        mk = elems[mid]._key
        if mk < k:
            lo = mid + 1
        elif mk > k:
            hi = mid
        else:
            return True
    return False


# Primitives call one another through these, so a wrapper on a public name sees outside calls only.
_canon = canon
_member = member


def _merge_shorter(short, longer, keep_short):
    """Union of two canonical tuples, short no longer than longer: each
    element of short is bisected into longer, and the runs of longer
    between them are copied by slicing.  On equal keys the element of short
    is kept when keep_short holds, else that of longer."""
    out = []
    lo, n = 0, len(longer)
    for v in short:
        k = v._key
        j = bisect_left(longer, k, lo, n, key=_KEY)
        out += longer[lo:j]
        if j < n and longer[j]._key == k:
            out.append(v if keep_short else longer[j])
            j += 1
        else:
            out.append(v)
        lo = j
    out += longer[lo:]
    return tuple(out)


def union(a, b):
    """Union of two canonical tuples; on equal keys the element of a is kept."""
    if len(a) <= len(b):
        return _merge_shorter(a, b, True)
    return _merge_shorter(b, a, False)


def difference(a, b):
    """Elements of a whose key is not in b, bisecting the shorter side into
    the other."""
    na = len(a)
    if len(b) >= na:
        return tuple(v for v in a if not _member(b, v))
    # cut each element of b out of a, copying the runs between by slicing
    out = []
    lo = 0
    for v in b:
        k = v._key
        j = bisect_left(a, k, lo, na, key=_KEY)
        out += a[lo:j]
        lo = j + 1 if j < na and a[j]._key == k else j
    out += a[lo:]
    return tuple(out)


def intersection(a, b):
    i = j = 0
    na, nb = len(a), len(b)
    out = []
    while i < na and j < nb:
        ka, kb = a[i]._key, b[j]._key
        if ka < kb:
            i += 1
        elif kb < ka:
            j += 1
        else:
            out.append(a[i])
            i += 1
            j += 1
    return tuple(out)


def _first_key(p):
    return p.elems[0]._key


def dom_elems(pairs):
    """First components of a canonical tuple of pairs.  Pairs sharing one
    are contiguous and sorted by it, so dropping repeats in a row suffices."""
    out = []
    last = None
    for p in pairs:
        x = p.elems[0]
        k = x._key
        if k != last:
            out.append(x)
            last = k
    return tuple(out)


def ran_elems(pairs):
    return _canon([p.elems[1] for p in pairs])


def override_elems(r_pairs, g_pairs):
    """Pairs of r whose key is outside dom g, plus all of g: one merge, which
    jumps by binary search over each run of r between two keys of g."""
    out = []
    i, n = 0, len(r_pairs)
    for q in g_pairs:
        k = q.elems[0]._key
        j = bisect_left(r_pairs, k, i, n, key=_first_key)
        out.extend(r_pairs[i:j])
        while j < n and r_pairs[j].elems[0]._key == k:
            j += 1
        out.append(q)
        i = j
    out.extend(r_pairs[i:])
    return tuple(out)


def dres_elems(d_elems, r_pairs):
    """Pairs of r whose key lies in the domain set d."""
    return tuple(p for p in r_pairs if _member(d_elems, p.elems[0]))


def lookup(pairs, x):
    """All second components paired with x (canonical order)."""
    k = x._key
    i, n = bisect_left(pairs, k, key=_first_key), len(pairs)
    out = []
    while i < n:
        a, b = pairs[i].elems
        if a._key != k:
            break
        out.append(b)
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
