"""Kernel primitives over canonical element tuples.

Every function here works on tuples of value objects that carry a
precomputed structural key in ``_key`` (see values.py) and, for pairs, the
components in ``.elems``.  Set arguments are assumed deduplicated and
sorted by key; results preserve that form.  A pair's key orders pairs by
first component, then by second, so a relation's pairs with one first
component are contiguous.  kernel.py and values.py call these through the
module (``_backend.<name>``), so a wrapper set on a name here sees every
call from outside.
"""

from bisect import bisect_left

BACKEND_NAME = "python"


def canon(elems):
    """Sort by structural key and drop duplicates."""
    items = sorted(elems, key=lambda v: v._key)
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


def union(a, b):
    """Merge two canonical tuples."""
    i = j = 0
    na, nb = len(a), len(b)
    out = []
    while i < na and j < nb:
        ka, kb = a[i]._key, b[j]._key
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def difference(a, b):
    i = j = 0
    na, nb = len(a), len(b)
    out = []
    while i < na and j < nb:
        ka, kb = a[i]._key, b[j]._key
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            j += 1
        else:
            i += 1
            j += 1
    out.extend(a[i:])
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
    return _canon([p.elems[0] for p in pairs])


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
