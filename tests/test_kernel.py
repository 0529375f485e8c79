import itertools
import sys

import pytest
from hypothesis import given

from conftest import values_st
from test_simulate_oracle import _check_pass
from setforge import _backend
from setforge import kernel as K
from setforge.errors import (
    AmbiguousApplicationError,
    KindError,
    MissingFieldError,
    OutsideDomainError,
    RangeError,
)
from setforge.solver import solve
from setforge.speclang import parse_formula
from setforge.universe import AtomS, Scope, SetS
from setforge.values import EMPTY_SET, Atom, IntV, SetV, atom, intv, is_pair, tup, vseq, vset

a1, a2, a3 = atom("a1"), atom("a2"), atom("a3")
s_, t_, acc1 = atom("s"), atom("t"), atom("acc1")
AS = atom("as")


def rel(*pairs):
    return vset([tup(x, y) for x, y in pairs])


# -- kernel primitives against definitional oracles -------------------------------


def _canonical(elems):
    """True iff elems is a tuple strictly ascending by structural key."""
    return isinstance(elems, tuple) and all(
        x._key < y._key for x, y in zip(elems, elems[1:]))


def _dense_relation(gen, keys):
    """A relation over a few first components: most keys carry several
    pairs, so it is seldom a function."""
    return SetV([tup(gen.rng.choice(keys), gen.value(1)) for _ in range(gen.rng.randrange(0, 9))])


def test_backend_primitives(gen):
    for _ in range(200):
        a = gen.value_set()
        b = gen.value_set()
        assert _backend.canon(list(a.elems) + list(a.elems)) == (a.elems, a._key)
        assert _canonical(a.elems)
        args = (a.elems, a._key, b.elems, b._key)
        assert set(_backend.union(*args)[0]) == set(a.elems) | set(b.elems)
        assert set(_backend.difference(*args)[0]) == set(a.elems) - set(b.elems)
        assert set(_backend.intersection(*args)[0]) == set(a.elems) & set(b.elems)
        for v in list(a.elems) + list(b.elems):
            assert _backend.member(a._key, v) == (v in set(a.elems))
        keys = [gen.value(1) for _ in range(3)]
        for r, g in ((gen.relation(), gen.relation()),
                     (_dense_relation(gen, keys), _dense_relation(gen, keys))):
            pairs = [p.elems for p in r.elems]
            dom_r = _backend.dom_elems(r.elems, r._key)[0]
            assert _canonical(dom_r) and set(dom_r) == {x for x, _ in pairs}
            ran_r = _backend.ran_elems(r.elems, r._key)[0]
            assert _canonical(ran_r) and set(ran_r) == {y for _, y in pairs}
            assert _backend.is_pfun_elems(r.elems) == (len({x for x, _ in pairs}) == len(pairs))
            g_dom = {p.elems[0] for p in g.elems}
            o = _backend.override_elems(r.elems, r._key, g.elems, g._key)[0]
            assert _canonical(o)
            assert set(o) == {p for p in r.elems if p.elems[0] not in g_dom} | set(g.elems)
            d = vset(gen.rng.sample(keys, gen.rng.randrange(0, 4)) + [gen.base()])
            dr = _backend.dres_elems(d._key, r.elems, r._key)[0]
            assert _canonical(dr) and set(dr) == {p for p in r.elems if p.elems[0] in set(d.elems)}
            for x in keys + [gen.base()] + [x for x, _ in pairs]:
                hits = _backend.lookup(r.elems, r._key, x)
                assert _canonical(hits) and set(hits) == {y for k, y in pairs if k == x}


# -- union / difference ------------------------------------------------------------


def test_union_examples():
    assert K.union(EMPTY_SET, EMPTY_SET) == EMPTY_SET
    assert K.union(vset([a1]), vset([a1, a2])) == vset([a1, a2])
    assert K.union(vset([a1, a2]), vset([a1, a3])) == vset([a1, a2, a3])


def test_difference_examples():
    assert K.difference(vset([a1, a3]), vset([a1, a2])) == vset([a3])
    x = vset([a1, a3])
    assert K.difference(x, EMPTY_SET) == x
    assert K.difference(EMPTY_SET, x) == EMPTY_SET


def test_set_ops_reject_non_sets():
    with pytest.raises(KindError):
        K.union(a1, EMPTY_SET)
    with pytest.raises(KindError):
        K.difference(EMPTY_SET, intv(3))


# -- relations ----------------------------------------------------------------------


def test_dom_examples():
    assert K.dom(EMPTY_SET) == EMPTY_SET
    assert K.dom(rel((s_, acc1))) == vset([s_])
    assert K.dom(rel((atom("a"), intv(1)), (atom("a"), intv(2)), (atom("b"), intv(3)))) == vset(
        [atom("a"), atom("b")]
    )


def test_dom_rejects_non_pairs():
    with pytest.raises(KindError):
        K.dom(vset([a1]))
    with pytest.raises(KindError):
        K.dom(vset([tup(a1, a2, a3)]))


def test_override_examples():
    A0, A1, B = atom("u1"), atom("u2"), atom("u3")
    assert K.override(EMPTY_SET, EMPTY_SET) == EMPTY_SET
    assert K.override(rel((s_, A0)), rel((s_, A1))) == rel((s_, A1))
    assert K.override(rel((s_, A0), (t_, B)), rel((s_, A1))) == rel((s_, A1), (t_, B))


def test_dres_examples():
    r = rel((intv(1), atom("u1")), (intv(3), atom("u3")))
    assert K.dres(EMPTY_SET, r) == EMPTY_SET
    assert K.dres(vset([intv(1), intv(2)]), r) == rel((intv(1), atom("u1")))
    m = rel(*[(intv(i), intv(i % 7)) for i in range(128)])
    window = vset([intv(i) for i in range(64)])
    assert K.dres(window, m) == rel(*[(intv(i), intv(i % 7)) for i in range(64)])


def test_apply_examples():
    f = rel((s_, acc1))
    assert K.apply(f, s_) == acc1
    with pytest.raises(OutsideDomainError):
        K.apply(f, t_)
    accmap = rel((a1, atom("u1")), (a2, atom("u2")))
    assert K.apply(accmap, a2) == atom("u2")
    with pytest.raises(AmbiguousApplicationError):
        K.apply(rel((s_, acc1), (s_, atom("u9"))), s_)


def test_is_pfun_examples():
    assert K.is_pfun(EMPTY_SET)
    assert K.is_pfun(rel((atom("a"), intv(1)), (atom("b"), intv(1))))
    assert not K.is_pfun(rel((atom("a"), intv(1)), (atom("a"), intv(2))))


def _outcome(fn, *args):
    """What fn(*args) answers or raises, for comparing two calls."""
    try:
        return ("ok", fn(*args))
    except Exception as e:
        return (type(e), str(e))


def test_remembered_facts_answer_like_the_first_call():
    non_pair = vset([tup(s_, acc1), a1])
    dup_key = rel((s_, acc1), (s_, atom("u9")))
    dup_field = vset([tup(AS, EMPTY_SET), tup(AS, vset([a1]))])
    calls = [
        (K.dom, non_pair), (K.apply, non_pair, s_), (K.is_pfun, non_pair),
        (K.record_get, non_pair, s_),
        (K.dom, dup_key), (K.apply, dup_key, s_), (K.is_pfun, dup_key),
        (K.record_get, dup_key, s_),
        (K.dom, dup_field), (K.apply, dup_field, AS), (K.is_pfun, dup_field),
        (K.record_get, dup_field, AS),
    ]
    for fn, *args in calls:
        first = _outcome(fn, *args)
        assert _outcome(fn, *args) == first, fn.__name__
    assert _outcome(K.dom, non_pair) == (
        KindError, f"dom needs a binary relation; offending element {a1!r}")
    assert _outcome(K.apply, dup_key, s_)[0] is AmbiguousApplicationError
    assert _outcome(K.record_get, dup_field, AS) == (
        KindError, "record_get: duplicate field atoms in record")
    assert not K.is_relation(non_pair) and K.is_relation(dup_key) and not K.is_relation(a1)
    # a function whose fact override recorded answers like a fresh copy
    known = rel((s_, acc1), (t_, acc1))
    K.is_pfun(known)
    built = K.override(known, rel((s_, atom("u9"))))
    for fn, *args in [(K.apply, s_), (K.is_pfun,), (K.record_get, s_), (K.dom,)]:
        assert _outcome(fn, built, *args) == _outcome(fn, vset(built.elems), *args)


def _fact_of_elems(s):
    """The fact s's elements give, computed without the kernel."""
    if not all(map(is_pair, s.elems)):
        return K._NOT_REL
    firsts = [p.elems[0]._key for p in s.elems]
    return K._PFUN if len(set(firsts)) == len(firsts) else K._NOT_PFUN


def test_override_records_only_facts_its_result_has(gen):
    keys = [gen.value(1) for _ in range(3)]
    draws = (lambda: vset(), lambda: rel((gen.rng.choice(keys), gen.value(1))),
             lambda: gen.relation(max_card=6), lambda: _dense_relation(gen, keys))
    seen = {"recorded": 0, "r only a relation": 0, "not a function": 0}
    for _ in range(400):
        r, g = gen.rng.choice(draws)(), gen.rng.choice(draws)()
        # leave r's fact at _REL in about a third of the cases
        for s in (r,) * (gen.rng.random() < 0.65) + (g,) * (gen.rng.random() < 0.5):
            K.is_pfun(s)
        o = K.override(r, g)
        seen["r only a relation"] += r._facts == K._REL
        if hasattr(o, "_facts"):
            seen["recorded"] += 1
            assert o._facts == _fact_of_elems(o) == K._PFUN
        assert K.is_pfun(o) == (_fact_of_elems(o) == K._PFUN)
        seen["not a function"] += not K.is_pfun(o)
        assert o._facts == _fact_of_elems(o)
    assert min(seen.values()) >= 50, seen


def test_apply_after_override_of_a_known_function_scans_nothing(monkeypatch):
    scans = []
    is_pfun_elems = _backend.is_pfun_elems
    monkeypatch.setattr(_backend, "is_pfun_elems",
                        lambda pairs: scans.append(len(pairs)) or is_pfun_elems(pairs))
    names = [atom(f"a{i}") for i in range(1, 301)]
    acc = rel(*[(a, intv(i)) for i, a in enumerate(names)])
    assert K.apply(acc, a1) == intv(0) and scans == [300]
    for i, a in enumerate(names[:20]):
        acc = K.override(acc, rel((a, intv(-i))))
        assert K.apply(acc, a) == intv(-i)
    acc = K.override(acc, acc)  # two known functions
    assert K.apply(acc, a2) == intv(-1) and K.is_pfun(acc)
    assert scans == [300]
    # r only known to be a relation: nothing recorded, so the first question scans
    dup = rel((a1, intv(0)), (a1, intv(1)), (a2, intv(0)))
    kept = K.override(dup, rel((a2, intv(5))))
    assert not hasattr(kept, "_facts") and not K.is_pfun(kept) and scans == [300, 3]
    with pytest.raises(AmbiguousApplicationError):
        K.apply(kept, a1)
    cured = K.override(dup, rel((a1, intv(5))))
    assert K.is_pfun(cured) and K.apply(cured, a1) == intv(5) and scans == [300, 3, 2]
    # a known function overridden by a relation of three pairs: nothing recorded
    one = rel((a1, intv(0)))
    assert K.is_pfun(one) and not K.is_pfun(K.override(one, dup))
    assert scans == [300, 3, 2, 1, 3]


def test_relation_then_function_question():
    f = rel((s_, acc1), (t_, acc1))
    assert K.dom(f) == vset([s_, t_])
    assert K.is_pfun(f)
    assert K.apply(f, t_) == acc1
    g = rel((s_, acc1), (s_, atom("u9")))
    assert K.ran(g) == vset([acc1, atom("u9")])
    assert not K.is_pfun(g)
    with pytest.raises(AmbiguousApplicationError):
        K.apply(g, s_)


# -- comprehension -------------------------------------------------------------------


def test_ris_examples():
    got = K.ris_eval(
        vset([a1, a2]), lambda a: True, lambda a: tup(atom("this"), a, atom("connectMsg"))
    )
    assert got == vset(
        [tup(atom("this"), a1, atom("connectMsg")), tup(atom("this"), a2, atom("connectMsg"))]
    )
    assert K.ris_eval(EMPTY_SET, lambda a: True, lambda a: a) == EMPTY_SET
    nums = vset([intv(1), intv(2), intv(3)])
    assert K.ris_eval(nums, lambda n: n.n > 1, lambda n: n) == vset([intv(2), intv(3)])


@given(values_st(max_leaves=8))
def test_ris_is_filter_map_dedupe(v):
    if not isinstance(v, SetV):
        v = vset([v])
    flt = lambda x: isinstance(x, type(v.elems[0])) if v.elems else True
    pat = lambda x: tup(x, intv(0))
    expect = SetV([pat(x) for x in v.elems if flt(x)])
    assert K.ris_eval(v, flt, pat) == expect


# -- sequences ------------------------------------------------------------------------


def test_stack_shuffle_example():
    s = vseq([intv(5), intv(0), intv(64), intv(7)])
    rest = K.seq_tail(K.seq_tail(K.seq_tail(s)))
    assert rest == vseq([intv(7)])
    assert K.seq_concat(vseq([intv(0)]), rest) == vseq([intv(0), intv(7)])


def test_seq_edges():
    s = vseq([a1])
    assert K.seq_concat(vseq(), s) == s
    assert K.seq_nth(vseq([intv(5), intv(0), intv(64)]), 2) == intv(0)
    with pytest.raises(RangeError):
        K.seq_tail(vseq())
    with pytest.raises(RangeError):
        K.seq_nth(s, 2)
    with pytest.raises(RangeError):
        K.seq_nth(s, 0)


# -- records ---------------------------------------------------------------------------


def test_record_examples():
    r = vset([tup(AS, EMPTY_SET), tup(atom("bf"), EMPTY_SET), tup(atom("tp"), EMPTY_SET)])
    assert K.record_get(r, AS) == EMPTY_SET
    r2 = K.record_set(r, AS, vset([a1, a2]))
    assert K.record_get(r2, AS) == vset([a1, a2])
    assert K.record_set(vset([tup(AS, EMPTY_SET)]), AS, vset([a1, a2])) == vset(
        [tup(AS, vset([a1, a2]))]
    )
    with pytest.raises(MissingFieldError):
        K.record_get(r, atom("acc"))


def test_record_field_error_names_the_first_non_atom_field():
    # atom keys sort first, so the first field that is no atom is named
    for r in (vset([tup(a1, intv(1)), tup(intv(5), intv(2))]),
              vset([tup(intv(5), intv(2)), tup(EMPTY_SET, intv(3))])):
        assert _outcome(K.record_get, r, a1) == (
            KindError, f"record_get: record field is not an atom: {IntV(5)!r}")
        assert _outcome(K.record_set, r, a1, intv(0)) == (
            KindError, f"record_set: record field is not an atom: {IntV(5)!r}")


def test_in_dom_agrees_with_dom():
    rels = [EMPTY_SET, rel((a1, intv(1))), rel((a1, intv(1)), (a1, intv(2)), (a3, a2)),
            vset([tup(intv(1), a1), tup(a2, a3), tup(vset([a1]), a1)])]
    for r in rels:
        for x in (a1, a2, a3, intv(1), vset([a1]), tup(a1, intv(1))):
            assert K.in_dom(x, r) is (x in K.dom(r)), (x, r)
    non_pair = vset([tup(s_, acc1), a1])
    assert _outcome(K.in_dom, s_, non_pair) == _outcome(K.dom, non_pair)
    assert _outcome(K.in_dom, s_, a1) == _outcome(K.dom, a1)


def test_record_set_preserves_other_fields(gen):
    for _ in range(50):
        fields = [atom("as"), atom("bf"), atom("tp")]
        r = vset([tup(f, gen.value(1)) for f in fields])
        v = gen.value(1)
        r2 = K.record_set(r, fields[0], v)
        assert K.record_get(r2, fields[0]) == v
        for f in fields[1:]:
            assert K.record_get(r2, f) == K.record_get(r, f)


# -- algebraic properties (brute force over a 3-atom universe) --------------------------


def _all_sets(universe, maxcard=None):
    maxcard = len(universe) if maxcard is None else maxcard
    for k in range(maxcard + 1):
        for combo in itertools.combinations(universe, k):
            yield vset(combo)


def test_set_algebra_brute_force():
    u = [a1, a2, a3]
    for A in _all_sets(u):
        for B in _all_sets(u):
            assert K.union(A, B) == K.union(B, A)
            assert K.subset(K.difference(A, B), A)
            assert K.disjoint(K.difference(A, B), B)


def test_override_laws_brute_force():
    pairs = [tup(a, v) for a in (a1, a2) for v in (intv(0), intv(1))]
    rels = [vset(c) for k in range(3) for c in itertools.combinations(pairs, k)]
    for R in rels:
        for G in rels:
            O = K.override(R, G)
            assert K.dom(O) == K.union(K.dom(R), K.dom(G))
            for x in K.dom(G):
                if K.is_pfun(G) and K.is_pfun(O):
                    assert K.apply(O, x) == K.apply(G, x)
            for x in K.difference(K.dom(R), K.dom(G)):
                if K.is_pfun(R) and K.is_pfun(O):
                    assert K.apply(O, x) == K.apply(R, x)
            if K.is_pfun(R) and K.is_pfun(G):
                assert K.is_pfun(O)


@given(values_st(max_leaves=8), values_st(max_leaves=8))
def test_union_difference_oracle(x, y):
    A = x if isinstance(x, SetV) else vset([x])
    B = y if isinstance(y, SetV) else vset([y])
    assert set(K.union(A, B).elems) == set(A.elems) | set(B.elems)
    assert set(K.difference(A, B).elems) == set(A.elems) - set(B.elems)
    assert set(K.intersection(A, B).elems) == set(A.elems) & set(B.elems)


# -- bisecting merges, the O(1) relation fact and dom: fast paths against models ---


def _plain_union(a, b):
    """Sorted, duplicate-free a + b; on equal keys the element of a, which
    the stable sort puts first."""
    return _backend.canon(list(a) + list(b))[0]


def _same_objects(x, y):
    return len(x) == len(y) and all(u is v for u, v in zip(x, y))


def _merge_cases(rng):
    """Pairs of sets: short and long sides, the short side first and
    second, equal sizes, empty sides, overlapping keys, and equal keys held
    by distinct objects."""
    pool = ([intv(i) for i in range(90)] + [atom(f"a{i}") for i in range(30)]
            + [tup(atom(f"a{i}"), intv(i % 4)) for i in range(30)])
    sizes = [0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 23, 24, 25, 40]
    for small in (0, 1, 2, 3):
        for large in sizes:
            for _ in range(3):
                a = SetV(rng.sample(pool, small))
                b = SetV(rng.sample(pool, large))
                yield a, b
                yield b, a
    for large in sizes:
        a = SetV(rng.sample(pool, large))
        twins = SetV([intv(v.n) if isinstance(v, IntV) else v for v in a.elems])
        yield a, a
        yield a, twins
        yield SetV(a.elems[::9]), twins
        yield twins, SetV(a.elems[::9])
        yield a, SetV(a.elems[::3])
        yield SetV(a.elems[1::4]), a


def test_union_and_difference_match_models_on_both_paths(gen):
    for a, b in _merge_cases(gen.rng):
        args = (a.elems, a._key, b.elems, b._key)
        (u, _), (d, _) = _backend.union(*args), _backend.difference(*args)
        a, b = a.elems, b.elems
        assert set(u) == set(a) | set(b)
        assert set(d) == set(a) - set(b)
        assert _same_objects(u, _plain_union(a, b))
        assert _same_objects(d, tuple(v for v in a if v not in set(b)))


def _mixed_pool():
    pairs = [tup(a1, a2), tup(a1, intv(0)), tup(intv(3), EMPTY_SET), tup(vset([a1]), a3)]
    others = [a1, a3, intv(-1), intv(2), tup(a1, a2, a3), tup(a1, a1, a1, a1),
              EMPTY_SET, vset([a1, a2]), vseq([]), vseq([a1, a2])]
    return pairs + others


def test_relation_fact_matches_every_element_a_pair(gen):
    pool = _mixed_pool()
    cases = [(tup(a1, a2), tup(a1, a2, a3)), (tup(a1, a2), a1), (intv(0), tup(a1, a2)),
             (tup(a1, a2), vset([a1])), (tup(a1, a2), vseq([a1, a2]))]
    for k in range(len(pool) + 1):
        cases += [gen.rng.sample(pool, k) for _ in range(20)]
    for elems in cases:
        s = vset(elems)
        fact = K._relation_fact(vset(elems)) != K._NOT_REL
        assert fact == all(map(is_pair, s.elems)), s
        assert K.is_relation(vset(elems)) == fact
    assert not K.is_relation(vset([tup(a1, a2), tup(a1, a2, a3)]))


def test_dom_elems_is_canon_of_first_components(gen):
    keys = [gen.value(1) for _ in range(4)]
    for _ in range(300):
        for r in (gen.relation(max_card=8), _dense_relation(gen, keys)):
            firsts = [p.elems[0] for p in r.elems]
            got, want = _backend.dom_elems(r.elems, r._key), _backend.canon(firsts)
            assert _same_objects(got[0], want[0]) and got[1] == want[1]
    accounts = rel(*[(atom(f"a{i:03d}"), intv(i)) for i in range(300)])
    assert _backend.dom_elems(accounts.elems, accounts._key)[0] == tuple(
        atom(f"a{i:03d}") for i in range(300))


# -- every set a kernel operation builds carries the key SetV would give it ------------


def _assert_keyed_like_a_fresh_set(s):
    """s has the key, and keeps the element objects, that SetV gives a new
    set of its own elements."""
    fresh = SetV(list(s.elems))
    assert type(s._key) is tuple and s._key == fresh._key, s
    assert _same_objects(s.elems, fresh.elems), s


def test_every_set_operation_builds_the_canonical_key(gen):
    """Results are assembled from slices of their operands' elements and
    keys, at bisected positions: an index off by the key's two-item head
    shows here as a key that no longer matches the elements."""
    for a, b in _merge_cases(gen.rng):
        for op in (K.union, K.difference, K.intersection):
            _assert_keyed_like_a_fresh_set(op(a, b))
    keys = [gen.value(1) for _ in range(3)]
    accounts = rel(*[(atom(f"a{i:03d}"), intv(i)) for i in range(300)])
    some = [atom(f"a{i:03d}") for i in (0, 1, 150, 298, 299)] + [atom("a1500"), atom("a999")]
    cases = [(accounts, rel(*[(x, intv(-1)) for x in sub]))
             for sub in ([], some[:1], some[2:3], some[3:5], some, [Atom("a", "addr")])]
    cases += [(accounts, accounts), (EMPTY_SET, accounts)]
    for _ in range(150):
        cases.append((gen.relation(), gen.relation()))
        cases.append((_dense_relation(gen, keys), _dense_relation(gen, keys)))
        cases.append((gen.relation(max_card=8), _dense_relation(gen, keys)))
    for r, g in cases:
        for s in (K.union(r, g), K.difference(r, g), K.intersection(r, g), K.override(r, g),
                  K.override(g, r), K.dom(r), K.ran(r), K.dres(K.dom(g), r), K.dres(K.dom(r), g)):
            _assert_keyed_like_a_fresh_set(s)
        for d in (vset(gen.rng.sample(keys, gen.rng.randrange(0, 4)) + [gen.base()]),
                  vset(some), vset(accounts.elems[:3])):
            _assert_keyed_like_a_fresh_set(K.dres(d, r))
    fields = [atom(f) for f in ("as", "bf", "tp", "nonce")]
    records = [accounts, EMPTY_SET] + [
        vset([tup(f, gen.value(1)) for f in gen.rng.sample(fields, gen.rng.randrange(0, 5))])
        for _ in range(100)]
    for r in records:
        for f in fields[:2] + some + [Atom("a", "addr")]:
            _assert_keyed_like_a_fresh_set(K.record_set(r, f, gen.value(1)))


def test_every_set_built_from_a_key_gets_the_canonical_key(monkeypatch):
    """SetV(elems, key) trusts its key; every one built during a simulate
    pass and two solves must be the key SetV(elems) computes."""
    real_init = SetV.__init__
    sites = set()

    def checked_init(self, elems=(), key=None):
        if key is not None:
            caller = sys._getframe(1)
            sites.add((caller.f_globals["__name__"], caller.f_code.co_name))
            assert isinstance(elems, tuple) and _canonical(elems), (caller.f_code.co_name, elems)
            assert key == (3, len(elems), *[e._key for e in elems]), caller.f_code.co_name
        real_init(self, elems, key)

    monkeypatch.setattr(SetV, "__init__", checked_init)
    _check_pass(1)
    scope = Scope(atoms_per_namespace=3, int_lo=0, int_hi=2, max_set_card=2)
    sorts = {"X": SetS(AtomS("addr")), "A": SetS(AtomS("addr")), "B": SetS(AtomS("addr"))}
    for src in ("X neq {} & subset(X,{a1,a2})", "un(A,B,{a1,a2,a3}) & A neq B & disj(A,B)"):
        solve(parse_formula(src), scope, sorts)
    assert {("setforge.kernel", name) for name in (
        "union", "difference", "override", "record_set")} <= sites, sites
