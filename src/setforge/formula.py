"""Constraint-formula representation.

A Formula is a disjunction of conjunctions of atomic constraints over
terms; the common case is a single conjunction, and disjunction enters
through negation or through explicitly disjunctive definitions.  Record
patterns are set-extension terms whose elements are (field-atom, value)
pairs, so one term shape covers sets, relations and records uniformly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import FormulaError
from .values import Value, _add_atoms


class Term:
    __slots__ = ()


class Lit(Term):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        if not isinstance(value, Value):
            raise FormulaError(f"Lit needs a ground Value, got {value!r}")
        self.value = value

    def __repr__(self):
        return f"Lit({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Lit) and self.value == other.value

    def __hash__(self):
        return hash(("Lit", self.value))


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise FormulaError(f"variable name must be a non-empty str, got {name!r}")
        self.name = name

    def __repr__(self):
        return f"Var({self.name})"

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return hash(("Var", self.name))


class TupT(Term):
    """Tuple term; constructor applications like addrMsg(X) are tuples whose
    first component is the constructor atom."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        elems = tuple(elems)
        if len(elems) < 2:
            raise FormulaError("tuple terms need at least 2 components")
        self.elems = elems

    def __repr__(self):
        return f"TupT{self.elems!r}"

    def __eq__(self, other):
        return isinstance(other, TupT) and self.elems == other.elems

    def __hash__(self):
        return hash(("TupT", self.elems))


class SeqT(Term):
    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = tuple(elems)

    def __repr__(self):
        return f"SeqT{self.elems!r}"

    def __eq__(self, other):
        return isinstance(other, SeqT) and self.elems == other.elems

    def __hash__(self):
        return hash(("SeqT", self.elems))


class SetT(Term):
    """Set extension {e1,...,ek} or open extension {e1,...,ek / Tail}."""

    __slots__ = ("elems", "tail")

    def __init__(self, elems, tail: Term | None = None):
        self.elems = tuple(elems)
        self.tail = tail
        if tail is not None and not self.elems:
            raise FormulaError("open set extension needs at least one element")

    def __repr__(self):
        return f"SetT({self.elems!r}, tail={self.tail!r})"

    def __eq__(self, other):
        return isinstance(other, SetT) and self.elems == other.elems and self.tail == other.tail

    def __hash__(self):
        return hash(("SetT", self.elems, self.tail))


class RisT(Term):
    """Comprehension whose binder ranges over a finite set."""

    __slots__ = ("binder", "domain", "filter", "pattern")

    def __init__(self, binder: str, domain: Term, filter: "Formula", pattern: Term):
        if not isinstance(binder, str) or not binder:
            raise FormulaError(f"comprehension binder must be a non-empty name, got {binder!r}")
        if not isinstance(domain, Term) or not isinstance(pattern, Term):
            raise FormulaError(f"comprehension domain and pattern must be Terms, got {domain!r}, {pattern!r}")
        if not isinstance(filter, Formula):
            raise FormulaError(f"comprehension filter must be a Formula, got {filter!r}")
        self.binder = binder
        self.domain = domain
        self.filter = filter
        self.pattern = pattern

    def __repr__(self):
        return f"RisT({self.binder} in {self.domain!r}, {self.filter!r}, {self.pattern!r})"

    def __eq__(self, other):
        return (
            isinstance(other, RisT)
            and self.binder == other.binder
            and self.domain == other.domain
            and self.filter == other.filter
            and self.pattern == other.pattern
        )

    def __hash__(self):
        return hash(("RisT", self.binder, self.domain, self.filter, self.pattern))


# kind -> (arity, functional).  Functional kinds compute their last argument
# from the ground preceding ones; check kinds are pure tests.
KINDS = {
    "eq": (2, False),
    "neq": (2, False),
    "in": (2, False),
    "nin": (2, False),
    "un": (3, True),
    "diff": (3, True),
    "inters": (3, True),
    "disj": (2, False),
    "ndisj": (2, False),
    "subset": (2, False),
    "nsubset": (2, False),
    "dom": (2, True),
    "ran": (2, True),
    "apply": (3, True),
    "oplus": (3, True),
    "dres": (3, True),
    "pfun": (1, False),
    "npfun": (1, False),
    "seq_head": (2, True),
    "seq_tail": (2, True),
    "seq_concat": (3, True),
    "seq_nth": (3, True),
    "plus": (3, True),
    "minus": (3, True),
    "times": (3, True),
    "intdiv": (3, True),
    "le": (2, False),
    "lt": (2, False),
}

DUALS = {
    "eq": "neq",
    "neq": "eq",
    "in": "nin",
    "nin": "in",
    "disj": "ndisj",
    "ndisj": "disj",
    "subset": "nsubset",
    "nsubset": "subset",
    "pfun": "npfun",
    "npfun": "pfun",
}


class Constraint:
    """One atomic constraint.  ``_hash`` stays unset until the first
    ``hash(c)``, which stores it there, as a Value does: a compiled
    conjunct is looked up by its constraints on every solve."""

    __slots__ = ("kind", "args", "_hash")

    def __init__(self, kind: str, args):
        if kind not in KINDS:
            raise FormulaError(f"unknown constraint kind {kind!r}")
        args = tuple(args)
        arity = KINDS[kind][0]
        if len(args) != arity:
            raise FormulaError(f"{kind} takes {arity} arguments, got {len(args)}")
        for a in args:
            if not isinstance(a, Term):
                raise FormulaError(f"constraint argument is not a Term: {a!r}")
        self.kind = kind
        self.args = args

    def __repr__(self):
        return f"Constraint({self.kind}, {self.args!r})"

    def __eq__(self, other):
        return isinstance(other, Constraint) and self.kind == other.kind and self.args == other.args

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.kind, self.args))
            return h


def C(kind: str, *args: Term) -> Constraint:
    return Constraint(kind, args)


class Formula:
    """Disjunction of conjunctions.  No disjuncts means false; a single
    empty conjunct means true."""

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts):
        self.disjuncts = tuple(tuple(d) for d in disjuncts)
        for d in self.disjuncts:
            _need_constraints(d)
        _check_binders(self)

    def is_true(self):
        return any(len(d) == 0 for d in self.disjuncts)

    def is_false(self):
        return len(self.disjuncts) == 0

    def __repr__(self):
        return f"Formula({self.disjuncts!r})"

    def __eq__(self, other):
        return isinstance(other, Formula) and self.disjuncts == other.disjuncts

    def __hash__(self):
        return hash(self.disjuncts)


def _need_constraints(conjunct):
    for c in conjunct:
        if not isinstance(c, Constraint):
            raise FormulaError(f"not a Constraint: {c!r}")


def _formula_args(f: Formula):
    return [a for d in f.disjuncts for c in d for a in c.args]


def _scan(groups, binders=None, atoms=False):
    """One walk over each group of terms, giving per group (free names,
    atoms, sets): its free variable names in first-occurrence order, where
    an occurrence inside a comprehension whose binder it names does not
    count; with atoms, the set of atoms its literals name, comprehension
    filters and patterns included, else None; and the number of
    comprehensions and open extensions outside every filter and pattern.
    When binders is a set, (binder, outermost) is added to it for every
    comprehension met, outermost when it lies in no other comprehension,
    not even in another's domain.  A non-term raises FormulaError."""
    out = []
    top = frozenset()
    depth = 0  # the comprehensions around the term being walked

    def term(t, bound):
        nonlocal sets, depth
        kind = type(t)
        if kind is Var:
            if t.name not in bound:
                names[t.name] = None
        elif kind is Lit:
            if found is not None:
                _add_atoms(t.value, found)
        elif kind is TupT or kind is SeqT or kind is SetT:
            for e in t.elems:
                term(e, bound)
            if kind is SetT and t.tail is not None:
                sets += bound is top
                term(t.tail, bound)
        elif kind is RisT:
            sets += bound is top
            if binders is not None:
                binders.add((t.binder, not depth))
            depth += 1
            term(t.domain, bound)
            inner = bound | {t.binder}
            for a in _formula_args(t.filter):
                term(a, inner)
            term(t.pattern, inner)
            depth -= 1
        else:
            raise FormulaError(f"not a term: {t!r}")

    for group in groups:
        names = {}  # a dict keeps the order in which its keys were first set
        found = set() if atoms else None
        sets = 0
        for t in group:
            term(t, top)
        out.append((list(names), found, sets))
    return out


def free_vars(f: Formula) -> list:
    """Free variables in first-occurrence order."""
    return _scan([_formula_args(f)])[0][0]


def _binders_and_names(args):
    """The binders of the comprehensions in the terms args outside any
    other comprehension, as a set, and the names free in args."""
    binders = set()
    ((names, _, _),) = _scan([args], binders)
    return {b for b, outermost in binders if outermost}, names


def _refuse_clash(binders, names):
    clash = binders.intersection(names)
    if clash:
        raise FormulaError(f"comprehension binder shadows free variable(s): {sorted(clash)}")


def _check_binders(f: Formula):
    """Binder names of the comprehensions outside any other comprehension
    must not collide with variables that occur free."""
    _refuse_clash(*_binders_and_names(_formula_args(f)))


def _unchecked(disjuncts) -> Formula:
    """The Formula of a tuple of conjunct tuples, built without the checks
    that Formula() runs: the caller has run them or must not."""
    f = object.__new__(Formula)
    f.disjuncts = disjuncts
    return f


@lru_cache(maxsize=32)
def _body_binders(body):
    """_binders_and_names of a tuple of constraints, as frozensets, kept
    for the process: a transition body is checked with each of its test
    cases, and this scans it once."""
    binders, names = _binders_and_names([a for c in body for a in c.args])
    return frozenset(binders), frozenset(names)


def _conj_after(body: tuple, extra: tuple) -> Formula:
    """conj(body + extra), raising the FormulaError that conj would, while
    its binder check scans only extra on each call: the outermost binders
    and free names of the concatenation are the unions of those of its
    parts, and body's come from _body_binders."""
    constraints = body + extra
    _need_constraints(constraints)
    body_binders, body_names = _body_binders(body)
    binders, names = _binders_and_names([a for c in extra for a in c.args])
    _refuse_clash(body_binders.union(binders), body_names.union(names))
    return _unchecked((constraints,))


TRUE = Formula(((),))
FALSE = Formula(())


def conj(constraints) -> Formula:
    return Formula((tuple(constraints),))


def disj_of(formulas) -> Formula:
    out = []
    for f in formulas:
        out.extend(f.disjuncts)
    return Formula(out)


def conj_formulas(formulas) -> Formula:
    """Conjoin formulas, distributing over disjuncts (DNF)."""
    rows = [()]
    for f in formulas:
        rows = [r + d for r in rows for d in f.disjuncts]
    return Formula(rows)


def _fresh_names(prefix, used):
    """prefix1, prefix2, ..., skipping the names in used when they are drawn."""
    for i in itertools.count(1):
        name = f"{prefix}{i}"
        if name not in used:
            yield name


def negate_constraint(c: Constraint, used_names: set) -> list:
    """Negation of one atomic constraint, as a conjunction fragment."""
    if c.kind in DUALS:
        return [Constraint(DUALS[c.kind], c.args)]
    if c.kind == "le":
        return [Constraint("lt", (c.args[1], c.args[0]))]
    if c.kind == "lt":
        return [Constraint("le", (c.args[1], c.args[0]))]
    arity, functional = KINDS[c.kind]
    if functional:
        fresh = next(_fresh_names("_N", used_names))
        used_names.add(fresh)
        return [
            Constraint(c.kind, c.args[:-1] + (Var(fresh),)),
            Constraint("neq", (Var(fresh), c.args[-1])),
        ]
    raise FormulaError(f"constraint kind {c.kind!r} has no negation")


def negate(f: Formula) -> Formula:
    """Logical negation, distributed back into disjunction-of-conjunctions."""
    used = set(free_vars(f))
    per_disjunct = []
    for d in f.disjuncts:
        per_disjunct.append([negate_constraint(c, used) for c in d])
    rows = []
    for combo in itertools.product(*per_disjunct):
        row = []
        for fragment in combo:
            row.extend(fragment)
        rows.append(tuple(row))
    return Formula(rows)
