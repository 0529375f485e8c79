"""Partition-based test generation from transition formulas.

Each supported set operator carries a standard partition: a fixed case
analysis of its two operands.  Applying a partition to an operator
occurrence inside a transition yields raw test conditions (transition body
plus one case); the solver then keeps the satisfiable ones, whose witnesses
are ready-made test fixtures.
"""

from __future__ import annotations

from . import kernel
from ._frozen import Frozen
from .errors import SetforgeError
from .formula import C, Constraint, Formula, Lit, Term, Var, _conj_after
from .goals import Transition
from .solver import Sat, Unsat, solve
from .universe import DEFAULT_SCOPE, Scope
from .values import EMPTY_SET, SetV, Value

SUPPORTED_OPERATORS = ("oplus", "un", "diff")

_EMPTY = Lit(EMPTY_SET)


class PartitionCase(Frozen):
    index: int  # 1-based position in the standard table
    label: str

    def constraints(self, left: Term, right: Term, dl: Var, dr: Var, domains: bool):
        """Constraint list for this case over the occurrence's operands;
        dl/dr name the operand domains when the operator compares them."""
        i = self.index
        if i == 1:
            return [C("eq", left, _EMPTY), C("eq", right, _EMPTY)]
        if i == 2:
            return [C("eq", left, _EMPTY), C("neq", right, _EMPTY)]
        if i == 3:
            return [C("neq", left, _EMPTY), C("eq", right, _EMPTY)]
        base = [C("neq", left, _EMPTY), C("neq", right, _EMPTY)]
        if domains:
            base += [C("dom", left, dl), C("dom", right, dr)]
            a, b = dl, dr
        else:
            a, b = left, right
        if i == 4:
            return base + [C("eq", a, b)]
        if i == 5:
            return base + [C("subset", b, a), C("neq", b, a)]
        if i == 6:
            return base + [C("disj", a, b)]
        if i == 7:
            return base + [C("subset", a, b), C("neq", a, b)]
        if i == 8:
            return base + [C("ndisj", a, b), C("nsubset", b, a), C("nsubset", a, b)]
        raise SetforgeError(f"no case {i}")


def standard_partition(op: str):
    """The eight-case table for an operator; for the override the cases
    speak about operand domains, for union and difference about the
    operand sets themselves."""
    if op not in SUPPORTED_OPERATORS:
        raise SetforgeError(
            f"no standard partition for {op!r}; supported: {', '.join(SUPPORTED_OPERATORS)}"
        )
    l, r, dl, dr = ("R", "G", "dom R", "dom G") if op == "oplus" else ("A", "B", "A", "B")
    labels = [
        f"{l} = {{}}, {r} = {{}}",
        f"{l} = {{}}, {r} /= {{}}",
        f"{l} /= {{}}, {r} = {{}}",
        f"{l} /= {{}}, {r} /= {{}}, {dl} = {dr}",
        f"{l} /= {{}}, {r} /= {{}}, {dr} proper-subset {dl}",
        f"{l} /= {{}}, {r} /= {{}}, {dl} disjoint {dr}",
        f"{l} /= {{}}, {r} /= {{}}, {dl} proper-subset {dr}",
        f"{l} /= {{}}, {r} /= {{}}, {dl} overlaps {dr}, neither contains the other",
    ]
    return [PartitionCase(i + 1, lab) for i, lab in enumerate(labels)]


def case_holds(op: str, index: int, a: Value, b: Value) -> bool:
    """Direct kernel evaluation of one case on ground operands; this is the
    oracle the partition's exclusivity and exhaustiveness are checked
    against, independent of the solver."""
    if op not in SUPPORTED_OPERATORS:
        raise SetforgeError(f"unsupported operator {op!r}")
    if not isinstance(a, SetV) or not isinstance(b, SetV):
        raise SetforgeError("case_holds needs ground sets")
    if index == 1:
        return len(a.elems) == 0 and len(b.elems) == 0
    if index == 2:
        return len(a.elems) == 0 and len(b.elems) != 0
    if index == 3:
        return len(a.elems) != 0 and len(b.elems) == 0
    if len(a.elems) == 0 or len(b.elems) == 0:
        return False
    da, db = (kernel.dom(a), kernel.dom(b)) if op == "oplus" else (a, b)
    if index == 4:
        return da == db
    if index == 5:
        return kernel.subset(db, da) and db != da
    if index == 6:
        return kernel.disjoint(da, db)
    if index == 7:
        return kernel.subset(da, db) and da != db
    if index == 8:
        return (
            not kernel.disjoint(da, db)
            and not kernel.subset(db, da)
            and not kernel.subset(da, db)
        )
    raise SetforgeError(f"no case {index}")


class OperatorOccurrence(Frozen):
    transition: str
    constraint_index: int  # position in the transition body
    ordinal: int  # 1-based among occurrences of the same operator
    operator: str
    left: Term
    right: Term


def _body_constraints(t: Transition):
    if len(t.body.disjuncts) != 1:
        raise SetforgeError("partition instantiation needs a conjunctive transition body")
    return t.body.disjuncts[0]


def find_occurrences(t: Transition, op: str | None = None):
    """Occurrences of partitionable operators in a transition body."""
    out = []
    counts = {}
    for idx, c in enumerate(_body_constraints(t)):
        if c.kind in SUPPORTED_OPERATORS and (op is None or c.kind == op):
            counts[c.kind] = counts.get(c.kind, 0) + 1
            out.append(
                OperatorOccurrence(t.name, idx, counts[c.kind], c.kind, c.args[0], c.args[1])
            )
    return out


class TestCondition(Frozen):
    transition: str
    occurrence: OperatorOccurrence
    case: PartitionCase
    case_constraints: tuple
    body: tuple
    sorts: dict
    status: tuple = None  # ("satisfiable", witness) | ("infeasible", None) | ("unknown", reason)

    @property
    def formula(self) -> Formula:
        """The conjunction of the body and the case constraints.  Its
        binder check scans the body once per body and each condition's
        case constraints on every call (formula._conj_after), and raises
        the FormulaError that the full check raises."""
        return _conj_after(self.body, self.case_constraints)

    @property
    def satisfiable(self):
        return self.status is not None and self.status[0] == "satisfiable"

    @property
    def witness(self):
        return self.status[1] if self.satisfiable else None


def instantiate_partition(occ: OperatorOccurrence, t: Transition):
    """One raw test condition per partition case, operands substituted."""
    if t.name != occ.transition:
        raise SetforgeError("occurrence does not belong to this transition")
    body = _body_constraints(t)
    if not (0 <= occ.constraint_index < len(body)):
        raise SetforgeError(f"no constraint at index {occ.constraint_index}")
    found = body[occ.constraint_index]
    if found.kind != occ.operator:
        raise SetforgeError(
            f"constraint at index {occ.constraint_index} is {found.kind}, not {occ.operator}"
        )
    dl = Var(f"_DomL{occ.constraint_index}")
    dr = Var(f"_DomR{occ.constraint_index}")
    out = []
    for case in standard_partition(occ.operator):
        cs = case.constraints(occ.left, occ.right, dl, dr, domains=occ.operator == "oplus")
        out.append(
            TestCondition(
                transition=t.name,
                occurrence=occ,
                case=case,
                case_constraints=tuple(cs),
                body=body,
                sorts=dict(t.sorts),
            )
        )
    return out


def prune(conds, scope: Scope = DEFAULT_SCOPE, budget=None):
    """Decide each condition within the scope; order is preserved and
    undecided conditions stay in the output marked unknown."""
    out = []
    for cond in conds:
        r = solve(cond.formula, scope, sorts=cond.sorts, budget=budget)
        if isinstance(r, Sat):
            status = ("satisfiable", r.witness)
        elif isinstance(r, Unsat):
            status = ("infeasible", None)
        else:
            status = ("unknown", r.reason)
        out.append(cond.replace(status=status))
    return out


def combine(per_occurrence, scope: Scope = DEFAULT_SCOPE, budget=None):
    """Cross-product conjunction of one condition per occurrence list, then
    pruning; infeasible combinations are discarded."""
    lists = [list(conds) for conds in per_occurrence]
    if not lists:
        raise SetforgeError("combine needs at least one occurrence list")
    combos = [()]
    for conds in lists:
        combos = [row + (c,) for row in combos for c in conds]
    merged = []
    for row in combos:
        first = row[0]
        case_cs = []
        sorts = {}
        labels = []
        for c in row:
            if c.body != first.body:
                raise SetforgeError("combine needs conditions over one transition body")
            case_cs.extend(c.case_constraints)
            sorts.update(c.sorts)
            labels.append(c.case.label)
        merged.append(
            TestCondition(
                transition=first.transition,
                occurrence=first.occurrence,
                case=PartitionCase(0, " AND ".join(labels)),
                case_constraints=tuple(case_cs),
                body=first.body,
                sorts=sorts,
            )
        )
    pruned = prune(merged, scope, budget)
    return [c for c in pruned if c.satisfiable or c.status[0] == "unknown"]


def derive_test_case(cond: TestCondition, t: Transition):
    """The stored witness, restricted to the before-state and input
    variables: a ground fixture for the implementation under test."""
    if not cond.satisfiable:
        raise SetforgeError(f"condition is not satisfiable: {cond.case.label!r}")
    return {v: cond.witness[v] for v in t.fixture_vars() if v in cond.witness}
