"""What the benchmark's tracer (perfbench/tracer.py) relies on in the program.

The tracer wraps the kernel primitives on ``setforge._backend`` by the names
in its ``KERNEL_PRIMS``, and the benchmark records ``setforge.BACKEND_NAME``
with every run.  Its per-primitive counts are right only if kernel.py and
values.py call the primitives through that module and the primitives call
one another without going through the wrapped names.  It wraps the public
kernel functions the same way, so the solver must look them up on the
kernel module at each call.
"""

import ast
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import setforge
from setforge import _backend, _compile, kernel, solver
from setforge import consensus as CN
from setforge import evm as E
from setforge import speclang as S
from setforge.solver import eval_ground_formula
from setforge.values import atom, intv, tup, vseq, vset


def _kernel_prims():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.KERNEL_PRIMS


def test_backend_exposes_exactly_the_traced_primitives():
    public = {
        name for name, fn in vars(_backend).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == _backend.__name__
    }
    assert public == set(_kernel_prims())


def test_backend_name():
    assert setforge.BACKEND_NAME == "python"


def _count_calls(monkeypatch, module, names):
    """A Counter of the calls to each of names on module, made through it."""
    calls = Counter()

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def test_wrapped_primitives_see_the_calls_from_outside_only(monkeypatch):
    a1, a2 = atom("a1"), atom("a2")
    r = vset([tup(a1, intv(1)), tup(a2, intv(2))])
    g = vset([tup(a1, intv(3))])
    want = vset([tup(a1, intv(3)), tup(a2, intv(2))])
    calls = _count_calls(monkeypatch, _backend, ("override_elems", "canon"))

    assert kernel.override(r, g) == want
    assert calls == Counter(override_elems=1)
    vset([a2, a1, a2])
    assert calls == Counter(override_elems=1, canon=1)
    assert kernel.dom(r) == kernel.dom(want)
    assert calls["canon"] == 1


def test_the_ground_check_calls_kernel_functions_through_the_module(monkeypatch):
    formulas = [S.parse_formula(src) for src in (
        "un({a1},{a2},{a1,a2})", "disj({a1},{a2})", "ndisj({a1},{a2})",
        "pfun({[a1,1]})", "npfun({[a1,1]})",
    )]
    calls = _count_calls(monkeypatch, kernel, ("union", "disjoint", "is_pfun"))

    assert [eval_ground_formula(f, {}) for f in formulas] == [True, True, False, True, False]
    assert calls == Counter(union=1, disjoint=2, is_pfun=2)


def test_domain_membership_bisects_and_builds_no_domain(monkeypatch):
    calls = _count_calls(monkeypatch, _backend, ("lookup", "dom_elems"))
    a1, a2, this = atom("a1"), atom("a2"), atom("this")
    r = vset([tup(a1, intv(1)), tup(a2, intv(2))])
    assert kernel.in_dom(a1, r) and not kernel.in_dom(this, r)
    assert calls == Counter(lookup=2)

    prog = E.toprog(vset())
    w = E.make_world(vset([tup(a1, E.make_acc(0, 100, prog))]))
    for sender in (a1, a2):
        t = E.make_transaction(0, 10, 2, 0, prog, vseq(), sender, E.TT_CONTRACT_CREATION)
        E.transaction_validity(w, t)
    c = CN.init_conf(vset([this]))
    p = CN.make_packet(CN.ENV_ADDR, this, CN.addr_msg(vset([a1])))
    CN.deliver_step(CN.make_conf(CN.conf_delta(c), vset([p])), p)
    assert calls["dom_elems"] == 0


def test_the_solver_api_is_defined_in_the_solver_module():
    # the tracer wraps only functions whose __module__ is the layer's own
    for name in ("solve", "check_unsat", "prove_implication", "eval_ground_formula"):
        assert getattr(solver, name).__module__ == "setforge.solver", name


def test_the_compile_module_defines_no_public_function():
    public = [
        name for name, fn in vars(_compile).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == _compile.__name__
    ]
    assert public == []


def _module_level_private_names(tree):
    """(name, first line, last line) of each module-level function, class or
    assignment whose name is private but no dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_every_private_module_level_name_is_used():
    # a name, an attribute or an import mentions a name; one inside the
    # name's own definition (a recursive call) does not count
    defined = {}  # (file, name) -> line spans of its definitions
    mentions = {}  # name -> (file, line) of each mention
    for path in sorted(Path(setforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, first, last in _module_level_private_names(tree):
            defined.setdefault((path.name, name), []).append((first, last))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname]
            else:
                continue
            for name in names:
                mentions.setdefault(name, []).append((path.name, node.lineno))
    orphans = [
        f"{file}: {name}" for (file, name), spans in defined.items()
        if all(f == file and any(a <= line <= b for a, b in spans)
               for f, line in mentions.get(name, ()))
    ]
    assert orphans == []


def test_a_wrapper_on_the_ground_evaluator_sees_the_sat_recheck(monkeypatch):
    checked = []
    evaluate = solver.eval_ground_formula

    def wrapper(f, assignment, **kwargs):
        checked.append(dict(assignment))
        return evaluate(f, assignment, **kwargs)

    monkeypatch.setattr(solver, "eval_ground_formula", wrapper)
    r = solver.solve(S.parse_formula("in(X,{a1,a2}) & X neq a1"))
    assert isinstance(r, solver.Sat) and checked == [r.witness]
