"""Span tracer that times setforge's modules from outside the program.

`Tracer.install()` replaces the public functions of each setforge module
(and the value constructors and kernel backend primitives) with wrappers
that record a span -- name, start, end, parent -- in compact in-memory
arrays.  The names are patched wherever a module imported them directly
(`solver.enumerate_sort`, `ttf.solve`, `goals.prove_implication`, ...), so
internal calls are seen too.  `Tracer.uninstall()` restores every
original, so untraced passes run the unmodified program.

A directly recursive call (`speclang.print_value` printing a nested value,
`universe.enumerate_sort` enumerating element sorts) records no span of
its own: only the outermost call is a span.  Counters that must be exact
(calls, values built, elements canonicalised) are kept beside the spans.

`summarise()` turns one traced pass into per-layer metrics: the self time
of a span is its duration minus the time its child spans cover, a layer's
self time is the sum over its spans, and the part of the pass no span
covers is reported as harness time.

Run as a script, the module runs the setforge command line under the
tracer and writes the pass summary to a JSON file:

    python perfbench/tracer.py OUT.json prove --goal checkpoint-pfun
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "speclang", "formula", "goals", "solver", "universe",
          "values", "kernel", "consensus", "evm", "ttf")

# The solver's other public names (resolve, unify, term_pval, holes_of) are
# its search internals, called millions of times; their time is the solver's
# own and is reported as solve self time.
_SOLVER_API = ("solve", "check_unsat", "prove_implication", "eval_ground_formula")
# One-line value predicates called once per element by kernel checks: a span
# would cost more than the call, so their time stays with the caller.
_UNTRACED = {"values.is_pair", "values.value_kind", "values.infer_namespace"}
_VALUE_CLASSES = ("SetV", "TupV", "SeqV")
_PARSE = ("parse_formula", "parse_term", "parse_value", "parse_file", "term_value")
_PRINT = ("print_value", "print_term", "print_constraint", "print_formula")

KERNEL_PRIMS = ("canon", "member", "union", "difference", "intersection", "dom_elems",
                "ran_elems", "override_elems", "dres_elems", "lookup", "is_pfun_elems")

# Every metric a traced pass reports, in output order.  Every count must
# repeat exactly on the same code and inputs.
COUNT_METRICS = (
    "speclang.parse.calls", "speclang.print.calls", "speclang.print.chars",
    "solver.solve.calls", "solver.verdict.sat", "solver.verdict.unsat",
    "solver.verdict.unknown", "solver.ground_evals",
    "universe.enumerate.calls", "universe.enumerated", "universe.sort_contains.calls",
    "values.setv.new", "values.tupv.new", "values.set_elems",
    "kernel.calls", "kernel.elems_in",
) + tuple(f"kernel.op.{p}" for p in KERNEL_PRIMS) + (
    "consensus.deliver.calls", "evm.checkpoint.calls", "ttf.conditions",
)
TIME_METRICS = (
    ("trace.wall_s", "harness.self_s") + tuple(f"{layer}.self_s" for layer in LAYERS) + (
        "speclang.parse.self_s", "speclang.print.self_s", "solver.solve.self_s",
        "solver.ground_eval.self_s", "solver.recheck.self_s")
)


class Tracer:
    """In-memory span recorder for one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list = []
        self.reset()

    def reset(self):
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: Counter = Counter()
        self.sat_solves: list[int] = []
        self._stack: list[int] = []

    # -- span recording ----------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _nested_in(self, nid: int) -> bool:
        return bool(self._stack) and self.name_id[self._stack[-1]] == nid

    def _wrap(self, layer: str, name: str, fn, hook=None):
        nid = self._intern(f"{layer}.{name}", layer)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._nested_in(nid):
                res = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, res, False)
                return res
            idx = tracer._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, res, idx)
            return res

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, layer: str, name: str, fn):
        """A generator does its work when resumed, so each resumption of the
        outermost generator is a span; inner (recursive) ones record none."""
        nid = self._intern(f"{layer}.{name}", layer)
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if tracer._nested_in(nid):
                return it
            tracer.counts[f"{layer}.enumerate.calls"] += 1
            return tracer._resumed(nid, it, f"{layer}.enumerated")

        traced.__wrapped__ = fn
        return traced

    def _resumed(self, nid, it, counter):
        while True:
            idx = self._open(nid)
            try:
                v = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts[counter] += 1
            yield v

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """(layer, name, function, hook) for every traced public function."""
        for layer in LAYERS:
            mod = importlib.import_module(f"setforge.{layer}")
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if (layer == "solver" and name not in _SOLVER_API) or f"{layer}.{name}" in _UNTRACED:
                    continue
                yield layer, name, fn, _HOOKS.get(f"{layer}.{name}")

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "setforge" or n.startswith("setforge."))]
        for layer, name, fn, hook in self._targets():
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(layer, name, fn)
            else:
                wrapper = self._wrap(layer, name, fn, hook)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapper)
        values = importlib.import_module("setforge.values")
        for cls_name in _VALUE_CLASSES:
            cls = getattr(values, cls_name)
            hook = _HOOKS.get(f"values.{cls_name}")
            self._patch(cls, "__init__", self._wrap("values", cls_name, cls.__init__, hook))
        self.parse_ids = {self._ids[f"speclang.{n}"] for n in _PARSE}
        self.print_ids = {self._ids[f"speclang.{n}"] for n in _PRINT}
        backend = importlib.import_module("setforge._backend")
        for prim in KERNEL_PRIMS:
            fn = getattr(backend, prim)
            self._patch(backend, prim, self._wrap("kernel", f"prim.{prim}", fn, _prim_hook(prim)))

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches = []

    # -- summary -----------------------------------------------------------

    def summarise(self, wall_s: float) -> dict:
        """Per-layer metrics of the recorded pass; wall_s is its traced wall time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        last_eval_child = {}
        eval_id = self._ids.get("solver.eval_ground_formula")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.name_id[i] == eval_id:
                    last_eval_child[p] = i
        own = [dur[i] - child[i] for i in range(n)]
        by_name = [0.0] * len(self.names)
        kernel_calls = 0
        for i in range(n):
            nid = self.name_id[i]
            by_name[nid] += own[i]
            if self.layer_of[nid] == "kernel":
                p = self.parent[i]
                if p < 0 or self.layer_of[self.name_id[p]] != "kernel":
                    kernel_calls += 1
        out = {k: 0.0 for k in TIME_METRICS}
        for nid, own_s in enumerate(by_name):
            out[f"{self.layer_of[nid]}.self_s"] += own_s
            if nid in self.print_ids:
                out["speclang.print.self_s"] += own_s
            elif nid in self.parse_ids:
                out["speclang.parse.self_s"] += own_s
        out["solver.solve.self_s"] = by_name[self._ids["solver.solve"]]
        out["solver.ground_eval.self_s"] = by_name[eval_id]
        out["solver.recheck.self_s"] = sum(
            own[last_eval_child[s]] for s in self.sat_solves if s in last_eval_child)
        out["trace.wall_s"] = wall_s
        out["harness.self_s"] = wall_s - sum(out[f"{layer}.self_s"] for layer in LAYERS)
        counts = {k: self.counts.get(k, 0) for k in COUNT_METRICS}
        counts["kernel.calls"] = kernel_calls
        out.update(counts)
        sat = out["ttf.satisfiable"] = self.counts.get("ttf.satisfiable", 0)
        out["ttf.satisfiable_ratio"] = sat / counts["ttf.conditions"] if counts["ttf.conditions"] else 0.0
        out["trace.spans"] = n
        return out

    def write_spans(self, path: str) -> None:
        """Tab-separated spans of the recorded pass: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.7f}"
                         f"\t{self.end[i] - t0:.7f}\t{self.parent[i]}\n")


# -- counters at the span boundaries ------------------------------------------------
# A hook gets (tracer, args, kwargs, result, span index or False when nested).


def _count(key):
    def hook(tr, args, kwargs, res, idx):
        tr.counts[key] += 1
    return hook


def _outermost(tr, idx, group) -> bool:
    """True when span idx is not inside another span of the same group."""
    if idx is False:
        return False
    p = tr.parent[idx]
    return p < 0 or tr.name_id[p] not in group


def _solve_hook(tr, args, kwargs, res, idx):
    tr.counts["solver.solve.calls"] += 1
    verdict = type(res).__name__.lower()
    tr.counts[f"solver.verdict.{verdict}"] += 1
    if verdict == "sat" and idx is not False:
        tr.sat_solves.append(idx)


def _parse_hook(tr, args, kwargs, res, idx):
    if _outermost(tr, idx, tr.parse_ids):
        tr.counts["speclang.parse.calls"] += 1


def _print_hook(tr, args, kwargs, res, idx):
    if _outermost(tr, idx, tr.print_ids):
        tr.counts["speclang.print.calls"] += 1
        tr.counts["speclang.print.chars"] += len(res)


def _setv_hook(tr, args, kwargs, res, idx):
    tr.counts["values.setv.new"] += 1
    canonical = args[2] if len(args) > 2 else kwargs.get("_canonical", False)
    if not canonical:
        tr.counts["values.set_elems"] += len(args[0].elems)


def _prune_hook(tr, args, kwargs, res, idx):
    tr.counts["ttf.conditions"] += len(res)
    tr.counts["ttf.satisfiable"] += sum(1 for c in res if c.satisfiable)


def _prim_hook(prim):
    key = f"kernel.op.{prim}"

    def hook(tr, args, kwargs, res, idx):
        tr.counts[key] += 1
        tr.counts["kernel.elems_in"] += sum(len(a) for a in args if isinstance(a, tuple))
    return hook


_HOOKS = {
    "solver.solve": _solve_hook,
    "solver.eval_ground_formula": _count("solver.ground_evals"),
    "universe.sort_contains": _count("universe.sort_contains.calls"),
    "values.SetV": _setv_hook,
    "values.TupV": _count("values.tupv.new"),
    "consensus.deliver_step": _count("consensus.deliver.calls"),
    "evm.checkpoint_state": _count("evm.checkpoint.calls"),
    "ttf.prune": _prune_hook,
}
_HOOKS.update({f"speclang.{n}": _parse_hook for n in _PARSE})
_HOOKS.update({f"speclang.{n}": _print_hook for n in _PRINT})


def _main(argv):
    """Run `setforge.cli.main(argv[1:])` traced; write the summary to argv[0]."""
    out_path, cli_args = argv[0], argv[1:]
    import setforge.cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = setforge.cli.main(cli_args)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    summary = tracer.summarise(wall)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
