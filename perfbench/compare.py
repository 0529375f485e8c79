"""Compare two sets of benchmark records of one workload.

    python3 perfbench/compare.py --base perfbench/out/A*.json --new perfbench/out/B*.json

Each record is a file run.py wrote to perfbench/out/.  For every metric the
script prints the median of each side, the change, and, for end-to-end
metrics, whether the change stays within the bound BENCHMARK.json fixes.
It refuses (exit 2) to compare records of different workloads or trace
modes, or records taken on different kernel backends: their times measure
different programs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(paths):
    records = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    for key in ("backend", "workload", "trace"):
        seen = {json.dumps(r["context"][key]) for r in base + new}
        if len(seen) != 1:
            print(f"refusing to compare: records differ in {key}: {', '.join(sorted(seen))}",
                  file=sys.stderr)
            return 2
    bounds = {}
    spec = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    ctx = base[0]["context"]
    print(f"workload {ctx['workload']}  trace {ctx['trace']}  backend {ctx['backend']}  "
          f"base n={len(base)}  new n={len(new)}")
    worse = 0
    for m, first in base[0]["result"]["metrics"].items():
        b = statistics.median(r["result"]["metrics"][m]["value"] for r in base)
        n = statistics.median(r["result"]["metrics"][m]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        verdict = ""
        if m in bounds:
            lower = bounds[m]["better"] == "lower"
            regress = change if lower else -change
            verdict = "worse beyond bound" if regress > bounds[m]["bound"] else "within bound"
            worse += regress > bounds[m]["bound"]
        print(f"  {m:<32} {b:>14.6f} -> {n:>14.6f} {first['unit']:<6} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
