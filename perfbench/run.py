"""setforge end-to-end benchmark.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  Each
workload runs in a fresh worker process (perfbench/worker.py) for the
given seconds, and at most one child process runs at a time.

--trace 0 reports the end-to-end metrics (wall_s, op_p50_ms, op_p90_ms,
setup_s, peak_rss_mb) from untraced passes.  --trace 1 runs two workers
with different hash seeds, each alternating untraced and traced passes,
and reports the per-layer metrics; the exact counts must agree across
every traced pass of both workers.  The run context and the samples go
to perfbench/out/; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = workloads.OUT_DIR
END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
CLI_LAYER = ("cli.start_ms", "cli.import_ms", "cli.command_ms")
RATIOS = ("ttf.satisfiable_ratio", "trace.overhead_ratio")
COUNTS = tracer.COUNT_METRICS + ("trace.spans",)


def per_layer_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {m: "ms" for m in CLI_LAYER}
    units.update({m: "count" for m in COUNTS})
    units.update({m: "s" for m in tracer.TIME_METRICS})
    units.update({m: "ratio" for m in RATIOS})
    return units


def _worker(job: dict, hash_seed: str | None) -> dict:
    env = workloads.child_env(job["root"])
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                       cwd=job["root"], env=env, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise RuntimeError(f"worker for {job['workload']} failed:\n{p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def per_op_medians(labels, seconds):
    """Each operation's median latency over the passes, in ms.

    Operations of one workload differ in size by up to 100x, so the pooled
    latencies have gaps; a percentile that falls in a gap jumps between
    its neighbours.  Percentiles over per-operation medians weigh every
    operation once and stay put."""
    by_label = {}
    for label, x in zip(labels, seconds):
        by_label.setdefault(label, []).append(x * 1000)
    return [statistics.median(v) for v in by_label.values()]


def _pct(values, q):
    """Value at quantile q (0..100) of the samples, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _context(root, name, seed, seconds, trace, sessions):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "setforge")
    for fn in sorted(os.listdir(src)):
        if fn.endswith((".py", ".pyx")):
            with open(os.path.join(src, fn), "rb") as fh:
                digest.update(fn.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = p.stdout.strip() or None
    backends = sorted({s["backend"] for s in sessions})
    calibration = [c for s in sessions for c in s["calibration_s"]]
    return {
        "workload": name, "why": workloads.WHY[name], "seed": seed,
        "seed_affects_inputs": workloads.SEED_AFFECTS_INPUTS[name],
        "seconds": seconds, "trace": trace, "backend": backends[0] if len(backends) == 1 else backends,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "calibration_ms": round(statistics.median(calibration) * 1000, 3),
        "calibration_samples": len(calibration),
    }


def end_to_end(name, s, raw=False):
    """(value, sample count) of every end-to-end metric of one untraced
    session; times at reference speed, or as measured with raw=True."""
    suffix = "_raw_s" if raw else "_s"
    op_ms = per_op_medians(s["op_labels"], s["op" + suffix])
    n_ops = len(s["op_labels"])
    rss_kb = s["children_peak_rss_kb"] if name == "cli" else s["peak_rss_kb"]
    return {
        "wall_s": (statistics.median(s["wall" + suffix]), len(s["wall" + suffix])),
        "op_p50_ms": (statistics.median(op_ms), n_ops),
        "op_p90_ms": (_pct(op_ms, 90), n_ops),
        "setup_s": (statistics.median(s["setup" + suffix]), len(s["setup" + suffix])),
        "peak_rss_mb": (rss_kb / 1024, 1),
    }


def per_layer(name, sessions):
    """(value, sample count) of every per-layer metric, and the exact counts
    that differed between traced passes."""
    layers = [summary for s in sessions for summary in s["layers"]]
    n = len(layers)
    out = {}
    start = [x for s in sessions for x in s["start_s"]]
    import_wall = [x for s in sessions for x in s["import_wall_s"]]
    out["cli.start_ms"] = (statistics.median(start) * 1000, len(start))
    out["cli.import_ms"] = ((statistics.median(import_wall) - statistics.median(start)) * 1000,
                            len(import_wall))
    labels = [x for s in sessions for x in s["op_labels"]] if name == "cli" else []
    commands = per_op_medians(labels, [x for s in sessions for x in s["op_s"]])
    out["cli.command_ms"] = (
        statistics.median(commands) - statistics.median(import_wall) * 1000 if commands else 0.0,
        len(labels))
    differing = []
    for m in COUNTS:
        values = [summary[m] for summary in layers]
        if len(set(values)) != 1:
            differing.append(f"{m}: {values}")
        out[m] = (values[0], n)
    for m in tracer.TIME_METRICS + ("ttf.satisfiable_ratio",):
        out[m] = (statistics.median(summary[m] for summary in layers), n)
    traced = [x for s in sessions for x in s["traced_wall_raw_s"]]
    plain = [x for s in sessions for x in s["wall_raw_s"]]
    out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), n)
    return out, differing


def run_workload(root, name, seed, seconds, trace):
    """Run one workload; returns (result line, full record)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    job = {"workload": name, "seed": seed, "root": root, "traced": bool(trace), "spans": None}
    problems, raw = [], {}
    if trace:
        half = max(1.0, seconds / 2)
        spans = os.path.join(OUT_DIR, f"spans-{name}.tsv")
        sessions = [_worker({**job, "seconds": half, "spans": spans}, "0"),
                    _worker({**job, "seconds": half}, "1")]
        metrics, differing = per_layer(name, sessions)
        problems += [f"exact count differs between traced passes: {d}" for d in differing]
        units = per_layer_units()
    else:
        sessions = [_worker({**job, "seconds": seconds}, None)]
        metrics = end_to_end(name, sessions[0])
        units = dict(END_TO_END)
        raw = {m: v for m, (v, _) in end_to_end(name, sessions[0], raw=True).items()}
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    problems += [e for s in sessions for e in s["errors"]]
    if len({s["backend"] for s in sessions}) != 1:
        problems.append("sessions ran on different kernel backends")
    context = _context(root, name, seed, seconds, trace, sessions)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
    }
    record = {"context": context, "result": result, "raw": raw,
              "samples": {m: n for m, (_, n) in metrics.items()},
              "problems": problems, "sessions": sessions}
    fn = f"{name}-seed{seed}-trace{int(bool(trace))}.json"
    with open(os.path.join(OUT_DIR, fn), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return result, record


def report(record) -> None:
    """Human-readable lines: context, then every metric with unit and sample count."""
    c, r = record["context"], record["result"]
    print(f"workload {c['workload']}  seed {c['seed']} (affects inputs: "
          f"{'yes' if c['seed_affects_inputs'] else 'no'})  trace {c['trace']}  "
          f"backend {c['backend']}  python {c['python']}  nproc {c['nproc']}  "
          f"commit {c['commit'] or 'n/a'}  src {c['src_sha256']}  "
          f"calibration {c['calibration_ms']} ms (n={c['calibration_samples']})")
    print(f"  why: {c['why']}")
    for m, v in r["metrics"].items():
        as_measured = f"  as measured {record['raw'][m]:.6f}" if m in record["raw"] else ""
        print(f"  {m:<32} {v['value']:>14.6f} {v['unit']:<6} (n={record['samples'][m]}){as_measured}")
    ratio = r["failed"] / r["attempted"] if r["attempted"] else 0.0
    print(f"  {'failed_ratio':<32} {ratio:>14.6f} ratio  ({r['failed']} of {r['attempted']} operations)")
    for p in record["problems"]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    needed = [os.path.join("src", "setforge", "cli.py"), "scenarios"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"error: run from the setforge repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, record = run_workload(root, name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        report(record)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
