"""One measurement session of a workload, in a fresh process.

    python perfbench/worker.py '{"workload": "prove", "seed": 1, "seconds": 30,
                                 "traced": false, "root": ".", "spans": null}'

The session imports setforge (timing the import of setforge.cli), builds
the workload's inputs, then repeats until its time is used up: one fresh
`import setforge.cli` process (set-up time) between two calibration
probes, then one untraced pass.  A traced session also times a bare
interpreter start and follows each untraced pass with a traced one.

Times are kept raw and scaled to reference speed (see
workloads.Recorder).  The session prints one JSON line with every sample;
run.py turns samples into metrics.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_PROBE = ("import time; t = time.perf_counter(); import setforge.cli; "
                "print(time.perf_counter() - t)")
MIN_SETUP_SAMPLES = 5


def _child(argv, env, root):
    """Wall time and stdout of a child process that must succeed."""
    t0 = time.perf_counter()
    p = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} failed: {p.stderr.strip()}")
    return wall, p.stdout


def main(job: dict) -> dict:
    root = os.path.abspath(job["root"])
    t0 = time.perf_counter()
    import setforge.cli  # noqa: F401  (timed: the program's own set-up)
    import_s = time.perf_counter() - t0
    import setforge

    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    first_cal = workloads.calibration_s()
    name, traced = job["workload"], job["traced"]
    w = workloads.WORKLOADS[name](root, job["seed"])
    env = workloads.child_env(root)
    planned = workloads.planned_ops(name)
    tracer = tracing.Tracer()
    s = {"backend": setforge.BACKEND_NAME, "calibration_s": [first_cal],
         "setup_s": [import_s * workloads.CAL_REF_S / first_cal], "setup_raw_s": [import_s],
         "start_s": [], "import_wall_s": [], "wall_s": [], "wall_raw_s": [], "op_labels": [],
         "op_s": [], "op_raw_s": [], "attempted": 0, "failed": 0, "errors": [], "traced_wall_raw_s": [],
         "layers": []}

    def setup_probe():
        """Import setforge.cli in a fresh process, between two calibration probes."""
        rec = workloads.Recorder()
        rec.probe()
        t = time.perf_counter()
        wall, out = _child([sys.executable, "-c", IMPORT_PROBE], env, root)
        rec.probe()
        s["setup_raw_s"].append(float(out))
        s["setup_s"].append(float(out) * rec.factor(t, t + wall))
        s["import_wall_s"].append(rec.scaled(t, wall))
        if traced:
            t = time.perf_counter()
            wall = _child([sys.executable, "-c", "pass"], env, root)[0]
            rec.probe()
            s["start_s"].append(rec.scaled(t, wall))
        s["calibration_s"].extend(d for _, d in rec.probes)

    def one_pass(trace_it: bool):
        """Run a pass between two probes; returns (recorder, start, raw wall)."""
        rec = workloads.Recorder()
        rec.probe()
        p0 = time.perf_counter()
        if trace_it and isinstance(w, workloads.Cli):
            w.run_pass(rec, traced=True)
        elif trace_it:
            tracer.reset()
            tracer.install()
            try:
                w.run_pass(rec)
            finally:
                tracer.uninstall()
        else:
            w.run_pass(rec)
        wall = time.perf_counter() - p0
        rec.probe()
        s["calibration_s"].extend(d for _, d in rec.probes)
        oks = w.check(rec.ops)
        s["attempted"] += planned
        s["failed"] += planned - sum(oks)
        for op, ok in zip(rec.ops, oks):
            if not ok and len(s["errors"]) < 5:
                s["errors"].append(f"{op.label}: {op.error or 'wrong output'}")
        return rec, p0, wall

    deadline = time.perf_counter() + job["seconds"]
    while True:
        it0 = time.perf_counter()
        setup_probe()
        rec, p0, wall = one_pass(False)
        s["wall_raw_s"].append(wall - rec.probe_time(p0, wall))
        s["wall_s"].append(rec.scaled(p0, wall))
        s["op_labels"].extend(op.label for op in rec.ops)
        s["op_raw_s"].extend(op.seconds for op in rec.ops)
        s["op_s"].extend(rec.scaled(op.start, op.seconds) for op in rec.ops)
        if traced:
            rec, p0, wall = one_pass(True)
            raw = wall - rec.probe_time(p0, wall)
            s["traced_wall_raw_s"].append(raw)
            if isinstance(w, workloads.Cli):
                summary = _sum_summaries(w.traced)
            else:
                summary = tracer.summarise(raw)
            factor = rec.scaled(p0, wall) / raw
            for m in tracing.TIME_METRICS:
                summary[m] *= factor
            s["layers"].append(summary)
        now = time.perf_counter()
        if now + (now - it0) > deadline:
            break
    while len(s["setup_s"]) < MIN_SETUP_SAMPLES:
        setup_probe()
    if traced and job.get("spans") and len(tracer.start):
        tracer.write_spans(job["spans"])
    s["calibration_median_s"] = statistics.median(s["calibration_s"])
    s["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    s["children_peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return s


def _sum_summaries(summaries):
    """Per-layer metrics of several traced processes, added up."""
    total = {}
    for summary in summaries:
        for k, v in summary.items():
            total[k] = total.get(k, 0) + v
    conditions = total.get("ttf.conditions", 0)
    total["ttf.satisfiable_ratio"] = total.get("ttf.satisfiable", 0) / conditions if conditions else 0.0
    return total


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
