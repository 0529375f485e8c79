"""One pass of the benchmark's `simulate` workload, checked by its own oracle.

The workload replays a seeded 300-delivery consensus scenario and 300 EVM
checkpoint transactions on kernel values; its `check` compares every report
line with text predicted by an independent frozenset model and plain
arithmetic, so this test puts the value and kernel layers' hot path under an
oracle that shares no code with them.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _check_pass(seed):
    wl = _workloads()
    sim = wl.Simulate(str(REPO), seed)
    rec = wl.Recorder()
    sim.run_pass(rec)
    assert len(rec.ops) == wl.SIM_DELIVERIES + wl.EVM_TRANSACTIONS
    failed = [(op.label, op.error) for op, ok in zip(rec.ops, sim.check(rec.ops)) if not ok]
    assert failed == []


def test_simulate_pass_matches_independent_model():
    _check_pass(1)


def test_simulate_pass_at_another_seed_matches_independent_model():
    # other soup contents for the kernel's bisecting merges; seed 2's
    # scenario draw is several times slower than this one's
    _check_pass(3)
