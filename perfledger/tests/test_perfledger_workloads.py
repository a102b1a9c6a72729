"""The wrappers leave results unchanged, on shortened workloads."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfledger import layers, tracer  # noqa: E402
from perfledger.workloads import EncodeSweep, FleetDay  # noqa: E402


def _outcomes(workload, seed):
    plain_state = workload.setup(seed)
    plain = workload.check(plain_state, workload.run(plain_state), seed)
    log = tracer.SpanLog(layers.keys())
    patches = tracer.install(layers.TARGETS, log)
    try:
        state = workload.setup(seed)
        log.recording = True
        produced = workload.run(state)
        log.recording = False
    finally:
        tracer.uninstall(patches)
    return plain, workload.check(state, produced, seed), log


@pytest.mark.parametrize("seed", [1, 4])
def test_wrappers_leave_a_short_fleet_day_unchanged(seed):
    workload = FleetDay(hosts=40, cpu_workers=8, horizon_seconds=240.0)
    plain, traced, log = _outcomes(workload, seed)
    assert plain.mismatches == [] and traced.mismatches == []
    assert traced.digest == plain.digest
    assert traced.model == plain.model
    totals = tracer.summarize(log)
    assert totals["failures.sweep"].calls == 4
    assert totals["vcu.should_disable"].calls > 0
    assert totals["cluster.submit"].calls == plain.checked


def test_wrappers_leave_a_short_encode_sweep_unchanged():
    workload = EncodeSweep(titles=("desktop",), frames=2, proxy_height=24)
    plain, traced, log = _outcomes(workload, 1)
    assert plain.mismatches == [] and traced.mismatches == []
    assert traced.digest == plain.digest
    totals = tracer.summarize(log)
    assert totals["codec.encode_frame"].calls == 4 * 5 * 2
    assert totals["runner.run_unit"].calls == 1
    assert totals["codec.best_intra"].calls > 0
