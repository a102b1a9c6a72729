"""Self-time and busy-time arithmetic on synthetic span trees, and the
wrappers' install/uninstall contract."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfledger import layers, tracer  # noqa: E402


def test_self_time_of_nested_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    parent = [-1, 0, 1, 0]
    t0 = [0.0, 1.0, 2.0, 5.0]
    t1 = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parent, t0, t1) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_siblings_are_subtracted_once():
    # Siblings [1, 5] and [3, 7] cover [1, 7] of the root [0, 10]; a third
    # child outliving the root only removes the part inside it.
    parent = [-1, 0, 0, 0]
    t0 = [0.0, 1.0, 3.0, 9.0]
    t1 = [10.0, 5.0, 7.0, 12.0]
    own = tracer.self_times(parent, t0, t1)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1:] == pytest.approx([4.0, 4.0, 3.0])


def test_summary_counts_recursion_once_in_busy_time():
    log = tracer.SpanLog(["codec.encode_frame", "codec.best_intra"])
    outer = log.add(0, -1, 0.0, 10.0)
    inner = log.add(0, outer, 2.0, 6.0, nested=True)
    log.add(1, inner, 3.0, 4.0)
    totals = tracer.summarize(log)
    frame = totals["codec.encode_frame"]
    assert frame.calls == 2
    assert frame.busy_s == pytest.approx(10.0)
    assert frame.self_s == pytest.approx(6.0 + 3.0)
    assert totals["codec.best_intra"].self_s == pytest.approx(1.0)


def test_layer_self_times_and_unattributed_add_up_to_wall():
    log = tracer.SpanLog(layers.keys())
    index = {key: i for i, key in enumerate(log.keys)}
    run = log.add(index["sim.run"], -1, 1.0, 9.0)
    submit = log.add(index["cluster.submit"], run, 2.0, 5.0)
    log.add(index["cluster.place"], submit, 3.0, 4.0)
    log.add(index["failures.sweep"], run, 6.0, 8.0)
    values = layers.layer_metrics(log, wall_s=10.0)
    own = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert own == pytest.approx(8.0)
    assert values["unattributed.s"] == pytest.approx(2.0)
    assert own + values["unattributed.s"] == pytest.approx(values["trace.wall_s"])
    assert values["cluster.submit.self_s"] == pytest.approx(2.0)
    assert values["sim.run.self_s"] == pytest.approx(3.0)


def test_every_layer_metric_has_a_unit_and_a_value():
    log = tracer.SpanLog(layers.keys())
    values = layers.layer_metrics(log, wall_s=1.0)
    units = layers.metric_units()
    produced_here = set(values) | {"trace.overhead_s", "obs.spans",
                                   "obs.spans_dropped", "host.calibration_s"}
    produced_here |= {name for name, _ in layers.MODEL_METRICS}
    assert set(units) == produced_here


def test_install_patches_where_names_are_looked_up_and_uninstall_restores():
    from repro.codec import encoder, prediction

    original = prediction.best_intra
    assert encoder.best_intra is original
    log = tracer.SpanLog(layers.keys())
    patches = tracer.install(layers.TARGETS, log)
    try:
        assert prediction.best_intra is not original
        assert encoder.best_intra is prediction.best_intra
    finally:
        tracer.uninstall(patches)
    assert prediction.best_intra is original
    assert encoder.best_intra is original
