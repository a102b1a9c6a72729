"""Which public functions each ``repro.<package>`` layer is timed through,
and how the traced pass turns spans into per-layer metrics.

A metric ``<key>.calls`` counts calls, ``<key>.s`` is busy time and
``<key>.self_s`` busy time minus child spans; ``<layer>.self_s`` is the
self time of every span in the layer, so the layer self times plus
``unattributed.s`` add up to ``trace.wall_s``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfledger.tracer import SpanLog, Target, summarize


def _is_none(result: object) -> float:
    return 1.0 if result is None else 0.0


def _one(result: object) -> float:
    return 1.0


def _count(result: object) -> float:
    return float(len(result))


TARGETS: Tuple[Target, ...] = (
    Target("sim.run", "repro.sim.engine:Simulator.run"),
    Target("sim.process", "repro.sim.engine:Simulator.process"),
    Target("cluster.submit", "repro.cluster.cluster:TranscodeCluster.submit"),
    Target("cluster.release", "repro.cluster.scheduler:BinPackingScheduler.release"),
    Target("cluster.place", "repro.cluster.scheduler:BinPackingScheduler.place",
           tallies=(("cluster.place.attempts", _one),
                    ("cluster.place.fail", _is_none))),
    Target("cluster.place", "repro.cluster.scheduler:BinPackingScheduler.place_batch"),
    Target("cluster.health", "repro.cluster.worker:VcuWorker.record_strike"),
    Target("cluster.health", "repro.cluster.worker:VcuWorker.abort_and_quarantine"),
    Target("cluster.health", "repro.cluster.worker:VcuWorker.finish_rescreen"),
    Target("failures.sweep", "repro.failures.management:FailureManager.sweep",
           tallies=(("failures.disabled", _count),)),
    Target("failures.repair", "repro.failures.management:RepairQueue.finish_repair"),
    Target("vcu.should_disable", "repro.vcu.telemetry:VcuTelemetry.should_disable"),
    Target("vcu.sweep_telemetry", "repro.vcu.host:VcuHost.sweep_telemetry"),
    Target("vcu.resource_request", "repro.vcu.chip:resource_request"),
    Target("vcu.processing_seconds", "repro.vcu.chip:processing_seconds"),
    Target("transcode.build_graph", "repro.transcode.pipeline:build_transcode_graph"),
    Target("control.submit", "repro.control.plane:ControlPlane.submit"),
    Target("control.transition", "repro.control.jobs:Job.transition"),
    Target("codec.encode_frame", "repro.codec.encoder:Encoder.encode_frame"),
    Target("codec.motion_search", "repro.codec.prediction:motion_search"),
    Target("codec.best_inter", "repro.codec.prediction:best_inter"),
    Target("codec.best_intra", "repro.codec.prediction:best_intra"),
    Target("codec.transform", "repro.codec.transform:transform_rd_single"),
    Target("codec.transform", "repro.codec.kernels:batch_transform_rd"),
    Target("codec.entropy", "repro.codec.entropy:block_bits"),
    Target("codec.entropy", "repro.codec.kernels:batch_block_bits"),
    Target("codec.temporal_filter", "repro.codec.temporal_filter:build_altref"),
    Target("codec.decode_frame", "repro.codec.decoder:Decoder.decode_frame"),
    Target("codec.rate_control", "repro.codec.rate_control:OnePassRateControl.next_qp"),
    Target("codec.rate_control", "repro.codec.rate_control:OnePassRateControl.update"),
    Target("codec.rate_control", "repro.codec.rate_control:TwoPassRateControl.allocate"),
    Target("codec.rate_control", "repro.codec.rate_control:TwoPassRateControl.qp_for_budget"),
    Target("video.synthesize", "repro.video.content:SyntheticVideo.video"),
    Target("video.psnr", "repro.video.frame:sequence_psnr"),
    Target("metrics.bd_rate", "repro.metrics.quality:bd_rate"),
    Target("obs.emit", "repro.obs:Observability.emit"),
    Target("obs.count", "repro.obs:Observability.count"),
    Target("obs.observe", "repro.obs:Observability.observe"),
    Target("obs.trace_write", "repro.obs.trace:TraceLog.write_jsonl"),
    Target("runner.run", "repro.runner.executor:run_experiments"),
    Target("runner.run_unit", "repro.runner.registry:Experiment.run_unit"),
    Target("runner.fingerprint", "repro.runner.cache:source_hashes"),
)

#: The traced layers, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "cluster", "failures", "vcu", "transcode", "control",
    "codec", "video", "metrics", "obs", "runner",
)

#: (key, fields) for the per-key metrics; field -> KeyTotals attribute.
_KEY_FIELDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.run", ("s", "self_s")),
    ("sim.process", ("calls",)),
    ("cluster.submit", ("calls", "s", "self_s")),
    ("cluster.release", ("calls", "s")),
    ("cluster.place", ("calls", "s")),
    ("cluster.health", ("calls",)),
    ("failures.sweep", ("calls", "s", "self_s")),
    ("failures.repair", ("calls",)),
    ("vcu.should_disable", ("calls",)),
    ("vcu.sweep_telemetry", ("s",)),
    ("vcu.resource_request", ("calls", "s")),
    ("vcu.processing_seconds", ("calls", "s")),
    ("transcode.build_graph", ("calls", "s")),
    ("control.submit", ("calls", "s")),
    ("control.transition", ("calls",)),
    ("codec.encode_frame", ("calls", "s", "self_s")),
    ("codec.motion_search", ("calls", "s")),
    ("codec.best_inter", ("calls", "s")),
    ("codec.best_intra", ("calls", "s")),
    ("codec.transform", ("calls", "s")),
    ("codec.entropy", ("calls", "s")),
    ("codec.temporal_filter", ("s",)),
    ("codec.decode_frame", ("calls", "s")),
    ("codec.rate_control", ("s",)),
    ("video.synthesize", ("s",)),
    ("video.psnr", ("s",)),
    ("metrics.bd_rate", ("s",)),
    ("obs.emit", ("calls", "s")),
    ("obs.count", ("calls",)),
    ("obs.observe", ("calls", "s")),
    ("obs.trace_write", ("s",)),
    ("runner.fingerprint", ("s",)),
    ("runner.run_unit", ("calls", "s")),
)

_ATTR = {"calls": "calls", "s": "busy_s", "self_s": "self_s"}
_UNIT = {"calls": "count", "s": "s", "self_s": "s"}

#: Metrics computed from counters and the pass itself, with their units.
_DERIVED: Tuple[Tuple[str, str], ...] = (
    ("cluster.place.fail", "count"),
    ("cluster.place.hit_ratio", "ratio"),
    ("failures.disabled", "count"),
    ("failures.sweep.yield", "ratio"),
    ("obs.spans", "count"),
    ("obs.spans_dropped", "count"),
    ("unattributed.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

#: Model outputs each workload reports (0 where a workload has none).
MODEL_METRICS: Tuple[Tuple[str, str], ...] = (
    ("model.sim_graph_p50_s", "s"),
    ("model.sim_graph_p99_s", "s"),
    ("model.bd_rate_err_pp", "pp"),
    ("model.rate_err_pct", "%"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: Dict[str, str] = {}
    for key, fields in _KEY_FIELDS:
        for field in fields:
            units[f"{key}.{field}"] = _UNIT[field]
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(_DERIVED)
    units.update(MODEL_METRICS)
    units["host.calibration_s"] = "s"
    return units


def keys() -> List[str]:
    """The span keys, one per distinct target key."""
    return sorted({target.key for target in TARGETS})


def layer_metrics(log: SpanLog, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from one traced pass of ``wall_s`` seconds."""
    totals = summarize(log)
    values: Dict[str, float] = {}
    for key, fields in _KEY_FIELDS:
        for field in fields:
            values[f"{key}.{field}"] = getattr(totals[key], _ATTR[field])
    attributed = 0.0
    for layer in LAYERS:
        own = sum(row.self_s for key, row in totals.items()
                  if key.split(".", 1)[0] == layer)
        values[f"{layer}.self_s"] = own
        attributed += own
    counters = log.counters
    attempts = counters["cluster.place.attempts"]
    fails = counters["cluster.place.fail"]
    polls = totals["vcu.should_disable"].calls
    values["cluster.place.fail"] = fails
    values["cluster.place.hit_ratio"] = (attempts - fails) / attempts if attempts else 0.0
    values["failures.disabled"] = counters["failures.disabled"]
    values["failures.sweep.yield"] = counters["failures.disabled"] / polls if polls else 0.0
    values["unattributed.s"] = wall_s - attributed
    values["trace.wall_s"] = wall_s
    values["trace.spans"] = len(log)
    return values
