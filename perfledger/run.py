#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfledger/run.py --workload fleet-day --seed 0 --seconds 25 --trace 0

``--trace 0`` repeats set-up and timed work until ``--seconds`` is spent
(at least twice) and reports the end-to-end metrics as medians over the
iterations (set-up is sampled more than once per iteration when it takes
only milliseconds).  Times are in reference seconds: host seconds scaled
by the host's speed, sampled while the run measures (``speed.py``).  ``--trace 1`` runs a traced iteration between two
untraced ones and reports the per-layer breakdown of the traced one; its
span arrays are written to ``perfledger/.out/``.  Either way every output is checked, the
full record (host fingerprint, calibration, the metrics the workload
applies, each failed check by name) is printed as a ``{"perfledger":
...}`` line and saved under ``perfledger/.out/``, and the last line of
standard output is the result object.  The whole run is one process with
BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from perfledger.speed import SpeedSampler

ROOT = Path(__file__).resolve().parents[1]
#: Iterations a timed run makes even when ``--seconds`` is already spent,
#: so every run checks determinism.
MIN_ITERATIONS = 2
#: Set-up time each iteration samples, and the most set-ups it makes.
SETUP_SAMPLE_S = 0.25
MAX_SETUPS = 20


def _timed_iteration(workload: Any, seed: int,
                     sampler: Optional[SpeedSampler] = None) -> Dict[str, Any]:
    """Set up (repeatedly, when set-up is cheap), run once, check.

    Set-up is timed over at least ``SETUP_SAMPLE_S`` so that a set-up of a
    few milliseconds still gets a steady median; the last state is run.
    Each phase is timed in host seconds, and its marks are kept for
    :func:`_collect` to scale once the run is over.
    """
    gc.collect()
    mark = sampler.window if sampler else (lambda: (time.perf_counter(),) * 2)
    times: Dict[str, Any] = {"setups": [], "setup_marks": []}
    while (sum(times["setups"]) < SETUP_SAMPLE_S
           and len(times["setups"]) < MAX_SETUPS):
        begin = mark()
        state = workload.setup(seed)
        end = mark()
        times["setups"].append(end[1] - begin[1])
        times["setup_marks"].append((begin, end))
    begin = mark()
    produced = workload.run(state)
    end = mark()
    times["wall"] = end[1] - begin[1]
    times["wall_marks"] = (begin, end)
    times["outcome"] = workload.check(state, produced, seed)
    return times


class Checks:
    """Checked outputs across iterations, and the names of the wrong ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, outcome: Any) -> None:
        self.attempted += outcome.checked
        self.failures.extend(outcome.mismatches)

    def same(self, first: Any, other: Any, what: str) -> None:
        self.attempted += 1
        if other.digest != first.digest:
            self.failures.append(what)


def _collect(iterations: List[Dict[str, Any]],
             sampler: Optional[SpeedSampler] = None) -> Dict[str, Any]:
    """Host and reference seconds of every phase (see ``speed.py``); with
    no sampler, reference seconds are host seconds."""
    scale = sampler.reference_s if sampler else (lambda begin, end: end[1] - begin[1])
    return {
        "setups": [t for it in iterations for t in it["setups"]],
        "setups_ref": [scale(*marks) for it in iterations
                       for marks in it["setup_marks"]],
        "wall": [it["wall"] for it in iterations],
        "wall_ref": [scale(*it["wall_marks"]) for it in iterations],
    }


def measure(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced iterations until ``seconds`` are spent, sampling the host's
    speed throughout."""
    from perfledger.speed import SpeedSampler

    iterations: List[Dict[str, Any]] = []
    checks = Checks()
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            iteration = _timed_iteration(workload, seed, sampler)
            checks.add(iteration["outcome"])
            if iterations:
                checks.same(iterations[0]["outcome"], iteration["outcome"],
                            f"{workload.name}: iteration {len(iterations)} "
                            "differs from iteration 0")
            iterations.append(iteration)
            elapsed = time.perf_counter() - start
            if (len(iterations) >= MIN_ITERATIONS
                    and elapsed + elapsed / len(iterations) > seconds):
                break
    measured = _collect(iterations, sampler)
    measured.update(outcome=iterations[0]["outcome"], checks=checks,
                    slice_s=statistics.mean(sampler.slices))
    return measured


def measure_traced(workload: Any, seed: int) -> Dict[str, Any]:
    """A traced iteration between two untraced ones; the traced one's
    layers, and its overhead over the mean of the untraced two (the host's
    speed drifts, so one untraced sample can read slower than traced).
    Nothing samples the host's speed here, so spans hold program time only."""
    import numpy as np

    from perfledger import layers, tracer
    from perfledger.workloads import OUT_DIR

    before = _timed_iteration(workload, seed)
    plain = before["outcome"]
    checks = Checks()
    checks.add(plain)
    log = tracer.SpanLog(layers.keys())
    patches = tracer.install(layers.TARGETS, log)
    try:
        gc.collect()
        state = workload.setup(seed)
        log.recording = True
        start = time.perf_counter()
        produced = workload.run(state)
        traced_s = time.perf_counter() - start
        log.recording = False
    finally:
        tracer.uninstall(patches)
    traced = workload.check(state, produced, seed)
    del state, produced
    checks.add(traced)
    checks.same(plain, traced, f"{workload.name}: traced outputs differ from untraced")
    after = _timed_iteration(workload, seed)
    checks.add(after["outcome"])
    checks.same(plain, after["outcome"],
                f"{workload.name}: untraced outputs differ after tracing")
    per_layer = layers.layer_metrics(log, traced_s)
    per_layer["trace.overhead_s"] = traced_s - (before["wall"] + after["wall"]) / 2.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}.spans.npz"
    np.savez_compressed(
        spans_path,
        trace_id=np.array(f"{workload.name}/seed{seed}"),
        keys=np.array(log.keys),
        key=np.frombuffer(log.key, dtype=np.int32),
        parent=np.frombuffer(log.parent, dtype=np.int32),
        t0=np.frombuffer(log.t0, dtype=np.float64),
        t1=np.frombuffer(log.t1, dtype=np.float64),
    )
    measured = _collect([before, after])
    measured.update(outcome=traced, checks=checks, per_layer=per_layer,
                    spans_file=str(spans_path.relative_to(ROOT)))
    return measured


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def issue_metrics(measured: Dict[str, Any], peak_rss_mb: float) -> Dict[str, Any]:
    """Every end-to-end metric that applies to the workload, by name.

    Times, and the rates derived from them, are in reference seconds;
    ``host_wall_s`` and ``host_setup_s`` are the raw host seconds.
    """
    outcome, checks = measured["outcome"], measured["checks"]
    wall_s = statistics.median(measured["wall_ref"])
    values: Dict[str, Tuple[float, str]] = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(measured["setups_ref"]), "s"),
        "host_wall_s": (statistics.median(measured["wall"]), "s"),
        "host_setup_s": (statistics.median(measured["setups"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_share": (len(checks.failures) / checks.attempted, "share"),
    }
    if outcome.sim_seconds:
        values["sim_s_per_wall_s"] = (outcome.sim_seconds / wall_s, "1")
        values["sim_graph_p50_s"] = (outcome.model["sim_graph_p50_s"], "s")
        values["sim_graph_p99_s"] = (outcome.model["sim_graph_p99_s"], "s")
    else:
        values["encode_mpix_per_s"] = (outcome.megapixels / wall_s, "Mpix/s")
    if "bd_rate_err_pp" in outcome.model:
        values["bd_rate_err_pp"] = (outcome.model["bd_rate_err_pp"], "pp")
    if "rate_err_pct" in outcome.model:
        values["rate_err_pct"] = (outcome.model["rate_err_pct"], "%")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def end_to_end(measured: Dict[str, Any], issue: Dict[str, Any]) -> Dict[str, Any]:
    """The metrics every workload reports (``end_to_end`` in BENCHMARK.json)."""
    wall_s = issue["wall_s"]["value"]
    return {
        "wall_s": issue["wall_s"],
        "setup_s": issue["setup_s"],
        "peak_rss_mb": issue["peak_rss_mb"],
        "verified_share": {"value": 1.0 - issue["fail_share"]["value"],
                           "unit": "share"},
        "mpix_per_s": {"value": measured["outcome"].megapixels / wall_s,
                       "unit": "Mpix/s"},
    }


def per_layer_metrics(measured: Dict[str, Any], calibration_s: float) -> Dict[str, Any]:
    from perfledger.layers import metric_units

    values = dict(measured["per_layer"])
    outcome = measured["outcome"]
    values.update(outcome.counters)
    for name, value in outcome.model.items():
        values[f"model.{name}"] = value
    values["host.calibration_s"] = calibration_s
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in metric_units().items()}


def main(argv: List[str] = None) -> int:
    from_checkout = (ROOT / "src" / "repro" / "__init__.py").is_file()
    if not from_checkout:
        print("perfledger: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfledger.hostinfo import THREAD_VARS

    for name in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[name] = "1"

    from perfledger import hostinfo
    from perfledger.workloads import OUT_DIR, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.trace:
        measured = measure_traced(workload, args.seed)
    else:
        measured = measure(workload, args.seed, args.seconds)
    peak_rss_mb = _peak_rss_mb()
    calibration_s = hostinfo.calibration_s()
    checks = measured["checks"]
    issue = issue_metrics(measured, peak_rss_mb)
    if args.trace:
        metrics = per_layer_metrics(measured, calibration_s)
    else:
        metrics = end_to_end(measured, issue)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(measured["wall"]),
        "setups_s": measured["setups"],
        "setups_ref_s": measured["setups_ref"],
        "walls_s": measured["wall"],
        "walls_ref_s": measured["wall_ref"],
        "slice_s": measured.get("slice_s"),
        "issue_metrics": issue,
        "metrics": metrics,
        "failures": sorted(set(checks.failures)),
        "host": hostinfo.fingerprint(),
        "calibration_s": calibration_s,
    }
    if args.trace:
        record["spans_file"] = measured["spans_file"]
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "traced" if args.trace else "timed"
    (OUT_DIR / f"{workload.name}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name in checks.failures:
        print(f"FAILED {name}", file=sys.stderr)
    for name, metric in record["issue_metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"perfledger": record}, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
