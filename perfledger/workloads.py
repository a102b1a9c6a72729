"""The benchmark's four workloads, built from the program's public APIs.

Each workload builds its inputs from the benchmark seed in
:meth:`~Workload.setup`, does the timed work in :meth:`~Workload.run`,
and checks the outputs in :meth:`~Workload.check`, outside the timed
region.  Seed 0 is the committed configuration: its outputs must equal
``golden.json`` (the Figure 7 and canary entries are copies of the
per-unit results in the committed runner manifest, the file
``.github/bench-artifact.txt`` names).  Any other seed shifts every
input seed by that amount, and only the invariant and determinism checks
apply.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

# Load every program module the workloads use, so that no set-up pays
# first-import cost.  The workloads still look names up when they run,
# after the traced pass has patched them.
import repro.cluster  # noqa: F401
import repro.codec.decoder  # noqa: F401
import repro.codec.rate_control  # noqa: F401
import repro.control.canary  # noqa: F401
import repro.failures  # noqa: F401
import repro.harness.rd  # noqa: F401
import repro.runner.experiments  # noqa: F401
import repro.transcode  # noqa: F401
import repro.video.content  # noqa: F401
import repro.video.vbench  # noqa: F401

HERE = Path(__file__).resolve().parent
#: Where runs leave trace files; ignored by git.
OUT_DIR = HERE / ".out"


def load_golden() -> Dict[str, Any]:
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class Outcome:
    """What one iteration produced, as the benchmark checks it."""

    #: Equal across iterations of one seed, and between traced and
    #: untraced passes, or the run is not deterministic.
    digest: str
    #: Number of outputs checked, and a name for each one that was wrong.
    checked: int
    mismatches: List[str]
    #: Megapixels the iteration processed: encoded for real by the codec,
    #: or transcoded in simulation by the modeled fleet.
    megapixels: float
    #: Virtual seconds simulated (0 for the codec workloads).
    sim_seconds: float = 0.0
    #: Model outputs (the ``model.*`` per-layer metrics), by bare name.
    model: Dict[str, float] = field(default_factory=dict)
    #: Counters the workload reads off the program (``obs.spans`` ...).
    counters: Dict[str, float] = field(default_factory=dict)


def _latency_model(latencies: Sequence[float]) -> Dict[str, float]:
    values = np.asarray(latencies, dtype=float)
    if values.size == 0:
        return {"sim_graph_p50_s": 0.0, "sim_graph_p99_s": 0.0}
    return {
        "sim_graph_p50_s": float(np.percentile(values, 50)),
        "sim_graph_p99_s": float(np.percentile(values, 99)),
    }


def _golden_check(name: str, seed: int, digest: str, key: str,
                  mismatches: List[str]) -> int:
    """At seed 0, compare ``digest`` with the golden value; 1 check."""
    if seed != 0:
        return 0
    if load_golden()[name][key] != digest:
        mismatches.append(f"{name}: {key} differs from golden.json")
    return 1


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, produced: Any, seed: int) -> Outcome:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# fleet-day


@dataclass
class FleetDay(Workload):
    """The paper-scale fleet day: 2500 hosts x 20 VCUs, 500 CPU workers,
    uploads every 2 s, the failure sweeper every 60 s and an ECC drizzle."""

    name = "fleet-day"
    why = ("50k-VCU fleet with the failure sweeper and first-fit placement: "
           "the only workload where O(fleet) scans dominate; no codec, "
           "control plane or obs")
    hosts: int = 2500
    cpu_workers: int = 500
    horizon_seconds: float = 600.0

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
        from repro.failures import FailureManager, FailureSweeper, FaultInjector
        from repro.sim.engine import Simulator
        from repro.transcode import PopularityBucket, build_transcode_graph
        from repro.vcu.host import VcuHost
        from repro.vcu.telemetry import FaultKind
        from repro.video.frame import resolution

        horizon, interval = self.horizon_seconds, 2.0
        sim = Simulator()
        hosts = [VcuHost(host_id=f"fleet-{i}") for i in range(self.hosts)]
        cluster = TranscodeCluster(
            sim,
            [VcuWorker(vcu, host=host, golden_screening=False)
             for host in hosts for vcu in host.vcus],
            [CpuWorker(cores=16, name=f"fleet-cpu{i}")
             for i in range(self.cpu_workers)],
            fleet_mode=True,
            telemetry_mode="sampled",
            telemetry_sample_seconds=15.0,
            seed=8 + seed,
        )
        manager = FailureManager(hosts, repair_cap=8, card_swap_threshold=2)
        FailureSweeper(
            sim, manager, interval_seconds=60.0, repair_seconds=900.0,
            cluster=cluster,
        ).start(until=horizon)
        FaultInjector(
            sim, [vcu for host in hosts for vcu in host.vcus], seed=17 + seed,
        ).random_hard_faults(
            0.0005, until=horizon, kind=FaultKind.ECC_UNCORRECTABLE, count=3,
        )
        source = resolution("720p")
        # VCU ids come from process-wide counters; fleet positions name
        # the same devices identically in every iteration.
        positions = {
            vcu.vcu_id: f"{host.host_id}/{slot}"
            for host in hosts for slot, vcu in enumerate(host.vcus)
        }
        state = {"sim": sim, "cluster": cluster, "submitted": 0,
                 "positions": positions}

        def uploader() -> Any:
            while sim.now + interval <= horizon:
                yield interval
                cluster.submit(build_transcode_graph(
                    video_id=f"day-v{state['submitted']}",
                    source=source,
                    total_frames=300,
                    fps=30.0,
                    bucket=PopularityBucket.WARM,
                ))
                state["submitted"] += 1

        sim.process(uploader(), name="fleet-uploader")
        return state

    def run(self, state: Dict[str, Any]) -> None:
        state["sim"].run()

    def check(self, state: Dict[str, Any], produced: Any, seed: int) -> Outcome:
        stats = state["cluster"].stats
        submitted = state["submitted"]
        mismatches: List[str] = []
        missing = submitted - stats.completed_graphs
        mismatches.extend(
            [f"fleet-day: {missing} of {submitted} graphs incomplete"] * missing)
        snapshot = stats.counter_snapshot()
        positions = state["positions"]
        snapshot["per_vcu_megapixels"] = tuple(sorted(
            (positions.get(worker, worker), megapixels)
            for worker, megapixels in snapshot["per_vcu_megapixels"]
        ))
        digest = _sha256(repr(snapshot))
        checked = submitted + _golden_check(
            self.name, seed, digest, "snapshot_sha256", mismatches)
        return Outcome(
            digest=digest,
            checked=checked,
            mismatches=mismatches,
            megapixels=stats.throughput.total_megapixels,
            sim_seconds=state["sim"].now,
            model=_latency_model(stats.graph_latencies),
        )


# --------------------------------------------------------------------- #
# Runner-driven workloads


def _runner_registry(experiment: str, params: Sequence[Dict[str, Any]]) -> Any:
    """A registry holding one default experiment, restricted to ``params``."""
    from repro.runner import ExperimentRegistry, default_registry

    base = default_registry().get(experiment)
    registry = ExperimentRegistry()
    registry.add(dataclasses.replace(base, grid=tuple(params)))
    return registry


def _fingerprint(registry: Any) -> None:
    """The runner's source fingerprint for every experiment in ``registry``
    (what a cache lookup of this run is keyed by)."""
    from repro.runner.cache import repo_root, source_hashes

    for experiment in registry.select():
        source_hashes(repo_root(), experiment.sources)


@dataclass
class EncodeSweep(Workload):
    """Figure 7 units for a hard and an easy title through the runner."""

    name = "encode-sweep"
    why = ("Figure 7 units for holi and desktop through the runner: 40 "
           "independent encodes, almost all codec work, the shape lockstep "
           "encoding batches")
    titles: Sequence[str] = ("holi", "desktop")
    frames: Optional[int] = None
    proxy_height: Optional[int] = None

    def _params(self, seed: int) -> List[Dict[str, Any]]:
        from repro.runner import default_registry

        grid = default_registry().get("fig7-bd-rates").grid
        by_title = {params["title"]: dict(params) for params in grid}
        chosen = []
        for title in self.titles:
            params = by_title[title]
            params["encode_seed"] += seed
            if self.frames is not None:
                params["frames"] = self.frames
            if self.proxy_height is not None:
                params["proxy_height"] = self.proxy_height
            chosen.append(params)
        return chosen

    def setup(self, seed: int) -> Any:
        registry = _runner_registry("fig7-bd-rates", self._params(seed))
        _fingerprint(registry)
        return registry

    def run(self, registry: Any) -> Any:
        from repro.runner import run_experiments

        return run_experiments(registry, jobs=1).runs[0]

    def check(self, registry: Any, produced: Any, seed: int) -> Outcome:
        from repro.codec.profiles import ALL_PROFILES
        from repro.harness.rd import DEFAULT_QPS

        results = produced.results
        golden = load_golden()[self.name]["units"] if seed == 0 else None
        mismatches: List[str] = []
        checked = 0
        for index, result in enumerate(results):
            title = result["title"]
            for profile, points in sorted(result["curves"].items()):
                for qp_index, (bitrate, psnr) in enumerate(points):
                    checked += 1
                    where = f"encode-sweep: {title}/{profile}/point{qp_index}"
                    if not (np.isfinite(bitrate) and bitrate > 0
                            and np.isfinite(psnr) and psnr > 0):
                        mismatches.append(f"{where} is not a valid RD point")
                    elif golden is not None and (
                        golden[index]["curves"][profile][qp_index]
                        != [bitrate, psnr]
                    ):
                        mismatches.append(f"{where} differs from golden.json")
            if golden is not None:
                checked += 1
                if golden[index]["bd_rates"] != result["bd_rates"]:
                    mismatches.append(f"encode-sweep: {title} BD-rates differ from golden.json")
        rows = produced.summary_rows()
        err_pp = float(np.mean([abs(r["bd_rate_pct"] - r["paper_bd_rate_pct"])
                                for r in rows]))
        params = produced.units[0].params
        height = params["proxy_height"]
        # SyntheticVideo keeps the 16:9 aspect at the proxy height.
        frame_pixels = height * int(round(height * 16 / 9))
        encodes = len(results) * len(ALL_PROFILES) * len(DEFAULT_QPS)
        return Outcome(
            digest=_sha256(_canonical(results)),
            checked=checked,
            mismatches=mismatches,
            megapixels=encodes * params["frames"] * frame_pixels / 1e6,
            model={"bd_rate_err_pp": err_pp},
        )


class CanaryObserved(Workload):
    """The canary-rollout rollback arm through the runner under an obs hub,
    with the hub's trace written out at the end."""

    name = "canary-observed"
    why = ("canary rollback arm under the control plane and an obs hub: a "
           "small saturated fleet where placement is a retry path; the only "
           "workload that measures obs")
    candidate = "fw-1.1.0-rc1"

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro import obs
        from repro.runner import default_registry

        grid = default_registry().get("canary-rollout").grid
        params = dict(next(p for p in grid if p["candidate"] == self.candidate))
        params["scenario_seed"] += seed
        registry = _runner_registry("canary-rollout", [params])
        _fingerprint(registry)
        return {"registry": registry, "hub": obs.Observability()}

    def run(self, state: Dict[str, Any]) -> Dict[str, Any]:
        from repro import obs
        from repro.control import canary
        from repro.runner import run_experiments

        captured: List[Any] = []
        original = canary.run_canary_rollout

        def capture(*args: Any, **kwargs: Any) -> Any:
            captured.append(original(*args, **kwargs))
            return captured[-1]

        canary.run_canary_rollout = capture
        try:
            with obs.installed(state["hub"]):
                run = run_experiments(state["registry"], jobs=1).runs[0]
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"{self.name}.trace.jsonl"
            state["hub"].trace.write_jsonl(str(trace_file))
        finally:
            canary.run_canary_rollout = original
        return {"run": run, "rollout": captured[0], "trace_file": trace_file}

    def check(self, state: Dict[str, Any], produced: Dict[str, Any],
              seed: int) -> Outcome:
        from repro.control.canary import scorecard_keys

        card = produced["run"].results[0]["scorecard"]
        rollout = produced["rollout"]
        hub = state["hub"]
        mismatches: List[str] = []
        if seed == 0:
            golden = load_golden()[self.name]["scorecard"]
            for key in sorted(set(golden) | set(card)):
                if golden.get(key) != card.get(key):
                    mismatches.append(f"canary-observed: scorecard {key} differs from golden.json")
            checked = len(set(golden) | set(card))
        else:
            checked = len(card)
            if tuple(sorted(card)) != scorecard_keys():
                mismatches.append("canary-observed: scorecard keys drifted")
        if card.get("conservation.ok") is not True:
            mismatches.append("canary-observed: job conservation failed")
        if produced["trace_file"].read_bytes().count(b"\n") != len(hub.trace):
            mismatches.append("canary-observed: trace file does not hold every span")
        stats = rollout.cluster.stats
        return Outcome(
            digest=_sha256(_canonical(card)),
            checked=checked + 2,
            mismatches=mismatches,
            megapixels=stats.throughput.total_megapixels,
            sim_seconds=rollout.end_time,
            model=_latency_model(stats.graph_latencies),
            counters={"obs.spans": len(hub.trace),
                      "obs.spans_dropped": hub.trace.dropped},
        )


# --------------------------------------------------------------------- #
# single-stream


class SingleStream(Workload):
    """One holi clip, two-pass rate-controlled ``vcu-vp9``, then decoded."""

    name = "single-stream"
    why = ("one serial two-pass rate-controlled vcu-vp9 holi encode plus its "
           "decode: nothing to batch across; the only workload running the "
           "decoder and rate control")
    frames = 30
    proxy_height = 72
    target_bitrate_bps = 8e6

    def setup(self, seed: int) -> Any:
        from repro.video.content import SyntheticVideo
        from repro.video.vbench import vbench_video

        return SyntheticVideo(
            vbench_video("holi").spec, seed=2 + seed,
            proxy_height=self.proxy_height,
        ).video(self.frames)

    def run(self, video: Any) -> Any:
        from repro.codec.decoder import decode_chunk
        from repro.codec.profiles import PROFILES_BY_NAME
        from repro.codec.rate_control import encode_with_target_bitrate

        profile = PROFILES_BY_NAME["vcu-vp9"]
        chunk = encode_with_target_bitrate(
            video, profile, self.target_bitrate_bps, two_pass=True)
        return chunk, decode_chunk(chunk, profile)

    def check(self, video: Any, produced: Any, seed: int) -> Outcome:
        chunk, planes = produced
        mismatches: List[str] = []
        if len(planes) != len(chunk.frames):
            mismatches.append(
                f"single-stream: decoded {len(planes)} of {len(chunk.frames)} frames")
        for frame, plane in zip(chunk.frames, planes):
            if not np.array_equal(plane, frame.recon):
                mismatches.append(
                    f"single-stream: frame {frame.index} decodes differently")
        hasher = hashlib.sha256(repr(chunk.bitrate_bps).encode("utf-8"))
        for frame in chunk.frames:
            hasher.update(np.ascontiguousarray(frame.recon).tobytes())
        digest = hasher.hexdigest()
        checked = len(chunk.frames) + _golden_check(
            self.name, seed, digest, "recon_sha256", mismatches)
        rate_err = abs(chunk.bitrate_bps - self.target_bitrate_bps)
        passes = 2  # the two-pass encoder codes every frame twice
        return Outcome(
            digest=digest,
            checked=checked,
            mismatches=mismatches,
            megapixels=passes * len(video.frames) * video.frames[0].proxy_pixels / 1e6,
            model={"rate_err_pct": 100.0 * rate_err / self.target_bitrate_bps},
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FleetDay(), EncodeSweep(), SingleStream(), CanaryObserved())
}
