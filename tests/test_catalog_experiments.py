"""The scenario catalog as registered experiments: the CI contract.

Locks everything the ``scenario-smoke`` CI job relies on: all four
catalog experiments are registered under the ``catalog`` group with
grids from :mod:`repro.control.catalog`, their scorecard key sets match
per-scenario golden lists (drift in a key set is a deliberate,
reviewed change -- update the golden *and* bump the scenario's
``SCORECARD_VERSION``), and the smoke manifest is byte-identical at
``--jobs 1`` and ``--jobs 3``.

The smoke scorecards of all six scorecard experiments are also pinned
value for value in ``tests/golden/scenario_smoke_scorecards.json``.  To
intentionally re-baseline after a behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_catalog_experiments.py
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.control import catalog
from repro.runner import default_registry
from repro.runner.executor import run_experiments
from repro.runner.manifest import build_manifest, manifest_text

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "scenario_smoke_scorecards.json"
)

#: Per-scenario golden key sets, spelled out: the CI gate's ground
#: truth.  A mismatch here means a scorecard changed shape without a
#: version bump -- exactly the drift the catalog exists to catch.
GOLDEN_KEYS = {
    "canary-rollout": (
        "cluster.completed_graphs", "cluster.corrupt_caught",
        "cluster.hangs", "cluster.retries", "cluster.software_fallbacks",
        "cluster.workers_quarantined", "cluster.workers_rehabilitated",
        "conservation.ok", "delta.throughput_frac", "delta.unhealthy_frac",
        "jobs.done", "jobs.failed", "jobs.shed", "jobs.submitted",
        "rollout.candidate", "rollout.promoted",
        "rollout.regression_detected", "rollout.rolled_back",
        "rollout.stage", "schema_version",
        "slice.baseline.mpix_per_vcu_s", "slice.baseline.unhealthy_frac",
        "slice.baseline.vcus", "slice.canary.mpix_per_vcu_s",
        "slice.canary.unhealthy_frac", "slice.canary.vcus",
    ),
    "chaos-campaign": (
        "availability.exact", "campaign.blast_hosts", "campaign.repair_cap",
        "cluster.corrupt_caught", "cluster.hangs", "cluster.host_evictions",
        "cluster.retries", "cluster.software_fallbacks",
        "cluster.workers_quarantined", "cluster.workers_rehabilitated",
        "conservation.ok", "fleet.available_end", "fleet.disabled_by_sweeps",
        "fleet.vcus", "jobs.completed", "jobs.submitted",
        "repair.hosts_repaired", "schema_version", "steps.completed",
        "sweeper.repairs_completed", "sweeper.repairs_started",
        "sweeper.sweeps",
    ),
    "tuning-timeline": (
        "bitrate_vs_software.h264", "bitrate_vs_software.vp9",
        "decoder_util", "encoder_util", "milestones_shipped", "month",
        "rc_efficiency.h264", "rc_efficiency.vp9", "schema_version",
        "throughput_mpix_s", "total_megapixels", "vcu_workers",
    ),
    "surge-mix": (
        "autoscale.actions", "autoscale.peak_slots",
        "class.batch.completion_rate", "class.batch.done",
        "class.batch.failed", "class.batch.queue_p50",
        "class.batch.queue_p90", "class.batch.queue_p99",
        "class.batch.retries", "class.batch.shed",
        "class.batch.shed_rate", "class.batch.submitted",
        "class.live.completion_rate", "class.live.done",
        "class.live.failed", "class.live.queue_p50",
        "class.live.queue_p90", "class.live.queue_p99",
        "class.live.retries", "class.live.shed", "class.live.shed_rate",
        "class.live.submitted", "class.upload.completion_rate",
        "class.upload.done", "class.upload.failed",
        "class.upload.queue_p50", "class.upload.queue_p90",
        "class.upload.queue_p99", "class.upload.retries",
        "class.upload.shed", "class.upload.shed_rate",
        "class.upload.submitted", "conservation.ok", "dead_letter.count",
        "event.end", "event.jobs_in_window", "event.start",
        "failover.routed", "jobs.done", "jobs.failed", "jobs.shed",
        "jobs.submitted", "scenario", "schema_version", "spill.routed",
    ),
}


class TestRegistration:
    def test_catalog_group_lists_exactly_the_four(self):
        assert default_registry().names(group="catalog") == sorted(
            catalog.catalog_names()
        )

    def test_grids_come_from_the_catalog(self):
        registry = default_registry()
        for name, grid_fn in (
            ("canary-rollout", catalog.canary_grid),
            ("chaos-campaign", catalog.chaos_grid),
            ("tuning-timeline", catalog.timeline_grid),
            ("surge-mix", catalog.surge_grid),
        ):
            experiment = registry.get(name)
            assert list(experiment.grid) == grid_fn()
            assert list(experiment.smoke_grid) == grid_fn(smoke=True)
            assert experiment.group == catalog.CATALOG_GROUP

    def test_smoke_grids_are_cheaper(self):
        registry = default_registry()
        for name in catalog.catalog_names():
            experiment = registry.get(name)
            assert len(experiment.smoke_grid) <= len(experiment.grid)


class TestGoldenScorecardKeys:
    def test_golden_covers_every_catalog_entry(self):
        assert set(GOLDEN_KEYS) == set(catalog.catalog_names())

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_keys_match_golden(self, name):
        assert catalog.scorecard_keys(name) == GOLDEN_KEYS[name]

    def test_dispatch_covers_platform_day_and_live_ladder(self):
        from repro.control import live_ladder, scenario

        assert set(catalog.scorecard_experiments()) == (
            set(catalog.catalog_names()) | {"platform-day", "live-ladder"}
        )
        assert (catalog.scorecard_keys("platform-day")
                == scenario.scorecard_keys())
        assert (catalog.scorecard_keys("live-ladder")
                == live_ladder.scorecard_keys())

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="table1-throughput"):
            catalog.scorecard_keys("table1-throughput")

    def test_catalog_import_stays_numpy_free(self):
        code = (
            "import sys\n"
            "import repro.control.catalog\n"
            "assert 'numpy' not in sys.modules, 'numpy leaked into the catalog'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestSmokeRuns:
    @pytest.fixture(scope="class")
    def smoke_runs(self):
        result = run_experiments(
            default_registry(),
            names=list(catalog.scorecard_experiments()),
            smoke=True,
            jobs=1,
        )
        return result.runs

    def test_every_scorecard_matches_its_golden_keys(self, smoke_runs):
        for run in smoke_runs:
            name = run.experiment.name
            for result in run.results:
                card = result["scorecard"]
                assert tuple(sorted(card)) == catalog.scorecard_keys(name)
                if name in GOLDEN_KEYS:
                    assert tuple(sorted(card)) == GOLDEN_KEYS[name]

    def test_scorecards_match_checked_in_golden(self, smoke_runs):
        # Values, not only keys: a refactor that shifts any scorecard
        # value deterministically passes the --jobs byte-identity gate
        # but fails here.
        produced = json.loads(json.dumps({
            run.experiment.name: list(run.results) for run in smoke_runs
        }))
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(produced, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            pytest.skip(f"golden re-baselined at {GOLDEN_PATH}")
        assert GOLDEN_PATH.exists(), (
            "golden scorecards missing -- regenerate with REPRO_UPDATE_GOLDEN=1"
        )
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert sorted(produced) == sorted(golden)
        for name in sorted(golden):
            assert produced[name] == golden[name], (
                f"{name} smoke scorecards diverged from {GOLDEN_PATH.name}; "
                "if the change is intentional, re-baseline with "
                "REPRO_UPDATE_GOLDEN=1"
            )

    def test_canary_smoke_catches_the_regression(self, smoke_runs):
        by_candidate = {
            result["candidate"]: result["scorecard"]
            for run in smoke_runs if run.experiment.name == "canary-rollout"
            for result in run.results
        }
        assert by_candidate["fw-1.1.0-rc1"]["rollout.rolled_back"] is True
        assert by_candidate["fw-1.1.0-rc2"]["rollout.promoted"] is True
        for card in by_candidate.values():
            assert card["conservation.ok"] is True

    def test_chaos_smoke_conserves_jobs(self, smoke_runs):
        for run in smoke_runs:
            if run.experiment.name != "chaos-campaign":
                continue
            for result in run.results:
                assert result["scorecard"]["conservation.ok"] is True
                assert result["scorecard"]["availability.exact"] is True

    def test_timeline_smoke_months_are_longitudinal(self, smoke_runs):
        months = [
            result["month"]
            for run in smoke_runs if run.experiment.name == "tuning-timeline"
            for result in run.results
        ]
        assert months == list(catalog.TIMELINE_SMOKE_MONTHS)

    def test_timeline_summary_carries_figure9_columns(self, smoke_runs):
        (run,) = [r for r in smoke_runs
                  if r.experiment.name == "tuning-timeline"]
        rows = run.experiment.summary_rows(run.results)
        assert rows[0]["month"] == 1
        assert rows[0]["normalized_throughput"] == 1.0
        for row, result in zip(rows, run.results):
            card = result["scorecard"]
            assert row["decoder_util"] == card["decoder_util"]
            assert row["normalized_throughput"] == pytest.approx(
                card["throughput_mpix_s"] / rows[0]["throughput_mpix_s"],
                abs=5e-4,
            )

    def test_manifest_byte_identical_across_jobs(self, smoke_runs):
        serial = manifest_text(build_manifest(smoke_runs))
        sharded = run_experiments(
            default_registry(),
            names=list(catalog.scorecard_experiments()),
            smoke=True,
            jobs=3,
        )
        assert manifest_text(build_manifest(sharded.runs)) == serial
