"""BENCHMARK.json agrees with the benchmark's code, and the golden copies
agree with the committed runner manifest."""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfledger.layers import metric_units  # noqa: E402
from perfledger.make_golden import bench_units, manifest_path  # noqa: E402
from perfledger.workloads import WORKLOADS, load_golden  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_each_workload_records_its_one_line_reason():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for entry in BENCH["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert "\n" not in entry["why"] and 0 < len(entry["why"]) <= 200


def test_metric_lists_match_what_the_runs_print():
    assert [m["name"] for m in BENCH["per_layer"]] == list(metric_units())
    for metric in BENCH["per_layer"]:
        assert metric["unit"] == metric_units()[metric["name"]]
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert names == ["wall_s", "setup_s", "peak_rss_mb", "verified_share", "mpix_per_s"]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["end_to_end"] + BENCH["per_layer"] + BENCH["workloads"]:
        assert NAME.match(metric["name"])


@pytest.mark.skipif(not manifest_path().is_file(), reason="no runner manifest")
def test_golden_copies_match_the_runner_manifest():
    bench = json.loads(manifest_path().read_text(encoding="utf-8"))
    golden = load_golden()
    sweep = WORKLOADS["encode-sweep"]
    assert golden["encode-sweep"]["units"] == bench_units(
        bench, "fig7-bd-rates", "title", sweep.titles)
    canary = WORKLOADS["canary-observed"]
    assert golden["canary-observed"]["scorecard"] == bench_units(
        bench, "canary-rollout", "candidate", [canary.candidate])[0]["scorecard"]
