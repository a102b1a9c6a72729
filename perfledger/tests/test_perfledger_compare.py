"""Per-layer compare mode."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfledger import compare  # noqa: E402


def _record(workload, trace, metrics):
    return {"perfledger": {
        "workload": workload, "trace": trace,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
    }}


def test_ranks_by_self_time_change_and_handles_one_sided_metrics(tmp_path):
    old = tmp_path / "old.txt"
    new = tmp_path / "new.txt"
    old.write_text(json.dumps(_record("fleet-day", 1, {
        "failures.sweep.calls": 10, "failures.sweep.s": 2.4,
        "failures.sweep.self_s": 0.2, "cluster.submit.self_s": 0.05,
        "vcu.gone.s": 1.0,
    })) + "\n")
    new.write_text(json.dumps(_record("fleet-day", 1, {
        "failures.sweep.calls": 10, "failures.sweep.s": 0.3,
        "failures.sweep.self_s": 0.1, "cluster.submit.self_s": 0.75,
        "codec.added.self_s": 0.01,
    })) + "\n")
    text = compare.render(compare.load(str(old)), compare.load(str(new)))
    lines = text.splitlines()
    assert lines[0] == "== fleet-day: per-layer (traced)"
    assert lines[1].split()[0] == "cluster.submit"
    assert "only in OLD" in next(l for l in lines if "vcu.gone" in l)
    assert "only in NEW" in next(l for l in lines if "codec.added" in l)


def test_medians_over_several_records_and_a_side_with_no_workload(tmp_path):
    old = tmp_path / "old"
    old.mkdir()
    for i, value in enumerate((1.0, 3.0, 2.0)):
        (old / f"r{i}.json").write_text(json.dumps(_record("encode-sweep", 0, {"wall_s": value})))
    table = compare.load(str(old))
    assert table[("encode-sweep", 0)]["wall_s"] == [1.0, 3.0, 2.0]
    text = compare.render(table, {})
    assert "only in OLD" in text
    assert "wall_s" in text and "2 -> -" in text
