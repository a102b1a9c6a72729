#!/usr/bin/env python3
"""Regenerate ``perfledger/golden.json``, the seed-0 expected outputs.

The Figure 7 and canary entries are copied from the committed runner
manifest (the file ``.github/bench-artifact.txt`` names); the fleet-day and single-stream digests are
computed by running those workloads once at seed 0.  Run from the root
of a checkout::

    python3 perfledger/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def manifest_path() -> Path:
    """The committed runner manifest CI archives."""
    name = (ROOT / ".github" / "bench-artifact.txt").read_text(encoding="utf-8")
    return ROOT / f"{name.strip()}.json"


def bench_units(bench: dict, experiment: str, key: str, values) -> list:
    """Per-unit results of ``experiment`` whose ``key`` is in ``values``,
    in the order of ``values``."""
    by_key = {u["result"][key]: u["result"]
              for u in bench["experiments"][experiment]["units"]}
    return [by_key[value] for value in values]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfledger.hostinfo import THREAD_VARS

    for name in THREAD_VARS:  # as in run.py, before numpy loads
        os.environ[name] = "1"
    from perfledger.workloads import HERE, WORKLOADS

    bench = json.loads(manifest_path().read_text(encoding="utf-8"))
    sweep = WORKLOADS["encode-sweep"]
    canary = WORKLOADS["canary-observed"]
    golden = {
        "encode-sweep": {
            "units": bench_units(bench, "fig7-bd-rates", "title", sweep.titles),
        },
        "canary-observed": {
            "scorecard": bench_units(
                bench, "canary-rollout", "candidate", [canary.candidate]
            )[0]["scorecard"],
        },
    }
    for name, key in (("fleet-day", "snapshot_sha256"),
                      ("single-stream", "recon_sha256")):
        workload = WORKLOADS[name]
        state = workload.setup(0)
        outcome = workload.check(state, workload.run(state), 0)
        golden[name] = {key: outcome.digest}
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
