"""CLI exit-code and end-to-end coverage for ``run``, ``perf``, ``report``.

Every handler must return its own rc (``main`` forwards it), the ``run``
subcommand must produce a parseable manifest plus a warm-cache second
invocation, and the historical perf/report paths keep their contracts.
"""

from __future__ import annotations

import json

import pytest

import repro.runner
from repro import obs
from repro.cli import build_parser, main

# table2 is the cheapest registered experiment (one analytic unit), so
# the CLI round-trips stay fast enough for tier-1.
EXPERIMENT = "table2-host-resources"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def default_out() -> str:
    """The manifest path ``run`` uses when no ``--out`` is given."""
    return build_parser().parse_args(["run"]).out


@pytest.fixture
def only_cheap_experiment(monkeypatch):
    """Run just :data:`EXPERIMENT` whatever the CLI selected, so a full
    or ``--smoke`` sweep stays cheap while the handler still sees the
    selection it was given."""
    real = repro.runner.run_experiments

    def run(registry, names, **kwargs):
        return real(registry, names=[EXPERIMENT], **kwargs)

    monkeypatch.setattr(repro.runner, "run_experiments", run)


class TestRunSubcommand:
    def test_end_to_end_writes_manifest(self, workdir, capsys):
        rc = main(["run", EXPERIMENT, "--out", "manifest.json"])
        assert rc == 0
        captured = capsys.readouterr()
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert EXPERIMENT in manifest["experiments"]
        entry = manifest["experiments"][EXPERIMENT]
        assert len(entry["units"]) == 1
        assert all(len(u["fingerprint"]) == 64 for u in entry["units"])
        assert "## " in captured.out          # markdown report
        assert "cache:" in captured.out       # stats block
        assert "wrote manifest.json" in captured.err

    def test_second_invocation_is_all_cache_hits(self, workdir, capsys):
        argv = ["run", EXPERIMENT, "--out", "manifest.json"]
        assert main(argv) == 0
        cold = (workdir / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(argv) == 0
        assert "hit rate 100%" in capsys.readouterr().out
        assert (workdir / "manifest.json").read_bytes() == cold

    def test_json_flag_prints_exactly_the_manifest(self, workdir, capsys):
        assert main(["run", EXPERIMENT, "--no-cache", "--json",
                     "--out", "manifest.json"]) == 0
        out = capsys.readouterr().out
        assert out == (workdir / "manifest.json").read_text()

    def test_experiment_named_twice_runs_once(self, workdir, capsys):
        rc = main(["run", EXPERIMENT, "--only", EXPERIMENT, "--no-cache",
                   "--out", "manifest.json"])
        assert rc == 0
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert list(manifest["experiments"]) == [EXPERIMENT]
        assert len(manifest["experiments"][EXPERIMENT]["units"]) == 1
        assert "experiments 1, units 1" in capsys.readouterr().out

    def test_unknown_experiment_is_rc2(self, workdir, capsys):
        assert main(["run", "no-such-experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert not (workdir / default_out()).exists()

    @pytest.mark.parametrize("argv", [
        ["--only", EXPERIMENT],
        ["--smoke"],
    ], ids=["only", "smoke"])
    def test_partial_run_leaves_default_manifest_alone(
        self, workdir, capsys, only_cheap_experiment, argv
    ):
        assert default_out() == "BENCH_PR10.json"
        sentinel = workdir / default_out()
        sentinel.write_bytes(b'{"full": "sweep"}\n')
        assert main(["run", "--no-cache", *argv]) == 0
        captured = capsys.readouterr()
        assert sentinel.read_bytes() == b'{"full": "sweep"}\n'
        assert "## " in captured.out          # the manifest still prints
        assert f"not written: {default_out()}" in captured.err

    def test_full_sweep_writes_default_manifest(
        self, workdir, capsys, only_cheap_experiment
    ):
        assert main(["run", "--no-cache"]) == 0
        manifest = json.loads((workdir / default_out()).read_text())
        assert EXPERIMENT in manifest["experiments"]
        assert f"wrote {default_out()}" in capsys.readouterr().err


class TestPerfSubcommand:
    def test_smoke_end_to_end_rc0(self, workdir, capsys):
        rc = main(["perf", "--smoke", "--out", "perf.json"])
        assert rc == 0
        report = json.loads((workdir / "perf.json").read_text())
        assert report  # non-empty machine-readable report
        assert "wrote perf.json" in capsys.readouterr().out


class TestReportSubcommand:
    def test_valid_trace_rc0(self, workdir, capsys):
        with obs.installed() as hub:
            hub.emit("step", "unit", t0=0.0, t1=1.0)
            hub.trace.write_jsonl("run.jsonl")
        assert main(["report", "run.jsonl"]) == 0
        assert "Trace report:" in capsys.readouterr().out

    def test_missing_trace_rc2(self, workdir, capsys):
        assert main(["report", "missing.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err
