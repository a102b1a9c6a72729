"""Surge-mix days are platform days with the demand disturbed.

A disturbance whose multipliers are all 1.0 must reproduce the
outage-free platform day exactly -- every scorecard key the two share
and the drain time -- and each arm's event-window count must match the
arrivals its own workload puts in :meth:`SurgeMixConfig.event_window`.
"""

from __future__ import annotations

import pytest

from repro.control.catalog import SURGE_SEED, SURGE_SMOKE_DAY_SECONDS
from repro.control.scenario import ScenarioConfig, run_global_platform_day
from repro.control.surge import SCENARIOS, SurgeMixConfig, run_surge_mix
from repro.workloads.events import MixShiftSpec, SurgeSpec

DAY = SURGE_SMOKE_DAY_SECONDS

UNIT_MULTIPLIERS = {
    "popularity-surge": SurgeMixConfig(
        scenario="popularity-surge", day_seconds=DAY,
        surge=SurgeSpec(multiplier=1.0),
    ),
    "live-mix-shift": SurgeMixConfig(
        scenario="live-mix-shift", day_seconds=DAY,
        mix_shift=MixShiftSpec(
            live_multiplier=1.0, upload_multiplier=1.0, batch_multiplier=1.0
        ),
    ),
}


@pytest.fixture(scope="module")
def platform_day():
    return run_global_platform_day(
        ScenarioConfig(day_seconds=DAY, outage=False), seed=SURGE_SEED
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_unit_multipliers_reproduce_the_platform_day(platform_day, scenario):
    day = run_surge_mix(UNIT_MULTIPLIERS[scenario], seed=SURGE_SEED)
    shared = sorted(set(day.scorecard) & set(platform_day.scorecard))
    assert len(shared) == len(day.scorecard) - 4  # all but scenario/event.*
    for key in shared:
        assert day.scorecard[key] == platform_day.scorecard[key], key
    assert day.end_time == platform_day.end_time


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_jobs_in_window_counts_arrivals_in_the_event_window(scenario):
    config = SurgeMixConfig(scenario=scenario, day_seconds=DAY)
    start, end = config.event_window()
    arrivals = config.workload(SURGE_SEED).requests(until=DAY)
    in_window = sum(1 for r in arrivals if start <= r.arrival_time < end)
    card = run_surge_mix(config, seed=SURGE_SEED).scorecard
    assert in_window > 0
    assert card["event.jobs_in_window"] == in_window
