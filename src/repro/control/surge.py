"""Demand-disturbance scenarios: popularity surge and live mix shift.

Two variations on the platform day whose stressor is the *workload*
rather than the infrastructure (no outage):

* ``popularity-surge`` -- a viral window mid-day where upload and batch
  arrival rates triple (a premiere driving ingest plus the
  popularity-driven re-encode wave behind it), then fall back;
* ``live-mix-shift`` -- from mid-day on, the class mix tilts for the
  rest of the day: live arrivals jump 2.5x while uploads dip (a global
  live event), exercising strict-priority scheduling and the capacity
  autoscaler under a mix the sites were not sized for.

Both run the platform day itself (:func:`repro.control.scenario.run_day`,
outage off) over :class:`~repro.workloads.events.EventedDayWorkload`
demand -- admission, retries, spill routing, autoscaling -- and score
the platform-day scorecard minus its outage counters, plus the
event-window accounting.  As with every catalog scenario the run is a
pure function of ``(config, seed)``: static :func:`scorecard_keys`,
byte-identical scorecards at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.control.scenario import (
    DEFAULT_SITES,
    ScenarioConfig,
    ScenarioResult,
    run_day,
)
from repro.control.scenario import scorecard_keys as day_scorecard_keys
from repro.control.scorecard import finish, key_set
from repro.sim.rng import SeedLike
from repro.workloads.events import EventedDayWorkload, MixShiftSpec, SurgeSpec

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1

#: The two registered disturbance scenarios.
SCENARIOS: Tuple[str, ...] = ("popularity-surge", "live-mix-shift")

_EVENT_FIELDS = ("scenario", "event.start", "event.end", "event.jobs_in_window")
#: Platform-day keys a disturbance day leaves out: it has no outage.
_OUTAGE_FIELDS = (
    "failover.drained_queued", "failover.drained_running", "outages.count",
)


def scorecard_keys() -> Tuple[str, ...]:
    """The exact, sorted key set every disturbance scorecard carries."""
    return key_set(
        _EVENT_FIELDS,
        (k for k in day_scorecard_keys() if k not in _OUTAGE_FIELDS),
    )


@dataclass(frozen=True)
class SurgeMixConfig:
    """One demand-disturbance run, fully specified."""

    scenario: str = "popularity-surge"
    day_seconds: float = 3600.0
    failure_rate: float = 0.02
    autoscale_interval_seconds: float = 60.0
    max_slots_factor: int = 2
    surge: SurgeSpec = SurgeSpec()
    mix_shift: MixShiftSpec = MixShiftSpec()
    site_specs: Tuple[Tuple[str, str, Tuple[float, float], int], ...] = (
        DEFAULT_SITES
    )

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; known: {SCENARIOS}"
            )
        if self.day_seconds <= 0:
            raise ValueError("day_seconds must be positive")

    def day_config(self) -> ScenarioConfig:
        """The platform day this disturbance runs on: no outage."""
        return ScenarioConfig(
            day_seconds=self.day_seconds,
            outage=False,
            failure_rate=self.failure_rate,
            autoscale_interval_seconds=self.autoscale_interval_seconds,
            max_slots_factor=self.max_slots_factor,
            site_specs=self.site_specs,
        )

    def workload(self, seed: SeedLike) -> EventedDayWorkload:
        config = self.day_config().workload_config()
        if self.scenario == "popularity-surge":
            return EventedDayWorkload(config, seed=seed, surge=self.surge)
        return EventedDayWorkload(config, seed=seed, mix_shift=self.mix_shift)

    def event_window(self) -> Tuple[float, float]:
        """The disturbance's [start, end) in sim seconds."""
        if self.scenario == "popularity-surge":
            start = self.surge.start_frac * self.day_seconds
            return (
                start,
                start + self.surge.duration_frac * self.day_seconds,
            )
        return (self.mix_shift.start_frac * self.day_seconds, self.day_seconds)


def build_scorecard(day: ScenarioResult, config: SurgeMixConfig) -> Dict[str, Any]:
    """The platform-day scorecard minus its outage counters, plus the
    event window and the arrivals that fell in it."""
    start, end = config.event_window()
    card = {
        key: value for key, value in day.scorecard.items()
        if key not in _OUTAGE_FIELDS
    }
    card.update({
        "schema_version": SCORECARD_VERSION,
        "scenario": config.scenario,
        "event.start": round(start, 9),
        "event.end": round(end, 9),
        "event.jobs_in_window": sum(
            1 for request in day.requests
            if start <= request.arrival_time < end
        ),
    })
    return finish(card, scorecard_keys())


def run_surge_mix(
    config: SurgeMixConfig, seed: SeedLike = 0
) -> ScenarioResult:
    """Simulate one disturbance day end to end and score it.

    The result's ``config`` is the platform day the disturbance ran on
    (:meth:`SurgeMixConfig.day_config`).
    """
    day = run_day(config.day_config(), config.workload(seed), seed)
    day.scorecard = build_scorecard(day, config)
    return day
