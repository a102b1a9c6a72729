"""The flagship "global platform day" scenario and its SLO scorecard.

One simulated day of diurnal upload + live + batch traffic over a
four-region fleet; mid-day, one region drops out for a fifth of the day.
The control plane drains the lost region to the survivors, admission
sheds class-ordered load while capacity is short, the capacity
autoscaler grows the surviving sites, and the region rejoins.  The
output is a flat, deterministic **SLO scorecard**: per-class completion
and shed rates, retry counts, queue-wait percentiles, failover/spill
accounting, autoscale activity, and the conservation verdict (every
submitted job in exactly one terminal state).

The scorecard's key set is static (:func:`scorecard_keys`), which is
what the CI smoke job checks: a refactor that silently drops a metric
fails the key diff before anyone reads a dashboard.  :func:`run_day` is
the one day-run path: the surge-mix disturbance days
(:mod:`repro.control.surge`) run it over their evented demand with the
outage off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.cluster.autoscale import CapacityAutoscaleConfig
from repro.control.jobs import JobRequest, RetryPolicy, SloClass
from repro.control.plane import ControlPlane, ModeledExecutor, make_sites
from repro.control.scorecard import (
    CLASS_FIELDS,
    class_fields,
    finish,
    grouped,
    job_totals,
    key_set,
    schedule_arrivals,
)
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike
from repro.workloads.platform import PlatformDayConfig, PlatformDayWorkload

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1

#: The default fleet: four regions, 180 slots total, sized so the
#: diurnal peak (~166 slot-equivalents) fits with a little margin --
#: the healthy fleet sheds nothing -- while the loss of us-east
#: (64 slots) leaves the survivors genuinely short and forces
#: class-ordered shedding.
DEFAULT_SITES: Tuple[Tuple[str, str, Tuple[float, float], int], ...] = (
    ("us-west", "us", (0.0, 0.0), 44),
    ("us-east", "us", (40.0, 0.0), 64),
    ("eu-west", "eu", (90.0, 10.0), 40),
    ("ap-south", "apac", (160.0, -10.0), 32),
)

_GLOBAL_FIELDS = (
    "schema_version",
    "jobs.submitted", "jobs.done", "jobs.failed", "jobs.shed",
    "failover.routed", "failover.drained_queued", "failover.drained_running",
    "spill.routed",
    "autoscale.actions", "autoscale.peak_slots",
    "outages.count", "dead_letter.count",
    "conservation.ok",
)


def scorecard_keys() -> Tuple[str, ...]:
    """The exact, sorted key set every scorecard carries."""
    return key_set(
        _GLOBAL_FIELDS,
        grouped("class", (cls.label for cls in SloClass), CLASS_FIELDS),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """One global-platform-day run, fully specified."""

    #: Length of the (compressed) day; rates are per second regardless.
    day_seconds: float = 3600.0
    #: Whether the mid-day regional outage happens at all (the control
    #: arm of the experiment runs with it off).
    outage: bool = True
    outage_site: str = "us-east"
    outage_start_frac: float = 0.40
    outage_duration_frac: float = 0.20
    #: Per-attempt execution fault probability (drives retries).
    failure_rate: float = 0.02
    autoscale: bool = True
    autoscale_interval_seconds: float = 60.0
    #: Autoscale ceiling as a multiple of each site's base slots.
    max_slots_factor: int = 2
    site_specs: Tuple[Tuple[str, str, Tuple[float, float], int], ...] = (
        DEFAULT_SITES
    )

    def __post_init__(self) -> None:
        if self.day_seconds <= 0:
            raise ValueError("day_seconds must be positive")
        if not 0.0 <= self.outage_start_frac < 1.0:
            raise ValueError("outage_start_frac must be in [0, 1)")
        if self.outage_duration_frac <= 0:
            raise ValueError("outage_duration_frac must be positive")
        names = [name for name, _, _, _ in self.site_specs]
        if self.outage and self.outage_site not in names:
            raise ValueError(
                f"outage_site {self.outage_site!r} not in {names}"
            )

    def workload_config(self) -> PlatformDayConfig:
        return PlatformDayConfig(day_seconds=self.day_seconds)


@dataclass
class ScenarioResult:
    """Everything a caller might inspect after a platform or surge-mix
    day drains."""

    config: ScenarioConfig
    plane: ControlPlane
    requests: List[JobRequest]
    end_time: float
    scorecard: Dict[str, Any]


def build_scorecard(plane: ControlPlane) -> Dict[str, Any]:
    """The flat SLO scorecard, keys sorted, values rounded."""
    autoscaler = plane.autoscaler
    card: Dict[str, Any] = {
        "schema_version": SCORECARD_VERSION,
        **job_totals(plane),
        **class_fields(plane, SloClass, CLASS_FIELDS),
        "failover.routed": plane.router.failover_routed,
        "failover.drained_queued": plane.drained_queued,
        "failover.drained_running": plane.drained_running,
        "spill.routed": plane.router.spill_routed,
        "autoscale.actions": 0 if autoscaler is None else autoscaler.actions,
        "autoscale.peak_slots": plane.peak_capacity,
        "outages.count": plane.outages_started,
        "dead_letter.count": len(plane.dead_letters),
        "conservation.ok": bool(plane.ledger.conservation_report()["ok"]),
    }
    return finish(card, scorecard_keys())


def run_global_platform_day(
    config: ScenarioConfig, seed: SeedLike = 0
) -> ScenarioResult:
    """Simulate one platform day end to end and score it."""
    workload = PlatformDayWorkload(config.workload_config(), seed=seed)
    return run_day(config, workload, seed)


def run_day(
    config: ScenarioConfig, workload: PlatformDayWorkload, seed: SeedLike
) -> ScenarioResult:
    """Run ``config``'s day over ``workload``'s demand and score it.

    The simulation runs past ``day_seconds`` until the event queue
    drains -- arrivals stop at the day boundary, but the backlog's tail
    (including retry backoffs) is allowed to finish, so the conservation
    invariant is checkable: every job is terminal at return.
    """
    sim = Simulator()
    sites = make_sites(
        config.site_specs, max_slots_factor=config.max_slots_factor
    )
    plane = ControlPlane(
        sim,
        sites,
        retry=RetryPolicy(),
        autoscale=CapacityAutoscaleConfig() if config.autoscale else None,
        autoscale_interval_seconds=config.autoscale_interval_seconds,
        executor=ModeledExecutor(
            sim, seed=seed, failure_rate=config.failure_rate
        ),
        seed=seed,
    )
    requests = workload.requests(until=config.day_seconds)
    schedule_arrivals(sim, plane, requests)
    if config.outage:
        plane.schedule_outage(
            config.outage_site,
            at=config.outage_start_frac * config.day_seconds,
            duration_seconds=config.outage_duration_frac * config.day_seconds,
        )
    if config.autoscale:
        plane.start_autoscaler(until=config.day_seconds)
    sim.run()
    return ScenarioResult(
        config=config,
        plane=plane,
        requests=requests,
        end_time=sim.now,
        scorecard=build_scorecard(plane),
    )
