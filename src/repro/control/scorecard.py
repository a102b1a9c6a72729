"""The pieces every scenario scorecard is built from, each held once.

A scenario scorecard is a flat dict with a static key set: the
scenario's ``scorecard_keys()`` declares it (built with
:func:`key_set`), its ``build_scorecard`` fills it from these helpers
plus its own fields, and :func:`finish` refuses a card whose keys
drifted from the declaration before sorting it.  Platform day, surge
mix, live ladder, canary rollout, chaos campaign and the tuning
timeline all score through here, so a rounding or accounting rule
changes in one place.

Import-light by contract: :mod:`repro.control.catalog` uses the key-set
helpers, and a cache-hot ``repro-bench run`` must not load the
simulator or numpy.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence, Tuple

from repro.control.jobs import SloClass

if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from repro.cluster.cluster import ClusterStats
    from repro.control.jobs import JobRequest
    from repro.control.plane import ControlPlane
    from repro.sim.engine import Simulator

#: Every per-class SLO field a scorecard may carry.
CLASS_FIELDS: Tuple[str, ...] = (
    "submitted", "done", "failed", "shed", "retries",
    "completion_rate", "shed_rate", "queue_p50", "queue_p90", "queue_p99",
)
_RATES = {"completion_rate": "done", "shed_rate": "shed"}
_QUANTILES = {"queue_p50": 0.50, "queue_p90": 0.90, "queue_p99": 0.99}
_JOB_TOTALS = ("submitted", "done", "failed", "shed")

#: Scorecard key -> :class:`~repro.cluster.cluster.ClusterStats`
#: attribute, for every cluster counter a scenario scores.
CLUSTER_STATS: Dict[str, str] = {
    "cluster.completed_graphs": "completed_graphs",
    "cluster.corrupt_caught": "corrupt_caught",
    "cluster.hangs": "hangs_detected",
    "cluster.host_evictions": "host_evictions",
    "cluster.retries": "retries",
    "cluster.software_fallbacks": "software_fallbacks",
    "cluster.workers_quarantined": "workers_quarantined",
    "cluster.workers_rehabilitated": "workers_rehabilitated",
    "fallback.opportunistic": "opportunistic_fallbacks",
    "fallback.software": "software_fallbacks",
}


def grouped(kind: str, labels: Iterable[str], fields: Sequence[str]) -> List[str]:
    """``<kind>.<label>.<field>`` for every label and field."""
    return [f"{kind}.{label}.{field}" for label in labels for field in fields]


def key_set(*parts: Iterable[str]) -> Tuple[str, ...]:
    """The sorted key set a ``scorecard_keys()`` returns."""
    return tuple(sorted(chain(*parts)))


def finish(card: Dict[str, Any], keys: Tuple[str, ...]) -> Dict[str, Any]:
    """Check ``card`` carries exactly ``keys``, then sort it."""
    if tuple(sorted(card)) != keys:
        raise RuntimeError("scorecard keys drifted from scorecard_keys()")
    return dict(sorted(card.items()))


def job_totals(plane: "ControlPlane") -> Dict[str, int]:
    """``jobs.{submitted,done,failed,shed}`` summed over every SLO class."""
    counts = plane.class_counts()
    return {
        f"jobs.{key}": sum(counts[cls.label][key] for cls in SloClass)
        for key in _JOB_TOTALS
    }


def class_fields(
    plane: "ControlPlane",
    classes: Iterable[SloClass],
    fields: Sequence[str],
) -> Dict[str, Any]:
    """``class.<label>.<field>`` for each class: counts as-is, rates
    rounded to 6 places, queue-wait quantiles to 9."""
    counts = plane.class_counts()
    card: Dict[str, Any] = {}
    for cls in classes:
        bucket = counts[cls.label]
        submitted = bucket["submitted"]
        for field in fields:
            if field in _QUANTILES:
                value = round(plane.queue_wait[cls].quantile(_QUANTILES[field]), 9)
            elif field in _RATES:
                value = round(
                    bucket[_RATES[field]] / submitted if submitted else 0.0, 6
                )
            else:
                value = bucket[field]
            card[f"class.{cls.label}.{field}"] = value
    return card


def cluster_fields(stats: "ClusterStats", keys: Iterable[str]) -> Dict[str, Any]:
    """The :data:`CLUSTER_STATS` keys among ``keys``, read off ``stats``."""
    return {key: getattr(stats, CLUSTER_STATS[key])
            for key in keys if key in CLUSTER_STATS}


def schedule_arrivals(
    sim: "Simulator", plane: "ControlPlane", requests: Iterable["JobRequest"]
) -> None:
    """Submit each request to ``plane`` at its arrival time."""
    for request in requests:
        sim.call_at(request.arrival_time, lambda r=request: plane.submit(r))
