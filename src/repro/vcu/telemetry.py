"""Per-VCU health telemetry (Section 4.4).

The firmware reports temperature, resets, and ECC counters; the host
aggregates them and marks itself unusable once enough faults accumulate.
DRAM has SECDED ECC; many embedded SRAMs are detect-only (double-error
detect), so uncorrectable counts matter more than corrected ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class FaultKind(enum.Enum):
    ECC_CORRECTED = "ecc_corrected"
    ECC_UNCORRECTABLE = "ecc_uncorrectable"
    RESET = "reset"
    THERMAL = "thermal"
    PCIE = "pcie"
    #: A step blew through its watchdog deadline on this device -- the
    #: firmware-hang signature the resilience subsystem detects.
    HANG = "hang"
    #: The device failed a golden re-screen battery while quarantined.
    GOLDEN_FAIL = "golden_fail"


#: Faults of each kind tolerated before the device should be disabled.
DISABLE_THRESHOLDS: Dict[FaultKind, int] = {
    FaultKind.ECC_CORRECTED: 1000,
    FaultKind.ECC_UNCORRECTABLE: 3,
    FaultKind.RESET: 5,
    FaultKind.THERMAL: 10,
    FaultKind.PCIE: 3,
    FaultKind.HANG: 3,
    FaultKind.GOLDEN_FAIL: 2,
}


@dataclass
class VcuTelemetry:
    """Counters mirrored from device firmware.

    ``record`` and ``reset`` are the only writers of the counters; each
    calls ``on_change`` with this telemetry afterwards, which is how the
    owning host marks the device dirty for the event-driven fault sweep.
    """

    vcu_id: str
    temperature_c: float = 55.0
    counters: Dict[FaultKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in FaultKind}
    )
    history: List[Tuple[float, FaultKind]] = field(default_factory=list)
    on_change: Optional[Callable[["VcuTelemetry"], None]] = field(
        default=None, repr=False, compare=False
    )

    def record(self, kind: FaultKind, at_time: float = 0.0, count: int = 1) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.counters[kind] += count
        self.history.append((at_time, kind))
        if self.on_change is not None:
            self.on_change(self)

    def reset(self) -> None:
        """Clear every counter and the history (fresh silicon)."""
        for kind in self.counters:
            self.counters[kind] = 0
        self.history.clear()
        if self.on_change is not None:
            self.on_change(self)

    def should_disable(self) -> bool:
        """Whether accumulated faults cross any disable threshold."""
        return any(
            self.counters[kind] >= threshold
            for kind, threshold in DISABLE_THRESHOLDS.items()
        )

    def total_faults(self) -> int:
        return sum(self.counters.values())

    def snapshot(self) -> Dict[str, float]:
        """A flat metrics view, as the fleet monitoring system would see."""
        view: Dict[str, float] = {"temperature_c": self.temperature_c}
        for kind, value in self.counters.items():
            view[kind.value] = float(value)
        return view
