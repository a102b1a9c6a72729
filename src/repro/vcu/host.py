"""Cards, trays, and the 20-VCU accelerator host (Section 3.3.1).

The physical hierarchy matters to failure management: the *rack* is the
unit of deployment, the card/chassis/cable is the unit of repair, each
VCU has an independent power rail (so a VCU can be disabled alone), and a
host accumulates component faults until it is marked unusable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.vcu.chip import Vcu
from repro.vcu.spec import HostSpec, VcuSpec
from repro.vcu.telemetry import VcuTelemetry


class VcuCard:
    """A full-length PCIe card carrying two VCU ASICs."""

    _ids = itertools.count()

    def __init__(self, spec: VcuSpec = None, host_spec: HostSpec = None):
        spec = spec or VcuSpec()
        host_spec = host_spec or HostSpec()
        self.card_id = f"card-{next(self._ids)}"
        self.vcus = [
            Vcu(spec, vcu_id=f"{self.card_id}/vcu{i}")
            for i in range(host_spec.vcus_per_card)
        ]

    def healthy_vcus(self) -> List[Vcu]:
        return [v for v in self.vcus if not v.disabled]


class VcuTray:
    """An accelerator expansion chassis holding five cards."""

    _ids = itertools.count()

    def __init__(self, spec: VcuSpec = None, host_spec: HostSpec = None):
        host_spec = host_spec or HostSpec()
        self.tray_id = f"tray-{next(self._ids)}"
        self.cards = [
            VcuCard(spec, host_spec) for _ in range(host_spec.cards_per_tray)
        ]
        # Topology is fixed after construction.
        self.vcus: List[Vcu] = [vcu for card in self.cards for vcu in card.vcus]


class VcuHost:
    """One accelerator host: 2 trays x 5 cards x 2 VCUs = 20 VCUs.

    ``numa_aware`` gates the post-launch NUMA scheduling fix; the
    oblivious configuration pays :attr:`HostSpec.numa_penalty` on
    throughput (Section 4.3: fixing it gained 16-25%).
    """

    _ids = itertools.count()

    def __init__(
        self,
        spec: VcuSpec = None,
        host_spec: HostSpec = None,
        numa_aware: bool = True,
        host_id: Optional[str] = None,
    ):
        self.spec = spec or VcuSpec()
        self.host_spec = host_spec or HostSpec()
        self.host_id = host_id or f"host-{next(self._ids)}"
        self.numa_aware = numa_aware
        self.trays = [
            VcuTray(self.spec, self.host_spec)
            for _ in range(self.host_spec.trays_per_host)
        ]
        self.vcus: List[Vcu] = [vcu for tray in self.trays for vcu in tray.vcus]
        self._slot_of: Dict[str, int] = {}
        # Fault-sweep bookkeeping, fed by the devices' own dirty marks:
        # bit ``slot`` set for each VCU changed since the last sweep, and
        # for each disabled VCU.
        self._dirty_bits = 0
        self._disabled_bits = 0
        # One shared callback per host, not one per device: a fleet has
        # tens of thousands of devices.
        on_vcu, on_telemetry = self._note_vcu_changed, self._note_telemetry_changed
        for vcu in self.vcus:
            vcu.on_dirty = on_vcu
            vcu.telemetry.on_change = on_telemetry
        #: Set by the :class:`~repro.failures.management.FailureManager`
        #: watching this host: called with the host after every change
        #: its sweep reads (a dirty device, ``unusable`` written).
        self.on_dirty: Optional[Callable[["VcuHost"], None]] = None
        self._unusable = False
        self.component_faults = 0
        #: Faults before the host is queued for repair (dozens of discrete
        #: components; a handful of hard faults takes it out).
        self.fault_budget = 6

    @property
    def unusable(self) -> bool:
        return self._unusable

    @unusable.setter
    def unusable(self, value: bool) -> None:
        self._unusable = value
        self._mark_dirty()

    @property
    def disabled_count(self) -> int:
        """How many of this host's VCUs are disabled (no recount)."""
        return self._disabled_bits.bit_count()

    def _mark_dirty(self) -> None:
        if self.on_dirty is not None:
            self.on_dirty(self)

    def _note_telemetry_changed(self, telemetry: VcuTelemetry) -> None:
        for vcu in self.vcus:
            if vcu.telemetry is telemetry:
                self._note_vcu_changed(vcu)
                return

    def _note_vcu_changed(self, vcu: Vcu) -> None:
        bit = 1 << self.vcus.index(vcu)
        self._dirty_bits |= bit
        if vcu.disabled:
            self._disabled_bits |= bit
        else:
            self._disabled_bits &= ~bit
        self._mark_dirty()

    def healthy_vcus(self) -> List[Vcu]:
        if self.unusable:
            return []
        return [v for v in self.vcus if not v.disabled]

    @property
    def throughput_multiplier(self) -> float:
        """Host-level efficiency: NUMA-oblivious scheduling costs ~17%."""
        return 1.0 if self.numa_aware else 1.0 / self.host_spec.numa_penalty

    def record_component_fault(self) -> None:
        """A chassis/cable/PSU-level fault; enough of them disables the host."""
        self.component_faults += 1
        if self.component_faults >= self.fault_budget:
            self.unusable = True

    def disable_vcu(self, vcu_id: str) -> None:
        """Disable one VCU (independent power rails make this possible)."""
        slot = self._slot_of.get(vcu_id)
        if slot is None or self.vcus[slot].vcu_id != vcu_id:
            # Built on first use and again after a VCU is renamed.
            self._slot_of = {vcu.vcu_id: i for i, vcu in enumerate(self.vcus)}
            slot = self._slot_of.get(vcu_id)
        if slot is None:
            raise KeyError(f"no VCU {vcu_id!r} on host {self.host_id}")
        self.vcus[slot].disable()

    def sweep_telemetry(self) -> List[Vcu]:
        """Disable any VCU whose fault counters crossed a threshold.

        Only VCUs marked dirty since the last sweep are checked, in host
        order: a device untouched since its last check is either disabled
        or under every threshold, so polling it could change nothing.
        Returns the VCUs disabled by this sweep (the host-level fault
        collection workflow of Section 4.4).
        """
        newly_disabled = []
        dirty = self._dirty_bits
        if dirty:
            for slot, vcu in enumerate(self.vcus):
                if (
                    dirty >> slot & 1
                    and not vcu.disabled
                    and vcu.telemetry.should_disable()
                ):
                    vcu.disable()
                    newly_disabled.append(vcu)
                    self.component_faults += 1
            # Drops the marks this sweep's own disables just made.
            self._dirty_bits = 0
        if self.component_faults >= self.fault_budget and not self._unusable:
            self.unusable = True
        return newly_disabled
