"""Failure-management tests: injection, screening, black-holing, repair."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
from repro.cluster.health import HealthPolicy, HealthState
from repro.failures import FailureManager, FaultInjector, RepairQueue
from repro.failures.management import blast_radius
from repro.sim import Simulator
from repro.transcode import PopularityBucket, build_transcode_graph
from repro.vcu.chip import Vcu
from repro.vcu.host import VcuHost
from repro.vcu.spec import DEFAULT_VCU_SPEC, HostSpec
from repro.vcu.telemetry import FaultKind
from repro.video.frame import resolution


def graph(video_id="v1", frames=300):
    return build_transcode_graph(
        video_id=video_id, source=resolution("720p"), total_frames=frames,
        fps=30.0, bucket=PopularityBucket.WARM,
    )


class TestGoldenScreening:
    def test_corrupt_vcu_refused_at_worker_start(self):
        vcu = Vcu(DEFAULT_VCU_SPEC)
        vcu.mark_corrupt()
        worker = VcuWorker(vcu, golden_screening=True)
        assert worker.refused
        assert not worker.available()

    def test_screening_can_be_disabled(self):
        vcu = Vcu(DEFAULT_VCU_SPEC)
        vcu.mark_corrupt()
        worker = VcuWorker(vcu, golden_screening=False)
        assert worker.available()


class TestRetriesAndCorruption:
    def _run(self, integrity_rate, screening, seed=3):
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"f{seed}-vcu{i}") for i in range(3)]
        vcus[0].mark_corrupt()  # fails *after* screening-time in test below
        workers = [VcuWorker(v, golden_screening=screening) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)],
            integrity_check_rate=integrity_rate, seed=seed,
        )
        g = graph()
        cluster.submit(g)
        sim.run()
        return cluster, g

    def test_integrity_checks_catch_and_retry(self):
        cluster, g = self._run(integrity_rate=1.0, screening=False)
        assert g.completed_at is not None
        assert cluster.stats.corrupt_escaped == 0
        assert cluster.stats.retries > 0
        # Retried steps must have landed on a different VCU.
        for step in g.transcode_steps():
            assert not step.corrupt_output

    def test_quarantine_after_detection(self):
        cluster, _ = self._run(integrity_rate=1.0, screening=False)
        corrupt_workers = [w for w in cluster.vcu_workers if w.vcu.corrupt]
        assert all(w.refused for w in corrupt_workers)

    def test_screening_prevents_any_corruption(self):
        cluster, g = self._run(integrity_rate=0.0, screening=True)
        assert cluster.stats.corrupt_escaped == 0
        assert g.completed_at is not None

    def test_escapes_without_checks_or_screening(self):
        # With no integrity checks and no screening, some bad chunks
        # escape -- the residual risk Section 4.4 acknowledges.
        cluster, g = self._run(integrity_rate=0.0, screening=False)
        assert cluster.stats.corrupt_escaped > 0


class TestBlackHoling:
    def test_fast_corrupt_vcu_attracts_work_without_mitigation(self):
        # A failing-but-fast VCU completes steps quicker, so first-fit
        # keeps it loaded; record its share of processed chunks.
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"bh-vcu{i}") for i in range(2)]
        vcus[0].mark_corrupt()
        workers = [VcuWorker(v, golden_screening=False) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)], integrity_check_rate=0.0, seed=1
        )
        graphs = [graph(f"v{i}") for i in range(4)]
        for g in graphs:
            cluster.submit(g)
        sim.run()
        processed = [s.processed_by for g in graphs for s in g.transcode_steps()]
        share = blast_radius(processed, "bh-vcu0") / len(processed)
        assert share > 0.5  # the bad VCU black-holed most traffic

    def test_blast_radius_counts(self):
        assert blast_radius(["a", "b", "a", None], "a") == 2


class TestFaultInjector:
    def test_corrupt_at_fires_on_schedule(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC)
        injector = FaultInjector(sim, [vcu])
        injector.corrupt_at(5.0, vcu)
        sim.run(until=4.0)
        assert not vcu.corrupt
        sim.run()
        assert vcu.corrupt

    def test_hard_faults_recorded_in_telemetry(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC)
        injector = FaultInjector(sim, [vcu])
        injector.hard_fault_at(1.0, vcu, FaultKind.ECC_UNCORRECTABLE, count=3)
        sim.run()
        assert vcu.telemetry.should_disable()

    def test_random_corruptions_deterministic_per_seed(self):
        def events(seed):
            sim = Simulator()
            vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"r{seed}-{i}") for i in range(10)]
            injector = FaultInjector(sim, vcus, seed=seed)
            return [(e.at_time) for e in injector.random_corruptions(0.5, until=3600)]

        assert events(7) == events(7)

    def test_zero_rate_injects_nothing(self):
        sim = Simulator()
        injector = FaultInjector(sim, [Vcu(DEFAULT_VCU_SPEC)])
        assert injector.random_corruptions(0.0, until=100) == []


class TestRegionalOutage:
    def _fleet(self, n_hosts=3):
        sim = Simulator()
        hosts = [VcuHost(host_id=f"ro-{i}") for i in range(n_hosts)]
        vcus = [vcu for host in hosts for vcu in host.vcus]
        return sim, hosts, FaultInjector(sim, vcus)

    def test_every_vcu_wedges_then_clears_together(self):
        sim, hosts, injector = self._fleet()
        events = injector.regional_outage(10.0, hosts, duration=50.0)
        assert len(events) == sum(len(h.vcus) for h in hosts)
        assert all(e.kind == "hang" for e in events)
        sim.run(until=9.0)
        assert not any(v.hung for h in hosts for v in h.vcus)
        sim.run(until=30.0)
        assert all(v.hung for h in hosts for v in h.vcus)
        sim.run()  # outage lifts at t=60: a single restoration event
        assert sim.now == pytest.approx(60.0)
        assert not any(v.hung for h in hosts for v in h.vcus)

    def test_stagger_rolls_across_hosts(self):
        sim, hosts, injector = self._fleet()
        injector.regional_outage(0.0, hosts, duration=100.0,
                                 stagger_seconds=10.0)
        sim.run(until=15.0)  # host 0 (t=0) and host 1 (t=10) hit, not host 2
        assert all(v.hung for v in hosts[0].vcus)
        assert all(v.hung for v in hosts[1].vcus)
        assert not any(v.hung for v in hosts[2].vcus)
        sim.run()
        assert not any(v.hung for h in hosts for v in h.vcus)

    def test_validation(self):
        sim, hosts, injector = self._fleet()
        with pytest.raises(ValueError):
            injector.regional_outage(0.0, hosts, duration=0.0)
        with pytest.raises(ValueError):
            injector.regional_outage(0.0, [], duration=10.0)
        with pytest.raises(ValueError):
            # Third host would come up at t=20, after the t=15 clear.
            injector.regional_outage(0.0, hosts, duration=15.0,
                                     stagger_seconds=10.0)


class TestFleetManagement:
    def test_sweep_disables_and_queues_repair(self):
        hosts = [VcuHost() for _ in range(2)]
        manager = FailureManager(hosts)
        # Cross the host fault budget on host 0.
        for vcu in hosts[0].vcus[:6]:
            vcu.telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=5)
        disabled = manager.sweep()
        assert len(disabled) == 6
        assert hosts[0].unusable
        assert manager.available_vcu_count() == 20  # only host 1 healthy

    def test_repair_cap_limits_capacity_loss(self):
        hosts = [VcuHost() for _ in range(4)]
        queue = RepairQueue(cap=2)
        accepted = [queue.enqueue(h) for h in hosts]
        assert accepted == [True, True, False, False]

    def test_repair_restores_host(self):
        host = VcuHost()
        host.unusable = True
        host.vcus[0].disable()
        queue = RepairQueue(cap=1)
        queue.enqueue(host)
        queue.start_repairs()
        queue.finish_repair(host)
        assert not host.unusable
        assert len(host.healthy_vcus()) == 20

    def test_capacity_fraction(self):
        hosts = [VcuHost()]
        manager = FailureManager(hosts)
        assert manager.fleet_capacity_fraction() == 1.0
        hosts[0].vcus[0].disable()
        assert manager.fleet_capacity_fraction() == pytest.approx(0.95)


# --------------------------------------------------------------------- #
# Event-driven sweep vs the polling oracle


def polling_sweep(manager):
    """The polling ``FailureManager.sweep``: every VCU of every host.

    Kept as the oracle for the event-driven sweep, which must return the
    same ids in the same order and leave the same host and queue state.
    """
    newly_disabled = []
    for host in manager.hosts:
        for vcu in host.vcus:
            if not vcu.disabled and vcu.telemetry.should_disable():
                vcu.disable()
                newly_disabled.append(vcu.vcu_id)
                host.component_faults += 1
        if host.component_faults >= host.fault_budget:
            host.unusable = True
        needs_repair = host.unusable or (
            manager.card_swap_threshold is not None
            and sum(1 for vcu in host.vcus if vcu.disabled)
            >= manager.card_swap_threshold
        )
        if needs_repair and not manager.repair_queue.queued(host):
            manager.repair_queue.enqueue(host)
    manager.disabled_vcus.extend(newly_disabled)
    return newly_disabled


SWEEP_HOSTS = 3
SWEEP_SLOTS = 4  # VCUs per host


class SweepFleet:
    """Small hosts, one health-machine worker per VCU, and a manager."""

    def __init__(self, card_swap_threshold):
        spec = HostSpec(vcus_per_card=2, cards_per_tray=2, trays_per_host=1)
        self.hosts = [VcuHost(host_spec=spec, host_id=f"h{i}")
                      for i in range(SWEEP_HOSTS)]
        self.workers = [
            [VcuWorker(vcu, host=host, golden_screening=False,
                       health_policy=HealthPolicy(max_rescreen_failures=1))
             for vcu in host.vcus]
            for host in self.hosts
        ]
        self.manager = FailureManager(
            self.hosts, repair_cap=1, card_swap_threshold=card_swap_threshold)
        self.position = {vcu.vcu_id: (h, s)
                         for h, host in enumerate(self.hosts)
                         for s, vcu in enumerate(host.vcus)}

    def apply(self, op):
        name, h, s, value = op
        host = self.hosts[h]
        vcu, worker = host.vcus[s], self.workers[h][s]
        if name == "record":
            kind = (FaultKind.ECC_UNCORRECTABLE, FaultKind.RESET,
                    FaultKind.PCIE)[value % 3]
            vcu.telemetry.record(kind, count=1 + value // 3)
        elif name == "reset":
            vcu.telemetry.reset()
        elif name == "health_disable":
            # The worker health machine: quarantine, fail the golden
            # battery, exhaust the re-screen budget -> DISABLED.
            vcu.mark_corrupt()
            worker.abort_and_quarantine()
            if worker.health is HealthState.QUARANTINED:
                worker.begin_rescreen()
                worker.finish_rescreen()
        elif name == "enable":
            vcu.enable()
            worker.reset_after_repair()
        elif name == "component_fault":
            host.record_component_fault()
        elif name == "evict":
            host.unusable = True
        elif name == "repair":
            queue = self.manager.repair_queue
            queue.start_repairs()
            if queue.in_repair:
                queue.finish_repair(queue.in_repair[value % len(queue.in_repair)])

    def state(self):
        queue = self.manager.repair_queue
        index = {host: h for h, host in enumerate(self.hosts)}
        return (
            [index[host] for host in queue.waiting],
            [index[host] for host in queue.in_repair],
            [index[host] for host in queue.repaired],
            [(host.unusable, host.component_faults,
              [(vcu.disabled, dict(vcu.telemetry.counters))
               for vcu in host.vcus])
             for host in self.hosts],
        )


sweep_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["record", "record", "reset", "health_disable",
                             "enable", "enable", "component_fault", "evict",
                             "repair", "repair"]),
            st.integers(0, SWEEP_HOSTS - 1),
            st.integers(0, SWEEP_SLOTS - 1),
            st.integers(0, 8),
        ),
        st.just(("sweep", 0, 0, 0)),
    ),
    max_size=80,
)


class TestEventDrivenSweep:
    @settings(max_examples=400, deadline=None)
    @given(ops=sweep_ops, card_swap_threshold=st.sampled_from([None, 1, 2]))
    def test_matches_polling_oracle(self, ops, card_swap_threshold):
        fast, oracle = SweepFleet(card_swap_threshold), SweepFleet(card_swap_threshold)
        for op in ops + [("sweep", 0, 0, 0)]:
            if op[0] != "sweep":
                fast.apply(op)
                oracle.apply(op)
                continue
            got = [fast.position[v] for v in fast.manager.sweep()]
            want = [oracle.position[v] for v in polling_sweep(oracle.manager)]
            assert got == want
            assert fast.state() == oracle.state()
            for host in fast.hosts:
                assert host.disabled_count == sum(v.disabled for v in host.vcus)

    def test_re_enabled_vcu_is_swept_again(self):
        fleet = SweepFleet(card_swap_threshold=None)
        vcu = fleet.hosts[0].vcus[1]
        vcu.telemetry.record(FaultKind.PCIE, count=3)
        assert fleet.manager.sweep() == [vcu.vcu_id]
        # Enabled without a counter reset: the old faults still count.
        vcu.enable()
        assert fleet.manager.sweep() == [vcu.vcu_id]
        vcu.enable()
        vcu.telemetry.reset()
        assert fleet.manager.sweep() == []
        assert not vcu.disabled

    def test_host_refused_by_the_cap_is_enqueued_later(self):
        fleet = SweepFleet(card_swap_threshold=1)
        queue = fleet.manager.repair_queue
        for host in fleet.hosts[:2]:
            host.vcus[0].telemetry.record(FaultKind.PCIE, count=3)
        fleet.manager.sweep()
        assert list(queue.waiting) == [fleet.hosts[0]]
        queue.start_repairs()
        queue.finish_repair(fleet.hosts[0])
        # Nothing touched host 1 since it was refused; it still enters.
        fleet.manager.sweep()
        assert list(queue.waiting) == [fleet.hosts[1]]

    def test_only_touched_vcus_are_checked(self, monkeypatch):
        fleet = SweepFleet(card_swap_threshold=None)
        fleet.manager.sweep()
        checked = []
        original = type(fleet.hosts[0].vcus[0].telemetry).should_disable
        monkeypatch.setattr(
            type(fleet.hosts[0].vcus[0].telemetry), "should_disable",
            lambda self: checked.append(self.vcu_id) or original(self),
        )
        target = fleet.hosts[2].vcus[3]
        target.telemetry.record(FaultKind.RESET)
        assert fleet.manager.sweep() == []
        assert checked == [target.vcu_id]
        assert fleet.manager.sweep() == []
        assert checked == [target.vcu_id]
