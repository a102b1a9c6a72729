"""Tests for bin-packing vs single-slot scheduling and pools."""

from contextlib import nullcontext

import pytest

from repro.cluster.pool import Pool, PoolKey, Priority, UseCase, rebalance_pools
from repro.cluster.scheduler import (
    FIT_CHUNK_ROWS,
    BinPackingScheduler,
    SingleSlotScheduler,
)
from repro.cluster.worker import VcuWorker
from repro.sim.rng import make_rng
from repro.vcu.chip import Vcu
from repro.vcu.spec import DEFAULT_VCU_SPEC


def make_workers(count=3):
    return [VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"s-vcu{i}")) for i in range(count)]


class TestBinPacking:
    def test_figure6_example(self):
        # Worker 0 has no decode millicores left; the request lands on
        # Worker 1 (first fit by worker number); Worker N stays idle.
        workers = make_workers(3)
        assert workers[0].try_admit({"millidecode": 3000.0})  # exhaust decode
        scheduler = BinPackingScheduler(workers)
        request = {"millidecode": 500.0, "milliencode": 3750.0}
        placed = scheduler.place(request)
        assert placed is workers[1]
        assert workers[2].is_idle()

    def test_atomic_multidimensional_fit(self):
        workers = make_workers(1)
        scheduler = BinPackingScheduler(workers)
        assert scheduler.place({"milliencode": 9000.0}) is workers[0]
        # encode nearly full: a request needing encode+decode must fail
        # even though decode alone would fit.
        assert scheduler.place({"milliencode": 2000.0, "millidecode": 100.0}) is None
        assert scheduler.rejections == 1

    def test_exclusion_list_respected(self):
        workers = make_workers(2)
        scheduler = BinPackingScheduler(workers)
        placed = scheduler.place({"milliencode": 100.0}, excluded={workers[0].name})
        assert placed is workers[1]

    def test_disabled_worker_skipped(self):
        workers = make_workers(2)
        workers[0].vcu.disable()
        scheduler = BinPackingScheduler(workers)
        assert scheduler.place({"milliencode": 1.0}) is workers[1]

    def test_add_remove_worker(self):
        workers = make_workers(1)
        scheduler = BinPackingScheduler([])
        assert scheduler.place({"milliencode": 1.0}) is None
        scheduler.add_worker(workers[0])
        assert scheduler.place({"milliencode": 1.0}) is workers[0]
        scheduler.remove_worker(workers[0])
        assert scheduler.workers == []


class TestSingleSlot:
    def test_slot_exhaustion_strands_capacity(self):
        # The legacy model: tiny steps burn whole slots, so a worker
        # "fills up" while its physical resources are mostly idle.
        workers = make_workers(1)
        scheduler = SingleSlotScheduler(workers, slots_per_worker=2)
        tiny = {"milliencode": 100.0}
        assert scheduler.place(tiny) is workers[0]
        assert scheduler.place(tiny) is workers[0]
        assert scheduler.place(tiny) is None  # slots gone, capacity stranded
        assert workers[0].vcu.encoder_utilization() < 0.05

    def test_release_slot_restores(self):
        workers = make_workers(1)
        scheduler = SingleSlotScheduler(workers, slots_per_worker=1)
        request = {"milliencode": 100.0}
        worker = scheduler.place(request)
        assert scheduler.place(request) is None
        worker.release(request)
        scheduler.release_slot(worker)
        assert scheduler.place(request) is worker

    def test_validates_slots(self):
        with pytest.raises(ValueError):
            SingleSlotScheduler(make_workers(1), slots_per_worker=0)


class TestIndexedScanEquivalence:
    """The indexed ``place`` must reproduce the linear scan exactly.

    Replays one pseudo-random placement/release stream through two
    identical fleets -- one driven by the pre-index ``place_scan``, one
    by the indexed ``place`` -- and asserts the placement *sequences*
    match worker for worker.  Two fleets are required because both paths
    mutate worker resources as they admit."""

    REQUEST_SHAPES = [
        {"millidecode": 250.0, "milliencode": 1200.0, "dram_bytes": 40e6},
        {"millidecode": 500.0, "milliencode": 3750.0, "dram_bytes": 160e6},
        {"millidecode": 120.0, "milliencode": 600.0, "dram_bytes": 20e6},
        {"millidecode": 1000.0, "milliencode": 7500.0, "dram_bytes": 330e6},
    ]

    def _replay(self, place_attr, steps, workers_n=7, seed=123):
        workers = [
            VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"eq-vcu{i}"))
            for i in range(workers_n)
        ]
        scheduler = BinPackingScheduler(workers)
        place = getattr(scheduler, place_attr)
        rng = make_rng(seed)
        in_flight = []
        trace = []
        for _ in range(steps):
            if in_flight and rng.random() < 0.35:
                worker, request = in_flight.pop(int(rng.integers(len(in_flight))))
                scheduler.release(worker, request)
                trace.append(("release", worker.name))
                continue
            request = self.REQUEST_SHAPES[int(rng.integers(len(self.REQUEST_SHAPES)))]
            worker = place(request)
            if worker is None:
                trace.append(("reject", None))
            else:
                in_flight.append((worker, request))
                trace.append(("place", worker.name))
        return trace, scheduler

    def test_indexed_matches_scan_on_replayed_stream(self):
        for seed in (1, 22, 333):
            scan_trace, scan_sched = self._replay("place_scan", 600, seed=seed)
            fast_trace, fast_sched = self._replay("place", 600, seed=seed)
            assert fast_trace == scan_trace
            assert fast_sched.rejections == scan_sched.rejections
            assert fast_sched.placements == scan_sched.placements

    def test_indexed_matches_scan_with_preference_and_exclusion(self):
        for seed in (7, 70):
            traces = []
            for place_attr in ("place_scan", "place"):
                workers = [
                    VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"pe-vcu{i}"))
                    for i in range(5)
                ]
                scheduler = BinPackingScheduler(workers)
                place = getattr(scheduler, place_attr)
                rng = make_rng(seed)
                names = [w.name for w in workers]
                trace = []
                in_flight = []
                for _ in range(300):
                    if in_flight and rng.random() < 0.4:
                        worker, request = in_flight.pop(
                            int(rng.integers(len(in_flight)))
                        )
                        scheduler.release(worker, request)
                        trace.append(("release", worker.name))
                        continue
                    request = self.REQUEST_SHAPES[
                        int(rng.integers(len(self.REQUEST_SHAPES)))
                    ]
                    preference = (
                        [names[i] for i in rng.choice(5, size=2, replace=False)]
                        if rng.random() < 0.5 else None
                    )
                    excluded = (
                        {names[int(rng.integers(len(names)))]}
                        if rng.random() < 0.3 else frozenset()
                    )
                    worker = place(request, preference=preference, excluded=excluded)
                    if worker is None:
                        trace.append(("reject", None))
                    else:
                        in_flight.append((worker, request))
                        trace.append(("place", worker.name))
                traces.append(trace)
            assert traces[0] == traces[1]


class TestChunkedScanEquivalence:
    """``place`` against ``place_scan`` on a fleet of several fit-mask
    chunks, inside and outside ``batch()``.

    Each case sets up two identical fleets, then replays one random
    place/release stream through both (placements batched a few at a
    time in the batched variant) and compares the decisions.  The first
    placement of every stream carries the case's exclusions or
    preference and must land on the case's expected first fit."""

    ROWS = 2 * FIT_CHUNK_ROWS + 300
    FILL = {"milliencode": float(DEFAULT_VCU_SPEC.milliencode)}
    SHAPES = TestIndexedScanEquivalence.REQUEST_SHAPES + [
        {"milliencode": 6000.0, "millidecode": 1500.0},
    ]

    @staticmethod
    def _fill(scheduler, workers, indices):
        for index in indices:
            assert workers[index].try_admit(TestChunkedScanEquivalence.FILL)
        scheduler.refresh()

    def _replay(self, place_attr, setup, batched, seed, steps=150):
        workers = [
            VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"ch-vcu{i}"))
            for i in range(self.ROWS)
        ]
        scheduler = BinPackingScheduler(workers)
        excluded, preference = setup(scheduler, workers)
        place = getattr(scheduler, place_attr)
        rng = make_rng(seed)
        in_flight, trace = [], []
        done = 0
        while done < steps:
            with scheduler.batch() if batched else nullcontext():
                for _ in range(int(rng.integers(1, 9))):
                    done += 1
                    if in_flight and rng.random() < 0.3:
                        worker, request = in_flight.pop(
                            int(rng.integers(len(in_flight))))
                        scheduler.release(worker, request)
                        trace.append(("release", worker.name))
                        continue
                    request = self.SHAPES[int(rng.integers(len(self.SHAPES)))]
                    # Half the calls drop the exclusions and preference,
                    # so rows one call skips must stay open to the next.
                    if not trace or rng.random() < 0.5:
                        worker = place(request, excluded=excluded,
                                       preference=preference)
                    else:
                        worker = place(request)
                    trace.append(("place", worker.name if worker else None))
                    if worker is not None:
                        in_flight.append((worker, request))
        return trace

    def _assert_equivalent(self, setup, first_fit):
        for batched, seed in ((False, 5), (True, 55)):
            scan = self._replay("place_scan", setup, batched, seed)
            fast = self._replay("place", setup, batched, seed)
            assert fast == scan
            assert scan[0] == ("place", f"worker:ch-vcu{first_fit}")

    def test_first_fit_beyond_the_first_chunk(self):
        deep = FIT_CHUNK_ROWS + 7

        def setup(scheduler, workers):
            self._fill(scheduler, workers, range(deep))
            return frozenset(), None

        self._assert_equivalent(setup, first_fit=deep)

    def test_exclusions_straddle_a_chunk_boundary(self):
        edge = 2 * FIT_CHUNK_ROWS

        def setup(scheduler, workers):
            self._fill(scheduler, workers, range(edge - 3))
            names = {w.name for w in workers[edge - 3:edge + 4]}
            return names, None

        self._assert_equivalent(setup, first_fit=edge + 4)

    def test_preference_across_chunks(self):
        def setup(scheduler, workers):
            self._fill(scheduler, workers, [FIT_CHUNK_ROWS + 1, 3])
            preference = [workers[i].name
                          for i in (FIT_CHUNK_ROWS + 1, 2 * FIT_CHUNK_ROWS + 9, 3)]
            return frozenset(), preference

        self._assert_equivalent(setup, first_fit=2 * FIT_CHUNK_ROWS + 9)

    def test_unobserved_release_forces_refresh_and_rescan(self):
        free = [FIT_CHUNK_ROWS + 2, 2 * FIT_CHUNK_ROWS + 11, self.ROWS - 1]

        def setup(scheduler, workers):
            self._fill(scheduler, workers, range(self.ROWS))
            for index in free:  # behind the index's back
                workers[index].release(self.FILL)
            return frozenset(), None

        self._assert_equivalent(setup, first_fit=free[0])


class TestPools:
    def test_rebalance_moves_idle_workers_to_pressure(self):
        upload = Pool(PoolKey(Priority.NORMAL, UseCase.UPLOAD))
        live = Pool(PoolKey(Priority.CRITICAL, UseCase.LIVE))
        upload.workers = make_workers(3)
        live.pending_steps = 10
        moved = rebalance_pools({upload.key: upload, live.key: live})
        assert moved > 0
        assert len(live.workers) == moved
        assert all(w.pool_key == live.key for w in live.workers)

    def test_no_move_when_donor_busy(self):
        upload = Pool(PoolKey(Priority.NORMAL, UseCase.UPLOAD))
        live = Pool(PoolKey(Priority.CRITICAL, UseCase.LIVE))
        upload.workers = make_workers(1)
        upload.pending_steps = 5  # donor has its own backlog
        live.pending_steps = 10
        moved = rebalance_pools({upload.key: upload, live.key: live})
        assert moved == 0

    def test_demand_pressure(self):
        pool = Pool(PoolKey(Priority.BATCH, UseCase.UPLOAD))
        assert pool.demand_pressure() == 0.0
        pool.pending_steps = 4
        assert pool.demand_pressure() == float("inf")
        pool.workers = make_workers(2)
        assert pool.demand_pressure() == 2.0
