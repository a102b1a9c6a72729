"""Reference-time arithmetic of the host-speed sampler, and its signal
contract."""

import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfledger import speed  # noqa: E402


def _sampler(stamps, slices):
    sampler = speed.SpeedSampler()
    sampler.stamps.extend(stamps)
    sampler.slices.extend(slices)
    return sampler


def test_a_host_twice_as_slow_reads_the_same_reference_time():
    ref = speed.REFERENCE_SLICE_S
    stamps = [0.1 * i for i in range(1, 100)]
    fast = _sampler(stamps, [ref] * len(stamps))
    slow = _sampler(stamps, [2 * ref] * len(stamps))
    # 2 s of work on the fast host, 4 s on the slow one, same host marks.
    assert fast.reference_s((1.0, 0.0), (5.0, 2.0)) == pytest.approx(2.0)
    assert slow.reference_s((1.0, 0.0), (5.0, 4.0)) == pytest.approx(2.0)


def test_only_slices_inside_the_phase_scale_it():
    ref = speed.REFERENCE_SLICE_S
    stamps = [float(i) for i in range(40)]
    slices = [ref if s < 20 else 4 * ref for s in stamps]
    sampler = _sampler(stamps, slices)
    assert sampler.reference_s((0.0, 0.0), (19.0, 3.0)) == pytest.approx(3.0)
    assert sampler.reference_s((20.0, 0.0), (39.0, 3.0)) == pytest.approx(0.75)


def test_a_short_phase_borrows_the_nearest_slices():
    ref = speed.REFERENCE_SLICE_S
    stamps = [float(i) for i in range(40)]
    slices = [ref if s < 30 else 3 * ref for s in stamps]
    sampler = _sampler(stamps, slices)
    # No slice falls inside [10.2, 10.4]; the nearest MIN_SLICES all read ref.
    assert sampler.reference_s((10.2, 0.0), (10.4, 0.2)) == pytest.approx(0.2)


def test_sampler_takes_slices_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler(interval_s=0.005) as sampler:
        start = sampler.window()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        end = sampler.window()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.slices) >= speed.MIN_SLICES
    assert sampler.spent == pytest.approx(sum(sampler.slices))
    # The work clock leaves out the slices' time.
    assert end[1] - start[1] < end[0] - start[0]
    assert sampler.reference_s(start, end) > 0
