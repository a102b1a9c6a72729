"""Host-speed sampling, so that timed work is reported in reference seconds.

The benchmark runs on shared hosts whose speed drifts by up to ~1.7x over
a few seconds, so raw host seconds of the same work spread too much from
run to run.  While a run measures, :class:`SpeedSampler` interrupts it
every :data:`INTERVAL_S` with a timer signal and runs a short fixed
calibration slice.  The slice times record how fast the host was while the
work ran, and their own time is taken out of the work's.  A phase's
reference time is its host time scaled by :data:`REFERENCE_SLICE_S` over
the mean slice time measured during it: the seconds it would have taken on
a host where the slice takes :data:`REFERENCE_SLICE_S`.  Work that the
program makes twice as slow still reads twice as long; a host that is
twice as slow for a while does not.
"""

from __future__ import annotations

import signal
import time
from array import array
from typing import Any, Tuple

import numpy as np

#: Seconds between calibration slices while a run measures.
INTERVAL_S = 0.05
#: Seconds one slice takes on the reference host.  Reference seconds are
#: host seconds on a host this fast; on a 2-core shared Xeon VM a slice
#: takes about 1.1 ms.
REFERENCE_SLICE_S = 0.001
#: Fewest slices that scale a phase; a shorter phase borrows the slices
#: nearest to it in time.
MIN_SLICES = 8

_BLOCK = np.arange(64, dtype=np.float64).reshape(8, 8)


def calibration_slice() -> float:
    """Pure-Python arithmetic plus tiny-array numpy calls, the same mix as
    the calibration loop in ``hostinfo`` at a hundredth of its length."""
    total = 0
    for i in range(2_000):
        total += i * i % 7
    acc = 0.0
    for i in range(200):
        acc += float(np.abs(_BLOCK - i).sum())
    return total + acc


class SpeedSampler:
    """Runs :func:`calibration_slice` on a timer signal while entered.

    :meth:`clock` is ``time.perf_counter`` minus the time spent in slices,
    so phases timed with it exclude the sampling.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.stamps = array("d")
        self.slices = array("d")
        self.spent = 0.0
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        calibration_slice()
        took = time.perf_counter() - start
        self.stamps.append(start)
        self.slices.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def window(self) -> Tuple[float, float]:
        """A host-time mark and a work-clock mark, taken together."""
        return time.perf_counter(), self.clock()

    def reference_s(self, begin: Tuple[float, float],
                    end: Tuple[float, float]) -> float:
        """Reference seconds of the work between two :meth:`window` marks."""
        host_s = end[1] - begin[1]
        stamps = np.frombuffer(self.stamps, dtype=np.float64)
        slices = np.frombuffer(self.slices, dtype=np.float64)
        if stamps.size == 0:
            raise RuntimeError("no calibration slices were taken")
        inside = (stamps >= begin[0]) & (stamps <= end[0])
        if inside.sum() < MIN_SLICES:
            middle = (begin[0] + end[0]) / 2.0
            nearest = np.argsort(np.abs(stamps - middle))[:MIN_SLICES]
            inside = np.zeros_like(inside)
            inside[nearest] = True
        return host_s * REFERENCE_SLICE_S / float(slices[inside].mean())
