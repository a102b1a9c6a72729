"""Host fingerprint and a fixed calibration loop, recorded with every
result so numbers from different hosts can be compared."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Any, Dict

#: Environment variables that pin BLAS/OpenMP pools; ``run.py`` sets
#: each to 1 before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> Dict[str, Any]:
    """BLAS build, and the thread count ``run.py`` pinned it to."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas["name"], blas.get("version")
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        name, version = "unknown", None
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    return {"name": name, "version": version,
            "threads": int(threads) if threads else None}


def fingerprint() -> Dict[str, Any]:
    import numpy as np

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
    }


def _calibration_loop() -> float:
    """Pure-Python arithmetic plus tiny-array numpy calls: the same mix of
    interpreter and per-call overhead that dominates the program."""
    import numpy as np

    total = 0
    for i in range(200_000):
        total += i * i % 7
    block = np.arange(64, dtype=np.float64).reshape(8, 8)
    acc = 0.0
    for i in range(20_000):
        acc += float(np.abs(block - i).sum())
    return total + acc


def calibration_s(repeats: int = 5) -> float:
    """Median seconds of the fixed calibration loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
