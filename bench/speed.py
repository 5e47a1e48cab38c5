"""Machine-speed calibration for the benchmark's times.

On a shared 2-vCPU Xeon host, where this benchmark was calibrated, the
machine's speed drifted by up to 1.7x over minutes while steal time
stayed near zero; that drift, not the program, set the run-to-run spread
of raw wall times.  So the reported times are scaled to a fixed machine
speed.  A calibration kernel that calls nothing from ``liectrl`` is timed
between cases (at most every ``INTERVAL_S``, and at the end of each
pass) and three times in each process right after set-up.  A pass's case
times are multiplied by ``REFERENCE_S / k``, where ``k`` is the median
kernel time of that pass; set-up times use the median of the run's
set-up kernel timings.  The kernel mixes the kinds of work the workloads
do: interpreted Python, many small numpy calls, and dense LAPACK/BLAS.
Raw times and kernel samples stay in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the reference host (2 vCPU Xeon, OpenBLAS 0.3.31, one
# BLAS thread) when it was quiet.  Scaled times are seconds at that speed.
REFERENCE_S = 0.008
# Time the kernel again once this much workload time has passed.
INTERVAL_S = 0.5

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_SYM = _rng.standard_normal((96, 96))
_SYM = _SYM + _SYM.T
_GEMM = _rng.standard_normal((256, 256))
_KNOTS = np.linspace(0.0, 1.0, 31)


def kernel_s() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    for k in range(400):
        _SMALL @ _SMALL
        np.interp(k / 400, _KNOTS, _KNOTS)
    np.linalg.eigh(_SYM)
    _GEMM @ _GEMM
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel timings taken between cases, at most every ``INTERVAL_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel_s())
            self._last = time.perf_counter()


def scale(samples: list[float]) -> float:
    """Factor taking times measured alongside ``samples`` to reference speed."""
    return REFERENCE_S / statistics.median(samples)
