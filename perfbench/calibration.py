"""Machine-speed calibration for the end-to-end timings.

A shared machine's speed drifts: by up to 1.7x on the 2-vCPU baseline
machine, in states that last from seconds to minutes.  A fixed kernel, timed
between stretches of load, measures the speed of the moment.  Each
stretch's op times are scaled by the kernel's reference time over its mean
time before and after the stretch.  The result is the time the op would
take at the speed where the kernel takes its reference time.

There are two kernels, both belonging to the benchmark and never to be
changed (a change rescales every number):

* ``kernel_seconds``: exact rank over F_7 of fixed 21 x 7 matrices, the
  shape the census builds.  It scales in-process work.
* ``child_kernel_seconds``: the median of three fresh interpreters that
  each run that kernel once (this file as a script).  It scales work done
  in fresh processes, which is start-up and Python work in about the mix
  a CLI call has; neither the in-process kernel nor a bare start-up alone
  tracks it well.
"""

from __future__ import annotations

import random
import subprocess
import sys
from statistics import median
from time import perf_counter

#: Reference times of the kernels: about an unloaded core of the baseline machine.
KERNEL_REFERENCE_S = 0.010
CHILD_KERNEL_REFERENCE_S = 0.060
_P = 7
_rng = random.Random(20161224)
_MATRICES = tuple(
    tuple(tuple(_rng.randrange(_P) for _ in range(7)) for _ in range(21)) for _ in range(8)
)
_REPEATS = 10


def _rank(matrix) -> int:
    rows = [list(r) for r in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _P - 2, _P)
        rows[rank] = [(x * inv) % _P for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % _P for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def kernel_seconds() -> float:
    """Wall time of one fixed amount of kernel work."""
    t0 = perf_counter()
    for _ in range(_REPEATS):
        for matrix in _MATRICES:
            _rank(matrix)
    return perf_counter() - t0


def process_seconds(argv, n: int) -> float:
    """Median wall time of ``n`` interpreter processes run with ``argv``."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, *argv], capture_output=True, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return median(times)


def child_kernel_seconds() -> float:
    """Median wall time of three fresh interpreters running the kernel once."""
    return process_seconds([__file__], 3)


class Calibrator:
    """Times a kernel at the edges of stretches of load."""

    def __init__(self, kernel=kernel_seconds, reference_s=KERNEL_REFERENCE_S) -> None:
        self._kernel, self._reference_s = kernel, reference_s
        self._before = kernel()
        self.kernel_times = [self._before]

    def factor(self) -> float:
        """Scale for the op times measured since the last call (or creation)."""
        after = self._kernel()
        self.kernel_times.append(after)
        factor = 2 * self._reference_s / (self._before + after)
        self._before = after
        return factor


def cli_calibrator() -> Calibrator:
    return Calibrator(child_kernel_seconds, CHILD_KERNEL_REFERENCE_S)


if __name__ == "__main__":
    kernel_seconds()
