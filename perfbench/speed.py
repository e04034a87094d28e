"""Machine-speed calibration for the benchmark's time metrics.

The shared machines the benchmark runs on switch between full speed and
about half speed, for seconds to minutes at a time, so the same pass can
take twice as long from one minute to the next and no number of passes
averages that away.  A fixed calibration kernel is timed before, during
(between instances) and after every measured interval, and the interval's
seconds are scaled by ``REFERENCE_S`` over the kernel's median time in that
window: time metrics read as seconds at the reference machine's full speed.
The kernel never calls coposim, so a change to the library moves the
measured interval but not the scale.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time on the reference machine (Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4) at full speed.
REFERENCE_S = 0.012
# Least time between two samples taken between instances.
TICK_S = 0.25


def kernel(x: np.ndarray, dense: np.ndarray, matrix: np.ndarray) -> None:
    """Fixed work in two parts, in about the proportions of the library's
    per-cell work: interpreter-bound code (generator products and ``fsum``
    over numpy scalars, dict building and sorting) and contractions of a
    dense ``5**6`` array.  The machine's slow mode stretches the first by
    about 1.7 and the second by about 1.3, so a kernel of either part alone
    would over- or under-correct."""
    terms = [math.prod(x[i] for i in (k % 5, k // 5 % 5, k // 25 % 5)) for k in range(2500)]
    math.fsum(terms)
    table = {(k % 89, k % 7, k % 3): 0.5 * k for k in range(5000)}
    sorted(table.items())
    for _ in range(25):
        array = dense
        for _ in range(6):
            array = np.tensordot(array, matrix, axes=([0], [0]))


class SpeedScale:
    """Samples the kernel and turns each measured interval into a factor.

    ``tick()`` is called between instances; ``spent`` is the time it took
    since ``begin()``, which the caller subtracts from the interval.
    ``factor()`` closes the interval and returns its scale.
    """

    def __init__(self):
        self._x = np.linspace(0.1, 0.9, 5)
        self._dense = np.linspace(0.0, 1.0, 5**6).reshape((5,) * 6)
        self._matrix = np.eye(5) * 0.5 + 0.1
        self._window: list[float] = []
        self._next_tick = 0.0
        self.spent = 0.0
        self.factors: list[float] = []
        self._sample(3)

    def _sample(self, repeats: int) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel(self._x, self._dense, self._matrix)
            self._window.append(time.perf_counter() - t0)
        end = time.perf_counter()
        self._next_tick = end + TICK_S
        return end - start

    def begin(self) -> None:
        self.spent = 0.0

    def tick(self) -> None:
        if time.perf_counter() >= self._next_tick:
            self.spent += self._sample(1)

    def factor(self) -> float:
        """Scale for the interval since the previous ``factor()``: the
        window holds the three samples that closed the previous interval,
        those taken by ``tick()`` and three new ones."""
        self._sample(3)
        value = REFERENCE_S / statistics.median(self._window)
        self._window = self._window[-3:]
        self.factors.append(value)
        return value
