"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine such as the 2-core one NOTES.md describes, the
CPU's speed changes by up to +-40% over seconds to minutes, and CPU time
tracks wall time, so neither clock removes it.  Op
latencies and per-layer times are therefore scaled to a reference host
speed: the calibration kernel runs right before and right after each op, and
a duration t bracketed by kernel times c0 and c1 is reported as
t * REFERENCE_S / ((c0 + c1) / 2).

The kernel mixes the three kinds of work qreality does, in roughly equal
shares: scalar Python arithmetic (Nelder-Mead refinement), small LAPACK calls
(the matrix route's 4x4 eigendecompositions) and vectorized transcendental
functions over large arrays (the kernel grids).  It uses numpy only, never
qreality, so a faster program still reads as faster.  The raw durations are
printed next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Calibration-kernel seconds on the reference host; sets the unit of every
# scaled timing.  Changing it rescales all figures, so it is fixed.
REFERENCE_S = 0.0025


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._hermitian = g + g.conj().T
        self._positive = np.abs(rng.standard_normal(40_000)) + 1.0

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for i in range(4000):
            total += math.sqrt(i + 1.0)
        for _ in range(80):
            np.linalg.eigvalsh(self._hermitian)
        for _ in range(8):
            total += float(np.log(self._positive).sum())
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Seconds the calibration kernel takes now: median of five runs."""
        return statistics.median(self._kernel() for _ in range(5))


def scale(before: float, after: float) -> float:
    """Factor for a duration bracketed by two ``measure()`` results."""
    return REFERENCE_S / ((before + after) / 2.0)
