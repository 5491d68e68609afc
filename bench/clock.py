"""Timed intervals expressed in reference seconds.

The machine this benchmark was built on is a 2-vCPU virtual machine
whose speed drifts with its neighbours' load: the same computation took
from 0.94 s to 1.59 s within two minutes, and the median over 25-second
windows varied by 12% (interquartile range over windows).  The drift is
common to all code, so a fixed calibration loop -- pure-Python
arithmetic and dict stores, then small numpy products, the mix the
library runs -- is timed before every timed call, and times are scaled
by the loop's nominal time over its median measured time in the run.
Over the same windows the scaled timings varied by under 1%.  A slower
program still reads slower; a slower machine does not.  Raw wall-clock
figures are printed to standard error beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_NOMINAL_S = 0.015   # the calibration loop's time on the reference machine, quiet
_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((16, 16))
_B = _RNG.standard_normal((16, 16))


def calibrate() -> float:
    """Seconds taken by a fixed amount of interpreter and small-numpy work."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(30000):
        total += i * 0.5
        table[i & 255] = total
    x = _A
    for _ in range(2500):
        x = (x @ _B) * 0.1 + _A
    return time.perf_counter() - start


class Clock:
    """Timed samples of library calls, with a calibration before each.

    The run's speed factor is the nominal calibration time over the median
    of all calibrations in the run; the drift it corrects is slow and
    common to all code, so calibrations between calls also describe the
    calls.
    """

    def __init__(self):
        self.samples = []       # (stage, raw seconds, units of work)
        self.calibrations = []

    def measure(self, stage: str, work: float, fn):
        self.calibrations.append(calibrate())
        start = time.perf_counter()
        out = fn()
        self.samples.append((stage, time.perf_counter() - start, work))
        return out

    def speed(self) -> float:
        return CAL_NOMINAL_S / statistics.median(self.calibrations)

    def seconds_per_unit(self, stage: str, scaled: bool = True):
        """Median over samples of seconds per unit of work (None without
        samples), in reference seconds unless ``scaled`` is false."""
        per_unit = [raw / work for s, raw, work in self.samples if s == stage]
        if not per_unit:
            return None
        return statistics.median(per_unit) * (self.speed() if scaled else 1.0)
