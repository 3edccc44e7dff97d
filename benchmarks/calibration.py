"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts
over seconds to minutes: the same fuse_64 op on the same input, run back
to back, takes 1.0x-1.3x its best time, in process time as much as in
wall time, and whole 30-second runs at different times differ by up to
a quarter. A fixed unit of pure-Python work that never calls evidist is
timed between ops, at ``SHARE`` of the op time, and every end-to-end
time is multiplied by ``(REFERENCE_S / median unit time) ** ELASTICITY``.

The unit's time moves about twice as much as the ops' times when the
host slows: across runs on the machine below, the log-slope of the op
median on the unit median was 0.4-0.8 on the three workloads, about
0.55 typically. Hence the square root. Over ten seeds it cut the spread
(IQR over median) of op_p50_ms from 0.16 to 0.06 on fuse_64 and from
0.15 to 0.06 on cli_small; full scaling (exponent 1) overcorrected.

This is a covariate adjustment: since the unit never calls evidist, a
change to the program moves the scaled times by the same factor as the
raw ones, whatever the exponent. The report keeps both.
"""

from __future__ import annotations

import statistics
import time

# About the unit's median time within benchmark runs on the 2-vCPU Intel
# Xeon VM with Python 3.11 that the benchmark was tuned on; scaled times
# read as milliseconds on that machine at its usual speed.
REFERENCE_S = 0.007
ELASTICITY = 0.5
# Calibration time as a share of op time, spread over the run.
SHARE = 0.08
# Units timed right after each cold set-up.
SETUP_UNITS = 15


def unit() -> float:
    """A fixed amount of interpreter work: dict, int and float operations."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(20_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (key ^ i) / (i + 1)
    return total


class Calibration:
    """Unit times of one run, and the factor that scales its times."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def measure(self, count: int = 1):
        clock = time.perf_counter
        for _ in range(count):
            began = clock()
            unit()
            self.samples.append(clock() - began)
            self.busy += self.samples[-1]

    def keep_up(self, busy: float):
        """Time units until they cover ``SHARE`` of ``busy`` op seconds."""
        while self.busy < SHARE * busy:
            self.measure()

    def factor(self) -> float:
        """Multiply a time by this to read it at the reference speed."""
        return (REFERENCE_S / statistics.median(self.samples)) ** ELASTICITY
