"""Machine-speed gauge: rescale measured times to a reference speed.

The benchmark runs on shared virtual machines whose CPU speed drifts.  On
the 2-vCPU Xeon VM it was tuned on, the same workload ran up to 1.8x
slower from one minute to the next, in episodes that lasted from seconds
to minutes, and a process's CPU time tracked its wall time through them.
No estimator inside one run removes a slow episode that covers the whole
run, and runs of the same code spread by up to 29% of their median in
sets of ten and up to 57% in a set of five.

The gauge times a fixed probe between measured blocks: lookups of random
keys in a 100,000-entry dict, one function call and one ``str.encode``
per lookup, and a ``bytes.join``.  The probe runs no code of the program,
so a change to the program moves a rescaled time exactly as much as it
moves the raw time.

The workloads do not slow down exactly as much as the probe.  Fitted on
the log of block times against the log of the probe's time, the slope
was 0.43-0.81 in three five-minute recordings and about 1.2 in a fourth.
A block's times are multiplied by ``(REFERENCE_S / probe seconds) **
EXPONENT``, with the exponent between those.  In ten runs per workload
(README.md), the quartile spread of the timed metrics was 0.05-0.12 of
the median rescaled and 0.09-0.21 raw; only the simulator's p99 spread
more rescaled (0.12) than raw (0.09).  Every run prints the raw medians
as well.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

#: seconds one probe takes on the reference machine (2-vCPU Xeon VM at
#: 2.0 GHz, Python 3.11); rescaled times are estimates for that machine
REFERENCE_S = 0.006
#: how strongly a block's times follow the probe's (see above)
EXPONENT = 0.8
#: probes per reading; a reading is their median
PROBES = 3
_TABLE_SIZE = 100_000
_LOOKUPS = 5_000


def _step(total: int, value: int) -> int:
    return total + value


class SpeedGauge:
    """Times the fixed probe between blocks of measured work."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {f"k{i}": i for i in range(_TABLE_SIZE)}
        self._keys = [f"k{rng.randrange(_TABLE_SIZE)}" for _ in range(_LOOKUPS)]
        #: every reading taken (median probe seconds)
        self.readings: list[float] = []

    def _probe(self) -> float:
        table, step = self._table, _step
        t0 = perf_counter()
        total = 0
        parts = []
        for key in self._keys:
            total = step(total, table[key])
            parts.append(key.encode())
        b" ".join(parts)
        return perf_counter() - t0

    def read(self) -> float:
        """Median probe seconds now; also kept in ``readings``."""
        reading = median(self._probe() for _ in range(PROBES))
        self.readings.append(reading)
        return reading

    def run(self, seconds: float, block) -> list[tuple]:
        """Call ``block()`` until ``seconds`` have passed, at least twice,
        reading the gauge before the first call and after each.

        Returns ``(block's return value, scale)`` per call; multiply a time
        the block measured by its scale to rescale it.  The scale comes
        from the mean of the two readings around the block.
        """
        before = self.read()
        out = []
        deadline = perf_counter() + seconds
        while len(out) < 2 or perf_counter() < deadline:
            value = block()
            after = self.read()
            out.append((value, (2 * REFERENCE_S / (before + after)) ** EXPONENT))
            before = after
        return out
