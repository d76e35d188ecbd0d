"""Host-speed probe: a fixed calibration loop timed between units of work.

On a shared host the speed of pure-Python code swings by up to 2x over
minutes (the calibration loop itself takes 8 to 19 ms at different times on
the 2-CPU machine the baseline was recorded on), and CPU time swings with
wall time.  No run length averages that out, so runs made at different
times are compared in reference-speed seconds:

    measured seconds * REF_LOOP_S / (time-weighted mean loop time)

The loop is the benchmark's own code, so a change to chainlat cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# Calibration loop time on a quiet host; the unit of reference-speed seconds.
REF_LOOP_S = 0.009
# Least work time between two probes.
PROBE_INTERVAL_S = 0.25
LOOP_ITERATIONS = 40_000


def calibration_loop() -> int:
    d = {}
    acc = 0
    for i in range(LOOP_ITERATIONS):
        key = (i & 255, i & 7)
        d[key] = d.get(key, 0) + 1
        acc += len(d) if i & 1 else key[0]
    return acc


class HostProbe:
    """Samples the loop time; each sample stands for the work time before it."""

    def __init__(self):
        self.loops = []
        self._weighted = self._weight = 0.0
        self._last = perf_counter()

    def probe(self, force: bool = False):
        start = perf_counter()
        work = start - self._last
        if work < PROBE_INTERVAL_S and not force:
            return
        calibration_loop()
        loop = perf_counter() - start
        self.loops.append(loop)
        self._weighted += loop * work
        self._weight += work
        self._last = perf_counter()

    def scale(self) -> float:
        """Factor from measured to reference-speed seconds; probes once more first."""
        self.probe(force=True)
        return REF_LOOP_S * self._weight / self._weighted
