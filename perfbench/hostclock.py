"""Host time normalised to the host's current speed.

The simulator runs on shared machines whose speed drifts by tens of
percent over seconds (other tenants, frequency changes): medians of raw
wall time from two 10-second windows a minute apart can differ by a
third with no code change.  Every host time the benchmark reports is
therefore measured between runs of a fixed pure-Python calibration
loop — right before and right after each timed pass — and scaled to
what it would have taken at the reference speed, the speed at which the
loop takes :data:`REFERENCE_S`:

    at reference = wall * REFERENCE_S / mean(loop before, loop after)

A long pass is cut into segments at natural boundaries (between apps,
phases or experiments), each calibrated on both sides, so the speed
estimate follows the host through the pass; the calibration loops
themselves are not timed.  A run reports the median over its passes.
A drift in host speed slows the loop and the pass together and largely
cancels; a change to the simulator moves the pass and not the loop, so
it moves the reported time by the same factor.  Raw wall times are kept
next to the reported ones in every result file.
"""

from __future__ import annotations

import time
from typing import List, Tuple

#: Seconds the calibration loop takes at the reference host speed
#: (about its uncontended time on a 2.0 GHz Xeon core, Python 3.11).
REFERENCE_S = 0.016

_ROUNDS = 40_000


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key: int, count: int) -> None:
        self.key = key
        self.count = count


def _loop() -> int:
    """Dict, attribute, allocation and sort work, like the simulator's."""
    table = {}
    cells = []
    acc = 0
    for i in range(_ROUNDS):
        key = (i * 2654435761) & 0x3FFF
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, 0)
            cells.append(cell)
        cell.count += 1
        acc ^= (key << 3) + cell.count
    cells.sort(key=lambda c: c.count)
    return acc


def loop_s() -> float:
    """Wall seconds of one calibration loop, now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Stopwatch:
    """Times work in segments, calibrating at every boundary.

    Starts timing on creation; :meth:`checkpoint` closes a segment (and
    calibrates) without counting the calibration; :meth:`stop` closes
    the last one.
    """

    def __init__(self) -> None:
        #: (wall seconds, mean of the loops on either side) per segment.
        self.segments: List[Tuple[float, float]] = []
        self._before = loop_s()
        self._t0 = time.perf_counter()

    def checkpoint(self) -> None:
        wall = time.perf_counter() - self._t0
        after = loop_s()
        self.segments.append((wall, (self._before + after) / 2))
        self._before = after
        self._t0 = time.perf_counter()

    stop = checkpoint

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.segments)

    @property
    def reference(self) -> List[float]:
        """Each segment's seconds at the reference host speed."""
        return [wall * REFERENCE_S / loop for wall, loop in self.segments]

    @property
    def reference_s(self) -> float:
        return sum(self.reference)
