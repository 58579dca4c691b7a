"""How contended a CPU core was while the program ran.

Each core of the 2-core reference VM runs either at full speed or about 1.7x
slower (a busy hyperthread of the host on the same physical core), and flips
between the two every second or so.  While a ``ContentionProbe`` watches,
a timer signal runs a fixed pure-Python unit of work of about 40 us every
``PERIOD_S``, between the bytecodes of the program, and times it.  The mean
unit time over a stretch is the mean slowdown the stretch met.  The unit
touches nothing of the program and fits in the L1 cache, so the program's own
speed does not move it.  The signal runs in the main thread of the process.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time


class ContentionProbe:
    PERIOD_S = 0.02
    #: Mean unit time on a core of the reference VM that nothing else shared.
    REFERENCE_US = 40.0

    def __init__(self, samples: list[tuple[float, float]] | None = None) -> None:
        #: (start, seconds) of every unit, start on the ``time.perf_counter`` clock
        self.samples: list[tuple[float, float]] = samples or []

    def _unit(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(400):
            acc += i * i % 7
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def watching(self):
        previous = signal.signal(signal.SIGALRM, self._unit)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean_us(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """The mean unit time of the units begun between ``start`` and ``end``.
        A unit over 3x the median was interrupted, which slows the program no
        more often than any other stretch, so it is left out.  With no unit,
        a time is taken as read."""
        times = [dt for t0, dt in self.samples if start <= t0 <= end]
        if not times:
            return self.REFERENCE_US
        cap = 3.0 * statistics.median(times)
        return 1e6 * statistics.fmean(dt for dt in times if dt <= cap)

    def uncontended(self, seconds: float, start: float = float("-inf"),
                    end: float = float("inf")) -> float:
        """``seconds`` of wall time as it would read on an uncontended core."""
        return seconds * self.REFERENCE_US / self.mean_us(start, end)
