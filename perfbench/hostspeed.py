"""Host-speed probe: how fast this host runs a fixed piece of code now.

A machine shared with other tenants runs the same code up to twice as
slow from one second to the next, and a calibration taken once per run
does not follow that.  So while ops are timed, a :class:`Sampler` takes
a short pure-Python probe every ``SAMPLE_EVERY_S`` on a wall-clock
timer, and each op's time is scaled by the samples taken within
``WINDOW_S`` of it: times read as on a host where :func:`probe` takes
``REFERENCE_PROBE_S``.  The host's speed often flips between two
levels within one op, so the scale is the samples' mean speed (their
harmonic mean time), not their median.  The probe is fixed code, not
the simulator's, so a faster simulator never speeds up its own
yardstick.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Iterations of :func:`probe`.
PROBE_LOOPS = 50_000
#: Probe time of the reference host that host times are scaled to.
REFERENCE_PROBE_S = 0.006
#: Seconds between the samples a :class:`Sampler` takes.
SAMPLE_EVERY_S = 0.05
#: Iterations of a sample: short, since it interrupts the ops.
SAMPLE_LOOPS = 5_000
#: An op is scaled by the samples taken this close to it.
WINDOW_S = 0.25


def probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def probe_burst(count: int) -> list[float]:
    return [probe() for _ in range(count)]


def host_scale(probes: list[float]) -> float:
    """Factor taking host times to the reference host's speed."""
    return REFERENCE_PROBE_S / statistics.median(probes)


class Sampler:
    """Samples of the host's speed taken while a block runs.

    A ``SIGALRM`` handler takes them between the block's bytecodes, so
    a sample can land inside an op; ``spent`` is the time all samples
    took, which a caller subtracts from the op it interrupted.  Sample
    times are scaled to ``PROBE_LOOPS`` iterations.
    """

    def __enter__(self) -> Sampler:
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _take(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = probe(SAMPLE_LOOPS)
        self.stamps.append(start)
        self.times.append(seconds * PROBE_LOOPS / SAMPLE_LOOPS)
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def near(self, start: float, end: float) -> float:
        """Harmonic mean of the samples within ``WINDOW_S`` of
        ``[start, end]``; if none is, the last sample before, or else
        the first one after."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:
            return self.times[max(lo - 1, 0)]
        return statistics.harmonic_mean(self.times[lo:hi])
