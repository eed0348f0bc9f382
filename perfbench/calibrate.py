"""Host-speed sampling for the timed repetitions.

On a shared host the same repetition runs up to 2x slower from one
moment to the next, with CPU time slowing with it: the core itself is
slower, nobody waits and no steal time is reported.  A run of the
benchmark cannot escape that, but it can measure it where it happens.
While a repetition runs its timed region, ``Sampler`` times a small
fixed probe every ``INTERVAL_S`` seconds of wall time, from a SIGALRM
handler in the same thread.  The benchmark removes the probes' own time
from the repetition's (and from every span of a traced one, whose tracer
reads ``Sampler.clock``) and reports the rest scaled to a host on which
the probe takes ``REFERENCE_S`` seconds: measured time times
``REFERENCE_S`` over the probe's mean time in that repetition.

The probe does not call qdissect, so a change to the program never moves
it; a program change that doubles the work doubles the scaled time as it
doubles the raw one.  Its mix follows the program's: an interpreted loop
over a dict (enumeration, residue buckets, JSON rendering) and a product
of two 40-kbit integers (Kronecker-packed convolution).
"""

import signal
import time

INTERVAL_S = 0.05
# Median over 107 repetitions of the three workloads of the mean probe
# time, on a shared two-core Intel Xeon virtual machine, Python 3.11.
REFERENCE_S = 0.0008

_A = (1 << 40_000) // 3 + 12_345
_B = (1 << 40_000) // 7 + 999


def _probe() -> int:
    acc = 0
    buckets = {}
    for i in range(400):
        key = i % 97
        buckets[key] = buckets.get(key, 0) + i
        acc += (i * 7) ^ (acc & 1023)
    return acc ^ ((_A * _B) >> 60_000)


class Sampler:
    """Context manager that times the probe on every SIGALRM tick."""

    def __init__(self):
        self.probes = []  # (start, wall seconds, CPU seconds) of each probe
        self.spent = 0.0  # wall seconds of all probes so far
        self._previous = None

    def _on_alarm(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        _probe()
        wall = time.perf_counter() - w0
        self.probes.append((w0, wall, time.process_time() - c0))
        self.spent += wall

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent in probes."""
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def between(self, start: float, end: float) -> list:
        """Probes that started in [start, end) of ``time.perf_counter``."""
        return [p for p in self.probes if start <= p[0] < end]
