"""The benchmark's clock, and host-speed sampling that converts the times it
measures to reference seconds.

On a shared virtual machine a timed call loses time in two ways that have
nothing to do with the program.  The host takes the core away for a while
(steal time): a Linux guest built with ``CONFIG_PARAVIRT_TIME_ACCOUNTING``
leaves steal time out of a thread's CPU time, so calls are timed with
``now``, the calling thread's CPU time, which for this single-threaded,
CPU-bound program is its wall time less the stolen time.  And the core runs
slower while neighbours share it, by up to a factor of two within seconds.
For that, while a timed call runs, a ``SIGALRM`` timer interrupts it every
``INTERVAL`` seconds of wall time and runs a fixed probe, a tiny pure-Python
pairwise loop that runs no program code, so no change to the program can
move it.  A call that took t seconds, less the time spent in the probes,
while the probes took p_1 ... p_m seconds, is reported as
``t * mean(P_REF / p_i)``: seconds on a core that runs the probe in
``P_REF``.  Because the probes sample the speed of the host during
the call itself, not before or after it, a slow phase that starts or ends in
the middle of a call is accounted for in proportion to its length.

Signal handlers run in the main thread between bytecodes, so a probe due
during a long C call runs when it returns; a call shorter than the interval
gets one probe right after it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

now = time.thread_time  # seconds of this thread's CPU time, excluding steal time
INTERVAL = 0.01  # seconds of wall time between probes
P_REF = 1e-4  # seconds; about the median probe on the host it was tuned on

_rng = random.Random(12345)
_POINTS = tuple((_rng.random(), _rng.random()) for _ in range(14))


def probe() -> float:
    """Run the probe once and return its duration in wall seconds.

    Not on ``now``: the kernel subtracts steal time from CPU time when it
    notices it, which can leave a window as short as a probe with no CPU
    time at all; over an operation the two agree.
    """
    t0 = time.perf_counter()
    best = float("inf")
    for i, a in enumerate(_POINTS):
        for b in _POINTS[i + 1:]:
            total = 0.0
            for x, y in zip(a, b):
                total += (x - y) * (x - y)
            best = min(best, total)
    return time.perf_counter() - t0


class Sampler:
    """Probe the host's speed while the ``with`` block runs.

    Time the call inside the block with ``now``; after the block, the time
    less ``cost``, times ``scale()``, is the call's time in reference
    seconds.  The previous ``SIGALRM`` handler is restored on exit.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.cost = 0.0  # seconds spent in probes inside the block

    def _tick(self, _signum, _frame) -> None:
        t0 = now()
        self.probes.append(probe())
        self.cost += now() - t0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probes:
            self.probes.append(probe())

    def scale(self) -> float:
        """Reference seconds per measured second of the block."""
        return statistics.fmean(P_REF / p for p in self.probes)
