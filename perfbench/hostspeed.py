"""Pass times at a reference host speed.

The shared host this benchmark was written on changes speed by up to 2x
within seconds and from one minute to the next: wall time and process CPU
time move together, so the slowdown is in the CPU, not in scheduling.  The
same pass then reads 11 s or 16 s, and no run length averages that away.

``PassClock`` measures the host's speed while a pass runs.  A real-time
timer interrupts the pass every ``interval_s`` seconds, and the handler
times ``kernel()``, a fixed piece of exact rational arithmetic of the kind
the ptflab simplex does.  Each stretch of the pass between two samples is
scaled by ``REFERENCE_KERNEL_S`` over the kernel time measured at its end,
and the kernel's own time is left out.  The sum is the pass time at the
reference speed: the speed at which ``kernel()`` takes
``REFERENCE_KERNEL_S``, which is about the fastest this host runs.

The kernel is benchmark code on the standard library, so a change to ptflab
moves the pass time at reference speed as it moves wall time.
Signal handlers run in the main thread between bytecodes, and the harness
runs with one worker in the main thread, so every stretch is sampled.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PASS_INTERVAL_S = 0.025
# set-up probes last about 0.2 s, so they are sampled more often
SETUP_INTERVAL_S = 0.005
REFERENCE_KERNEL_S = 0.00015


def kernel() -> Fraction:
    f = Fraction(1, 3)
    for i in range(40):
        f = f * Fraction(i + 2, i + 1) + Fraction(1, i + 3)
    return f


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class PassClock:
    """Context manager timing one pass in wall seconds (``wall_s``) and in
    seconds at the reference speed (``reference_s``)."""

    def __init__(self, interval_s: float = PASS_INTERVAL_S):
        self.interval_s = interval_s

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self._samples.append((t0, time.perf_counter()))

    def __enter__(self) -> "PassClock":
        self._samples: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        samples = self._samples
        self.wall_s = self.end - self.start
        self.sample_count = len(samples)
        self.kernel_s = sum(t1 - t0 for t0, t1 in samples)
        # a pass shorter than one interval is scaled by the speed right after it
        last = REFERENCE_KERNEL_S / (samples[-1][1] - samples[-1][0] if samples else kernel_seconds())
        total, since = 0.0, self.start
        for t0, t1 in samples:
            total += (t0 - since) * REFERENCE_KERNEL_S / (t1 - t0)
            since = t1
        self.reference_s = total + (self.end - since) * last
        return False
