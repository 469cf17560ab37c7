"""Machine-speed probe, to report times at a fixed reference speed.

On a small shared virtual machine the CPU speed one process gets changes by
up to 2x, in phases from about a second to many minutes, and the process's
CPU time changes with it (it is not time stolen by the hypervisor). Raw wall
times of the same work then spread by 20-60 % between runs, more than any
bound a benchmark can keep.

While a run measures, a timer signal interrupts the main thread every
``PERIOD_S`` seconds and times a fixed pure-Python loop, the *probe*. A
measured interval's own time is its wall time minus the time spent in the
probe, and its time at reference speed is its own time scaled by
``NOMINAL_S`` / the median probe time of the samples taken during it, or
around it when it is too short to hold ``MIN_SAMPLES``. Both the program and
the probe slow down in a slow phase, so the ratio stays put: on the machine
the benchmark was built on, it cut the ten-seed spread (IQR / median) of
median unit times from 0.16-0.33 to 0.04-0.07.

The probe loop and its constants belong to the benchmark and must not change
between the two commits that are compared; a change to the program cannot
speed the probe up or slow it down.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
ITERATIONS = 10_000
# about the probe's median on the 2-vCPU Xeon host the benchmark was built
# on, so that times at reference speed read close to wall times there
NOMINAL_S = 8.5e-4
MIN_SAMPLES = 10


def _probe_loop() -> int:
    s = 0
    for i in range(ITERATIONS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples the probe on a timer while it is entered, as a context manager."""

    def __init__(self):
        self.samples: list[float] = []  # probe seconds, in the order taken
        self.spent = 0.0  # seconds spent in the signal handler
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_SAMPLES // 2):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run ``fn()``; return (its value, wall seconds, seconds at reference
        speed). The wall seconds include the probe's own."""
        first, spent = len(self.samples), self.spent
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        own = wall - (self.spent - spent)
        window = self.samples[first:]
        if len(window) < MIN_SAMPLES:
            # too short: the samples just before it and a few taken now
            for _ in range(MIN_SAMPLES // 2):
                self._sample()
            window = self.samples[max(0, first - MIN_SAMPLES // 2):]
        return value, wall, own * NOMINAL_S / statistics.median(window)
