"""Host speed, measured beside every timed job.

On a shared virtual machine other tenants' load changes how fast this
process runs, by up to 1.6x from one second to the next and on every kind
of work at once; CPU time follows wall time, so it is not I/O or a
descheduled CPU.  ``calibrate()`` times a fixed mix of the work the
workloads do (float text parsing, numpy vector math, interpreted
arithmetic) with the garbage collector off, so that nothing the program
leaves in the heap changes its cost.  ``Clock.scaled()`` turns a job's
time into its time at the host speed at which that mix takes REFERENCE_S.

Measured on a shared 2-vCPU Linux VM over 150 s of four proxint jobs
(a 512x512 heightmap read of 0.2 s, an analytic stack sweep of 0.04 s,
the fig2 and fig2-inset sweeps of 1 s and 2.4 s) alternating with
calibrations, job times spread by (interquartile range over median)

    scaled by                           heightmap  stack  fig2  inset
    nothing (raw)                            0.38   0.44  0.16   0.12
    calibrations on either side              0.16   0.12  0.19   0.22
    and those within 2 job durations         0.16   0.12  0.13   0.12

so the window matters for long jobs, which average the host's second-to-
second changes themselves.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.012
WINDOW = 2.0

_TEXT = " ".join("%.17g" % x for x in np.linspace(0.0, 1.0, 4000))
_VECTOR = np.linspace(0.0, 1.0, 1 << 16)


def calibrate() -> float:
    """Seconds the fixed mix takes now (about REFERENCE_S on an idle host)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        np.array(_TEXT.split(), dtype=float)
        for _ in range(6):
            np.sort(np.sin(_VECTOR) * np.exp(-_VECTOR))
        acc = 0.0
        for i in range(40_000):
            acc += i * 0.5
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibrations taken between the jobs of one sequence, and the jobs'
    times scaled by them.

    A job's host speed is the mean of the calibrations on either side of
    it and of any others taken within WINDOW job durations of it: a short
    job sees the speed of its moment, a long one the speed averaged over
    several seconds, as its own time is.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []   # (start time, calibration seconds)

    def mark(self) -> int:
        """Calibrate now; return the calibration's index."""
        self.marks.append((time.perf_counter(), calibrate()))
        return len(self.marks) - 1

    def scaled(self, start: float, seconds: float, before: int, after: int) -> float:
        """Seconds, run from ``start`` between marks ``before`` and ``after``,
        at reference speed; call once the marks that follow it are taken."""
        lo, hi = start - WINDOW * seconds, start + (1.0 + WINDOW) * seconds
        near = [c for k, (t, c) in enumerate(self.marks)
                if k in (before, after) or lo <= t <= hi]
        return seconds * REFERENCE_S * len(near) / sum(near)
