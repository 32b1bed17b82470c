"""A fixed pure-Python loop that measures how fast the host runs Python right now.

On a shared host, other tenants slow execution itself, not just
scheduling: process CPU time grows as much as wall time, by up to about
1.8x, and the slowdown changes from one second to the next and lasts
whole runs. No statistic over one run's op times removes it. So while
the benchmark times an item (an op or a set-up), a ``Sampler`` runs a
short slice of this loop every ``INTERVAL_S`` of wall time from a
SIGALRM handler. The item's own time is its wall time minus the
slices, and ``scale`` turns it into yardstick-seconds with the host
speed the slices saw during that very item. Loop and program are both
pure Python of the same kind (float arithmetic, attribute access,
small allocations, float formatting), so a host slowdown moves both
alike and the scaled time keeps only the program's own cost.

The loop is part of the benchmark, not of eregsim, so a change to the
program never changes it. A yardstick-second is a wall second on a
host where one slice takes ``NOMINAL_S``, about the lower quartile of
slice times on a shared 2-vCPU x86_64 VM with Python 3.11.
"""

from __future__ import annotations

import gc
import math
import signal
from statistics import fmean
from time import perf_counter

SLICE_STEPS = 125
NOMINAL_S = 0.0006  # seconds one slice takes on the reference host
INTERVAL_S = 0.01  # wall seconds between slices while sampling


class _Cell:
    __slots__ = ("pressure", "mass", "conductance")

    def __init__(self, pressure: float, mass: float, conductance: float) -> None:
        self.pressure, self.mass, self.conductance = pressure, mass, conductance

    def flow(self, dp: float) -> float:
        root = math.sqrt(abs(dp))
        return self.conductance * root if dp > 0.0 else -self.conductance * root


def loop(steps: int = SLICE_STEPS) -> int:
    """A chain of six gas cells exchanging mass; returns the size of its log."""
    cells = [_Cell(50e5 - 1e5 * i, 1.0, 1e-6 * (i + 1)) for i in range(6)]
    rows, lines = [], []
    for k in range(steps):
        for a, b in zip(cells, cells[1:]):
            q = a.flow(a.pressure - b.pressure) * 1e-3
            a.mass -= q
            b.mass += q
            a.pressure = max(1e5, a.pressure * (1.0 - 1e-6 * q))
            b.pressure = min(300e5, b.pressure * (1.0 + 1e-6 * q))
        rows.append(tuple(c.pressure * 1e-5 for c in cells))
        if k % 10 == 0:
            lines.append(",".join(f"{x:.9g}" for x in rows[-1]))
    return len("\n".join(lines)) + len(rows)


def timed(steps: int = SLICE_STEPS) -> float:
    """Wall seconds of one loop, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        loop(steps)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times one slice of the loop every INTERVAL_S of wall time between start and stop.

    The SIGALRM handler is installed once and stays; it does nothing
    while the sampler is stopped, so a signal still pending at stop is
    harmless.
    """

    def __init__(self) -> None:
        self.active = False
        self.slices: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.active:
            self.slices.append(timed())

    def start(self) -> None:
        self.slices = []
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        """Times of the slices taken since start."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.active = False
        return self.slices


def scale(own_s: float, slices: list[float]) -> float:
    """Yardstick-seconds of an item whose own wall time, slices taken out, is own_s.

    Slices come at even steps of wall time, so the mean of NOMINAL_S / t
    over their times t is the host's mean speed over the item.
    """
    return own_s * fmean(NOMINAL_S / t for t in slices)
