"""The machine's current speed, from a fixed kernel of the benchmark's own.

The machine this benchmark was built on is shared: the same computation
took from 42 to 85 ms within one minute, in wall and in CPU time alike.
No wall time is comparable between runs under such drift, so every timed
metric is expressed in reference seconds: each timed piece of work (one
case of a pass, one set-up process) is divided by the time of a gauge
measured right before and right after it, and multiplied by the gauge's
nominal time.  Two gauges call nothing in seriesdyn, so no change to the
program moves them:

* in-process work is gauged by a kernel that does what the program does,
  in the benchmark's own code: Cauchy products in numpy, a Python-level
  walk over polynomial terms, and a Runge-Kutta loop over small arrays;
* cold processes (CLI commands, set-up probes) are gauged by a cold
  process that imports numpy.  On recorded runs it brought the spread of
  8-pass medians of the CLI pass from 4.6% to 2.2%, where the kernel
  brought it only to 4.1%.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import oracles as orc

# A gauge's time on the reference machine (see README): a reference second
# is the time in which that machine runs the gauge's nominal time of it.
NOMINAL_KERNEL_S = 0.0033
NOMINAL_IMPORT_S = 0.2
IMPORT_ARGV = [sys.executable, "-c", "import numpy"]
_SPIRAL = orc.spiral_field(-0.5)
_TWO_SPECIES = orc.two_species_field()


def kernel():
    orc.own_taylor(_SPIRAL, [2.0, 2.0], 30)
    x, h = np.array([4.0, 10.0]), 0.5
    for _ in range(60):
        k1 = orc.field_eval(_TWO_SPECIES, x)
        k2 = orc.field_eval(_TWO_SPECIES, x + h / 2 * k1)
        k3 = orc.field_eval(_TWO_SPECIES, x + h / 2 * k2)
        k4 = orc.field_eval(_TWO_SPECIES, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def kernel_seconds():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Gauge:
    """Converts each piece of timed work to reference seconds with a gauge
    timed right before and right after it: the machine's speed wanders on
    scales from a tenth of a second to minutes, and only neighbouring
    timings see the same speed.  ``probe()`` times the gauge once."""

    def __init__(self, probe, nominal):
        self.probe = probe
        self.nominal = nominal
        self.last = probe()
        self.wall = 0.0
        self.ref = 0.0

    def scale(self, seconds):
        now = self.probe()
        ref = seconds * self.nominal / (0.5 * (self.last + now))
        self.last = now
        self.wall += seconds
        self.ref += ref
        return ref

    @property
    def factor(self):
        """Reference seconds per wall second over all the work scaled."""
        return self.ref / self.wall


def cpu_gauge():
    """For work done in this process: the kernel above."""
    return Gauge(kernel_seconds, NOMINAL_KERNEL_S)


def process_gauge(spawn):
    """For work done by cold processes: a cold process that imports numpy,
    the program's one dependency.  ``spawn(argv)`` returns its wall time."""
    return Gauge(lambda: spawn(IMPORT_ARGV), NOMINAL_IMPORT_S)
