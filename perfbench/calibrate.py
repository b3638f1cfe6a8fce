"""Machine-speed calibration.

On a shared VM the speed of a core changes by up to a factor of two, in
phases from about a second to minutes; a median over one run's passes
carries whatever phase the run fell into.  So a small fixed kernel that
runs no mesoweyl code is timed while the program runs: ``Probe`` runs it
from a SIGALRM handler every ``INTERVAL_S`` of wall time during a pass, in
the worker's own thread, and its own time is taken out of the pass.  A
measured time is scaled by ``REFERENCE_S / mean kernel seconds``: the
seconds it would have taken on a core that runs the kernel in
``REFERENCE_S``.  A change to mesoweyl moves a scaled time in proportion to
the measured one; a change of machine speed moves the kernel too and
cancels.

The kernel mixes the two kinds of work the workloads spend their time on:
scalar Python arithmetic (special-function recurrences) and small numpy
operations on 64-entry vectors (Fock-space matrix fills).
"""

import cmath
import math
import signal
import statistics
import time

import numpy as np

# Seconds of one kernel run on the reference core; scaled times are in
# seconds on that core.
REFERENCE_S = 0.002
# Wall seconds between two samples of a Probe.
INTERVAL_S = 0.1
# Kernel runs on either side of a short span timed without a Probe.
BRACKET = 10

_FILL = (np.arange(64 * 64, dtype=float).reshape(64, 64) % 7.0) * (1.0 + 0.5j)


def kernel_seconds():
    """Wall seconds of one run of the calibration kernel (about 2 ms)."""
    t0 = time.perf_counter()
    x = 0.37
    acc = 0.0
    for k in range(2000):
        x = (2.0 * k + 1.0 - x) * 0.25 / (k + 1.0) + math.sqrt(k + 1.0) * 1e-3
        acc += abs(cmath.exp(1j * x))
    out = np.zeros((64, 64), dtype=complex)
    for d in range(64):
        idx = np.arange(64 - d)
        out[idx + d, idx] = _FILL[idx + d, idx] * cmath.exp(1j * d * 0.1)
    acc += float(abs(out).sum())
    return time.perf_counter() - t0


def bracket():
    """Kernel samples for one side of a short span timed without a Probe."""
    return [kernel_seconds() for _ in range(BRACKET)]


def scaled(seconds, kernel_samples):
    """``seconds`` on the reference core, given kernel samples taken during
    (or right around) the span those seconds measured."""
    return seconds * REFERENCE_S / statistics.fmean(kernel_samples)


class Probe:
    """Samples the kernel every ``interval`` wall seconds while entered.

    The samples run in the entering thread, from a SIGALRM handler, between
    two bytecodes of whatever that thread runs, so they see the core it
    runs on at that moment.  ``spent_s`` and ``spent_cpu_s`` add up the wall
    and CPU seconds spent sampling, to be taken out of the times measured
    around them.  One sample is taken on entry, so there is always one.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._busy = False
        self._previous = None

    def sample(self, signum=None, frame=None):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self.samples.append(kernel_seconds())
            self.spent_cpu_s += time.process_time() - cpu0
            self.spent_s += time.perf_counter() - wall0
        finally:
            self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
