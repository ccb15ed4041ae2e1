"""A fixed reference computation that gauges how fast the box runs right now.

The measuring box is a few vCPUs of a shared host, and its speed drifts by
itself, within seconds and between minutes: a fixed loop runs up to twice
as long in one minute as in another, and phimi's calls slow down with it.
So the benchmark samples the box's speed with ``probe`` while it measures,
and rescales the measured time to a box where one probe takes
``NOMINAL_PROBE_S`` (``rescale``).

The probe is benchmark code only; a change to phimi leaves it alone.  It
mixes what phimi's calls spend their time on: interpreted Python, small
numpy calls whose cost is call overhead, and elementwise ufuncs over the
arrays of an n = 500 cross block (2 MB).  It uses no BLAS, so it runs on
the calling thread alone and its thread CPU time is all of its work.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Length of one probe on the measuring box in a quiet phase (README.md).
NOMINAL_PROBE_S = 0.007

_N = 500
_X = np.linspace(-1.0, 1.0, _N)
# Preallocated, so the probe's speed does not depend on how the program
# left the allocator (whether 2 MB temporaries come from fresh mmaps).
_H = np.empty((_N, _N))
_T = np.empty((_N, _N))
_SMALL = np.linspace(0.0, 1.0, 30)


def _unit() -> float:
    acc = 0.0
    for i in range(6000):                  # interpreted Python
        acc += (i % 7) * 0.5
    for _ in range(150):                   # numpy call overhead
        acc += float(np.exp(_SMALL).sum())
    np.multiply.outer(_X, _X[::-1], out=_H)  # n x n cross block
    acc += float(np.exp(_H, out=_T).sum())
    acc += float(np.log1p(np.multiply(_H, _H, out=_T), out=_T).sum())
    return acc


def probe() -> float:
    """CPU seconds that a fixed amount of reference work takes now.

    CPU time of the thread, not wall time: if a program's own threads (a
    spinning BLAS worker) share the CPU with the probe, the probe counts
    only the time it ran, so it gauges the box and not the program.
    """
    t0 = time.thread_time()
    for _ in range(2):
        _unit()
    return time.thread_time() - t0


def rescale(seconds: float, probes) -> float:
    """``seconds`` measured while ``probes`` (seconds each) were taken, as it
    would read on a box where a probe takes ``NOMINAL_PROBE_S``."""
    return seconds * NOMINAL_PROBE_S * len(probes) / sum(probes)


class Gauge:
    """Runs ``probe`` every ``period`` seconds of wall time, from a SIGALRM
    handler, so the probes sample the box's speed evenly through the calls
    they interrupt.  ``spent`` is the time the probes took, to subtract
    from the calls'.  Not reentrant; one per process."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.probes: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self) -> "Gauge":
        self.probes.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe())
