"""Host-speed sampling: a fixed pure-Python probe, timed while work runs.

On a shared host each CPU switches, many times a second and independently
of the other CPUs, between a fast and a slow state (most likely a busy
neighbour on the same physical core): the probe below takes about
0.25 ms or about 0.5 ms.  Raw op times therefore spread between runs far beyond any
regression bound.  The probe does the kind of work the miners do (set
intersections, big-integer bitset ANDs and popcounts, dict updates) and
touches no program code, so a change to the program cannot move it.

:class:`SpeedSampler` runs the probe in a thread every ``PERIOD_S``
while the measured code runs beside it, on the same CPU (the caller pins
the process with :func:`pin_to`), plus once right before and once right
after.  A time ``t`` measured across the samples is reported as
``t * mean(REFERENCE_S / probe)``: what it would take on a host whose
probe takes ``REFERENCE_S`` throughout.  The probes' own time inside the
measured region (about 1%) is subtracted first where the region is the
caller's own process.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "PERIOD_S",
    "REFERENCE_S",
    "SpeedSampler",
    "pin_to",
    "probe_s",
    "speed_factor",
]

# One probe on a CPU in its fast state on a 2-core host (Python 3.11).
# It sets the scale of the reported seconds, not their spread.
REFERENCE_S = 0.00025
PERIOD_S = 0.025

_REPEATS = 2
_MASKS = [(i * 0x9E3779B97F4A7C15) & ((1 << 256) - 1) for i in range(1, 129)]
_SETS = [frozenset(range(i, i + 40)) for i in range(128)]


def _loop() -> int:
    counts = {}
    for rep in range(_REPEATS):
        for i in range(len(_SETS) - 1):
            common = _SETS[i] & _SETS[i + 1]
            bits = _MASKS[i] & _MASKS[i + 1]
            key = (rep, i)
            counts[key] = counts.get(key, 0) + len(common) + bits.bit_count()
    return len(counts)


def probe_s() -> float:
    """CPU time of one pass of the probe, in seconds.

    The calling thread's CPU time, not wall time: a probe thread that
    loses the interpreter lock to the measured code midway must not
    count the wait as slowness.
    """
    start = time.thread_time()
    _loop()
    return time.thread_time() - start


def pin_to(which: str) -> None:
    """Pin this process to its lowest (``"first"``) or highest
    (``"last"``) allowed CPU, so samples and work share one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0] if which == "first" else cpus[-1]})


class SpeedSampler:
    """Probe samples ``(time.time(), seconds)`` taken while a block runs.

    ``start`` takes one sample and starts the sampling thread; ``stop``
    joins it and takes one more.  ``spent`` is the probe time the thread
    took in between, i.e. inside the block.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._stop = threading.Event()
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            stamp = time.time()
            seconds = probe_s()
            self.samples.append((stamp, seconds))
            self.spent += seconds

    def start(self) -> "SpeedSampler":
        self.samples.append((time.time(), probe_s()))
        self._thread = threading.Thread(
            target=self._run, name="speed-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append((time.time(), probe_s()))

    def scaled(self, seconds: float) -> float:
        """A block's own time (probes removed), at reference speed."""
        return (seconds - self.spent) * speed_factor(self.samples)


def speed_factor(samples, start: float = None, end: float = None) -> float:
    """Mean of ``REFERENCE_S / probe`` over ``samples`` (as
    :class:`SpeedSampler` stores them), or over those taken between
    ``start`` and ``end`` (wall clock) when given; the sample nearest the
    window's middle stands in when none falls inside it."""
    if start is None:
        inside = [seconds for _, seconds in samples]
    else:
        middle = (start + end) / 2.0
        inside = [seconds for stamp, seconds in samples
                  if start <= stamp <= end] or [
            min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return sum(REFERENCE_S / seconds for seconds in inside) / len(inside)
