"""The host's speed: which CPU is fastest now, and how fast it is.

On a shared host each CPU can turn about 60% slower for stretches of a few
milliseconds to a minute, each CPU on its own schedule and sometimes both
together (see README.md, "Host noise").  While ``start`` is in force, a
timer signal every PERIOD_S interrupts the work to probe: it times a small
fixed piece of work on each allowed CPU, moves the process to the faster
one (processes started later inherit the pin) and keeps the time of the CPU
it chose and that of all CPUs together.  ``scale`` turns the probes around
a stretch of time into the factor that brings a time measured in it to the
reference speed.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05  # about 0.3 ms of probing per 50 ms
# the probes around a timed stretch that give its speed, on either side
WINDOW_S = 0.25
# a probe's time at the fast speed of the 2-vCPU machine the baselines
# in README.md come from; it only sets the scale, so any fixed value will do
REFERENCE_S = 1.3e-4
ALLOWED = sorted(os.sched_getaffinity(0))
# (when, spin time of the chosen CPU, harmonic mean spin time of all CPUs)
_probes: list[tuple[float, float, float]] = []
spent_s = 0.0  # time spent probing so far, to be taken out of timed stretches


def _spin() -> float:
    """A small fixed piece of work of the library's kind: tuples, a dict,
    complex arithmetic.  It tracks the host's slowdowns of the workloads
    more closely than a bare integer loop does."""
    start = perf_counter()
    table = {}
    for i in range(300):  # REFERENCE_S at the fast speed
        table[i, i + 1] = complex(i, 1) * complex(1, i)
    return perf_counter() - start


def _probe(signum=None, frame=None) -> None:
    global spent_s
    start = perf_counter()
    if len(ALLOWED) < 2:
        spin = _spin()
        _probes.append((start, spin, spin))
    else:
        speed = {}
        for cpu in ALLOWED:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _spin()
        fastest = min(speed, key=speed.get)
        os.sched_setaffinity(0, {fastest})
        _probes.append((start, speed[fastest], statistics.harmonic_mean(speed.values())))
    spent_s += perf_counter() - start


def start() -> None:
    """Probe now and every PERIOD_S until ``stop``.  A process that forks a
    worker pool must not start before the pool exists: the workers would
    inherit the pin to one CPU."""
    signal.signal(signal.SIGALRM, _probe)
    _probe()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def scale(begin: float | None = None, end: float | None = None,
          every_cpu: bool = False) -> float:
    """REFERENCE_S over the median probe within WINDOW_S of [begin, end], or
    over the median of all probes when none is that near or no stretch is
    given: multiplied by it, a time measured in that stretch reads as it
    would at the reference speed.  With ``every_cpu`` the probes are those
    of all CPUs together, for work that ran on all of them."""
    spins = [(t, every if every_cpu else chosen) for t, chosen, every in _probes]
    near = [p for t, p in spins if begin is not None and begin - WINDOW_S <= t <= end + WINDOW_S]
    return REFERENCE_S / statistics.median(near or [p for _, p in spins])
