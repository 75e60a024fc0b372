"""Host-speed normalisation of the benchmark's times.

The reference host is a shared VM whose speed changes by up to 2x from
one second to the next and drifts over minutes, so raw times of the
same code spread wider between runs than any useful regression bound.
The drift hits the benchmark's code and any other CPU-bound code alike.

:class:`Sampler` therefore interleaves a fixed probe with the measured
code.  While it runs, a real-time interval timer interrupts the process
every :data:`INTERVAL_S` and the signal handler runs :func:`probe` once,
timing it.  The probes sample the host's speed at the same moments the
code ran; ``REFERENCE_S / probe time`` is the host's speed relative to
the reference, and its mean over a measurement is the mean speed the
code saw.  A time multiplied by that mean speed reads in *reference
seconds*: what it would have taken on the reference host at full speed.
The probes' own time is taken out of the measured time first.

Python runs signal handlers between bytecodes of the main thread, so a
probe may wait for a long C call (a numpy kernel) to return; that only
shifts a sample, it never lands inside the measured code's timing.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

#: Real time between two probes.
INTERVAL_S = 0.04
#: Probe time on the reference host at full speed (its quiet minimum).
REFERENCE_S = 0.0006

_PROBE_LINES = 8
_PROBE_WAYS = 4
_PROBE_STEPS = 1500
_PROBE_ARRAY = np.arange(4096, dtype=np.int64)


def probe() -> int:
    """Fixed work like the benchmark's mix: a set-associative LRU walk in
    pure Python (dicts, lists, integer arithmetic) plus small numpy ops."""
    sets: List[List[int]] = [[] for _ in range(_PROBE_LINES)]
    seen = {}
    x = hits = 0
    for _ in range(_PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        tag = (x >> 8) % 40
        lines = sets[tag % _PROBE_LINES]
        if tag in lines:
            hits += 1
            lines.remove(tag)
        elif len(lines) >= _PROBE_WAYS:
            seen[lines.pop(0)] = x
        lines.append(tag)
    array = _PROBE_ARRAY
    for _ in range(4):
        array = (array * 3 + hits) % 1000003
    return int(array[-1]) + len(seen)


@dataclass
class Samples:
    """Probe times of one measurement and the probes' own cost."""

    seconds: List[float] = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.seconds)

    @property
    def speed(self) -> float:
        """Mean host speed relative to the reference (1.0 = reference)."""
        if not self.seconds:
            return 1.0
        return statistics.fmean(REFERENCE_S / s for s in self.seconds)

    def extend(self, other: "Samples") -> None:
        self.seconds.extend(other.seconds)
        self.cpu_s += other.cpu_s

    def as_data(self) -> dict:
        return {"seconds": list(self.seconds), "cpu_s": self.cpu_s}

    @classmethod
    def of(cls, data: dict) -> "Samples":
        return cls(list(data["seconds"]), data["cpu_s"])


class Sampler:
    """Runs :func:`probe` every :data:`INTERVAL_S` between start and stop."""

    def __init__(self) -> None:
        self.samples = Samples()
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        probe()
        self.samples.seconds.append(time.perf_counter() - start)
        self.samples.cpu_s += time.process_time() - cpu

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> Samples:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.samples


def sampled(fn: Callable) -> Callable:
    """``fn`` run under its own :class:`Sampler`.

    For code that runs in pool workers: the samples ride back on the
    returned object as ``result.host_samples`` (plain data).
    """
    def wrapper(*args, **kwargs):
        sampler = Sampler().start()
        try:
            result = fn(*args, **kwargs)
        finally:
            samples = sampler.stop()
        result.host_samples = samples.as_data()
        return result
    wrapper.__wrapped__ = fn
    return wrapper


probe()  # warm the probe's code paths before the first sample
