"""Host-speed correction for timings taken on a shared machine.

On a machine whose cores and caches are shared with other tenants, the
same code can run 1.1-1.7x slower from one few-second window to the next.
So a timed section runs a fixed pure-Python probe every PERIOD_S seconds
from a timer signal, and once before and after, and each timing is
reported in reference seconds:

    reference time = (wall time - time spent in probes) * mean(PROBE_REF_S / probe time)

Each probe time measures the host's speed at one moment. The mean of
PROBE_REF_S / probe time over the section is the reference-host work done
per host second, so the product is the section's work in reference
seconds. (This mean tracked pass times better than the median probe time,
which misses short slow spells.)

The probe has three parts: integer arithmetic, dict and string work with a
sort and recursive calls, and attribute access over fresh objects; its
time is the geometric mean of the parts' times. On `kinds` passes the
arithmetic part alone under-corrects (the package slows more than it does)
and the other two over-correct; together they track pass times best.

PROBE_REF_S is a fixed round figure for the probe time on the reference
host (2-vCPU Xeon, Python 3.11). The probe is benchmark code, so a change
to the package moves the reference time in proportion to the wall time.
Raw wall times are kept in the run record.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.5
PROBE_REF_S = 0.0025
_WORDS = [f"w{i * 2654435761 % 100003}" for i in range(3000)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _arithmetic() -> int:
    s = 0
    for i in range(25_000):
        s += i * i % 7
    return s


def _dicts() -> int:
    d = {w: (i, len(w), w[::-1]) for i, w in enumerate(_WORDS)}
    return len(sorted(d.items(), key=lambda kv: kv[1][2])) + _fib(12)


def _objects() -> int:
    return sum(o.a * o.b & 0xFFFF for o in [_Pair(i, 3 * i) for i in range(4_000)])


_PARTS = (_arithmetic, _dicts, _objects)


def probe() -> tuple[float, float]:
    """Run the probe once; return the time it took and its probe time."""
    clock = time.perf_counter
    start = prev = clock()
    times = []
    for part in _PARTS:
        part()
        now = clock()
        times.append(now - prev)
        prev = now
    return prev - start, math.prod(times) ** (1 / len(times))


def scale(samples: list[float]) -> float:
    """Factor from host seconds to reference seconds, from probe times."""
    return statistics.fmean(PROBE_REF_S / sample for sample in samples)


class Sampler:
    """Probe around a timed section and, if `periodic`, every PERIOD_S inside it.

    `spent` is the time the periodic probes took inside the section, to be
    subtracted from its wall time; `scale` is set on exit.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.samples: list[float] = []
        self.spent = 0.0
        self.scale = 1.0

    def _tick(self, signum: int, frame: object) -> None:
        took, sample = probe()
        self.samples.append(sample)
        self.spent += took

    def __enter__(self) -> Sampler:
        self.samples.append(probe()[1])
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe()[1])
        self.scale = scale(self.samples)

    def reference(self, wall: float) -> float:
        """Reference seconds of a section that took `wall` host seconds."""
        return (wall - self.spent) * self.scale
