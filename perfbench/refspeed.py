"""Scale measured times to a fixed reference speed of the machine.

The shared 2-vCPU machine the benchmark was tuned on changes speed by 20-40 %
in spells of seconds to minutes, so a raw wall time of the same code can
differ by a third between two runs.  Each time is therefore divided by the
time of a fixed reference measured at the same moments, and multiplied by
that reference's nominal time:

* in-process work (the search workloads) by a fixed piece of interpreter
  work, timed in short slices from a ``SIGALRM`` handler every
  ``INTERVAL_S`` while the pass runs, plus a few slices right before it;
* ``python -m segmagic`` processes (a paper-cli pass, the set-up runs) by
  the median of bare ``python -c pass`` processes, one spawned right before
  each of them.

The results read as seconds on the reference machine at its usual speed.
The references run only benchmark code, so nothing the program does moves
them; the handler's time is taken out of the pass it interrupts.
"""

from __future__ import annotations

import gc
import signal
from statistics import fmean, median
from time import perf_counter

# Nominal times of the two references: their medians inside benchmark runs
# on a 2-vCPU Intel Xeon (2.0 GHz) virtual machine, Python 3.11.7.
SLICE_S = 0.0028
SPAWN_S = 0.083

INTERVAL_S = 0.1  # between two sampled slices while a pass runs
PRE_SLICES = 5  # slices timed right before each pass

_TABLE = {i: 3 * i for i in range(64)}
_GRID = tuple(tuple(range(4 * r, 4 * r + 4)) for r in range(4))


def _step(i: int) -> int:
    return (7 * i + 3) & 15


def reference_slice() -> float:
    """Seconds for a fixed mix of the interpreter work the searches do.

    Integer arithmetic with dict lookups, small tuples built, sorted and
    hashed into a set, and list flags flipped through a function call; no
    single kind tracked the machine's speed changes best in every spell.
    The cyclic garbage collector is off meanwhile, so a sample never
    includes a collection of the program's objects.
    """
    table, grid, step = _TABLE, _GRID, _step
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(8_000):
            total = (total + table[i & 63]) % 1_000_003
        seen = set()
        for i in range(400):
            image = tuple(zip(*grid))[::-1]
            seen.add((tuple(sorted(image[i & 3])) + (i & 7,), image))
        used = [False] * 16
        for i in range(4_000):
            j = step(i)
            used[j] = not used[j]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale_spawns(times: list[float], references: list[float]) -> list[float]:
    """`times` of processes at reference speed, by the median reference."""
    factor = SPAWN_S / median(references)
    return [t * factor for t in times]


class Sampler:
    """Reference slices taken from a timer signal while in-process work runs.

    ``with sampler:`` starts the timer; ``scaled(start, end)`` gives the
    interval's wall time less the handler's time, at reference speed.  A
    compiled call that holds the interpreter delays the handler until it
    returns, so such a call contributes fewer samples, not wrong ones.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.pre = SLICE_S

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append((start, reference_slice()))

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.pre = median(reference_slice() for _ in range(PRE_SLICES))
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, start: float, end: float) -> float:
        """Mean slice time over the interval, the slices before it included."""
        return fmean([self.pre, *(s for t, s in self.samples if start <= t < end)])

    def scaled(self, start: float, end: float) -> float:
        handler = sum(s for t, s in self.samples if start <= t < end)
        return (end - start - handler) * SLICE_S / self.reference(start, end)
