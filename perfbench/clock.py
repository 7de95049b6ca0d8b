"""A host clock that runs at a fixed reference CPU speed.

The benchmark's timings have to repeat from run to run.  The 2-vCPU
Intel Xeon VM the benchmark was built on switches each vCPU between its
undisturbed speed and one about 1.6x slower, for seconds at a time,
because of contention on the host.  A wall clock then reads up to 1.6x
long for the same work, and medians within a run cannot remove a slow
spell that lasts the whole run.

:class:`SteadyClock` samples the CPU's current speed 10 times a second
from ``SIGALRM``.  Each sample times a fixed spin of Python and small
numpy work, which takes about :data:`REF_SPIN_S` on that VM when
undisturbed.  The clock advances at wall speed times
``REF_SPIN_S / spin``, using the median of the last three spins.  So
the difference of two readings is in reference-speed seconds: the time
the work in between would take on the host at the reference speed, not
wall time.  The spin tracks the program only roughly: on that VM it cut
the run-to-run spread of pass times from 20-40% to 5-15%, and a slowdown
injected into the program showed in full (see ``README.md``).  On
another machine the readings differ from wall time by a roughly
constant factor, the same for every commit measured there.  Each run's
record file also keeps the raw wall-clock pass times.

The sampler costs one spin per tick, about 0.4% of the CPU.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from collections import deque
from time import perf_counter

import numpy as np

#: Seconds the spin takes at the reference speed.
REF_SPIN_S = 0.0003
#: Seconds between speed samples.
TICK_S = 0.1

# The spin mixes what the simulators spend their time on: attribute and
# dict lookups over a few-KB working set, heap operations, and small
# numpy kernels.  A pure arithmetic loop tracks the event loop well but
# the numpy-heavy engine poorly.
_TABLE = {i: 3 * i for i in range(4096)}
_ROWS = [(i, i + 1) for i in range(4096)]
_MATRIX = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)


def _spin() -> float:
    total = 0
    heap: list = []
    for i in range(300):
        key = (i * 2654435761) & 4095
        low, high = _ROWS[key]
        total += _TABLE[key] + low - high
        heapq.heappush(heap, (total & 1023, i))
    while heap:
        heapq.heappop(heap)
    for _ in range(4):
        total += float((_MATRIX @ _MATRIX).sum())
    return total


class SteadyClock:
    """Reference-speed host seconds; use as a context manager around
    everything that reads it (it owns ``SIGALRM`` meanwhile)."""

    def __init__(self) -> None:
        self._last = perf_counter()
        self._reading = 0.0
        self._factor = 1.0
        self._spins: deque = deque(maxlen=3)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self._reading += (start - self._last) * self._factor
        _spin()
        end = perf_counter()
        self._spins.append(end - start)
        self._factor = REF_SPIN_S / statistics.median(self._spins)
        self._reading += (end - start) * self._factor
        self._last = end

    def __call__(self) -> float:
        return self._reading + (perf_counter() - self._last) * self._factor

    def __enter__(self) -> "SteadyClock":
        _spin()  # pays numpy's one-off set-up
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        # The first reading is scaled by a full window of spins taken a
        # tick apart: spins taken back to back share one transient state
        # of the CPU, and a lone cold spin can be off by 2x.
        while len(self._spins) < self._spins.maxlen:
            _spin()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
