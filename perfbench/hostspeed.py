"""Host speed, sampled while the measured code runs.

The benchmark's host is shared: over minutes it runs the same
interpreter work up to about 1.7 times slower or faster, so raw host
seconds of runs made minutes apart differ by more than any change worth
detecting.  :class:`HostSpeed` measures that speed in the same window as
the measured code.  An interval timer (``SIGALRM``) interrupts the code
every ``interval_s`` and times a fixed pure-Python kernel, a miniature
of the simulator's event loop; the kernel's speed, averaged over the
window, says how fast the host ran the interpreter during it.  Over 49
``scan_concurrent`` passes in eight minutes of a 2-vCPU x86-64 VM, the
logarithm of the kernel time correlated 0.97 with the pass time's, and
dividing by it cut the passes' coefficient of variation from 0.098 to
0.028 (a float-and-dict kernel: 0.041; a pointer chase: 0.039).

:meth:`HostSpeed.reference_s` converts host seconds of the window into
*reference seconds*: the time the window would have taken on a host
that runs the kernel in :data:`REFERENCE_KERNEL_S`.  The kernel's own
time is subtracted first.  The kernel is the benchmark's, not the
simulator's, so a change to the simulator moves reference seconds as it
moves host seconds.

The kernel runs warm (an untimed lead-in first), touches a few cache
lines only and allocates no container, so neither the simulator's cache
footprint nor its garbage-collector counters reach the samples.  It
keeps its own heap and counter per sampler.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import perf_counter

#: Kernel time, in seconds, of the reference host: about the time it
#: takes run alone on the 2-vCPU x86-64 VM (Python 3.11) it was tuned on.
REFERENCE_KERNEL_S = 200e-6
#: Timer interval while a pass runs, and while a fresh interpreter sets up.
PASS_INTERVAL_S = 0.01
SETUP_INTERVAL_S = 0.004

# The kernel is a miniature of the simulator's event loop: pop the
# earliest event off a heap, advance its time, push it back, and count
# it on an object's slot.  Its events are preallocated lists, so the
# kernel allocates no container.
_DELAYS = tuple(((i * 37) % 64) / 64.0 for i in range(64))
_LEAD_IN = 30
_TIMED = 250


class _Counter:
    __slots__ = ("events",)

    def __init__(self):
        self.events = 0


def _kernel(rounds: int, heap: list, counter: _Counter) -> None:
    delays, pop, push = _DELAYS, heapq.heappop, heapq.heappush
    for i in range(rounds):
        event = pop(heap)
        event[0] += delays[i & 63]
        push(heap, event)
        counter.events += 1


class HostSpeed:
    """Samples the host's speed while the ``with`` block runs."""

    def __init__(self, interval_s: float = PASS_INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        #: Host seconds spent in the kernel, lead-in and all.
        self.busy_s = 0.0
        self._previous = None
        self._heap = [[delay, i] for i, delay in enumerate(_DELAYS)]
        heapq.heapify(self._heap)
        self._counter = _Counter()

    def _measure(self) -> float:
        """Run the kernel once; return the host seconds it took, lead-in and all."""
        begin = perf_counter()
        _kernel(_LEAD_IN, self._heap, self._counter)
        timed = perf_counter()
        _kernel(_TIMED, self._heap, self._counter)
        end = perf_counter()
        self.samples.append(end - timed)
        return end - begin

    def _sample(self, signum, frame) -> None:
        self.busy_s += self._measure()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # A window shorter than the interval: sample once, after it.
            self._measure()

    def kernel_s(self) -> float:
        """Kernel time at the window's mean speed.

        The samples are evenly spaced in time, so the mean of their
        speeds (``1 / sample``) is the host's mean speed over the window,
        however that speed changed within it: this is the harmonic mean
        of the samples.
        """
        return statistics.harmonic_mean(self.samples)

    def reference_s(self, host_s: float) -> float:
        """``host_s`` of this window, less the kernel's time, in reference seconds."""
        return (host_s - self.busy_s) * REFERENCE_KERNEL_S / self.kernel_s()
