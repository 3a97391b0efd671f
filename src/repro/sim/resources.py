"""FIFO servers: the building block for disks and CPUs.

Processors and disks "are explicitly modeled as servers to realistically
capture access conflicts and delays" (Section 5).  A request joins the
queue; its service time is computed when service *starts* (disks need
the head position at that moment), and its completion event carries the
request's value.

Accounting rules:

* ``queue_time`` accrues when service starts (waiting ends);
* ``busy_time`` and ``request_count`` accrue when service *completes*,
  so a truncated run (``Environment.run(until=...)``) never reports
  more busy time than has actually elapsed.  Because the server is FIFO
  and single, completion order equals start order, so the accrual order
  (and thus the floating-point sum) is unchanged by this rule.

``service`` may be a callable priced at service start (disks) or a
plain float for pre-priced requests (CPU bursts) — the float form
avoids a closure per request on the hot path.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import inf
from typing import Any, Callable

from repro.sim.engine import Environment, Event

#: Tolerance for the utilization sanity check (float accumulation).
_UTILIZATION_SLACK = 1e-9


def reject_service(name: str, duration: float) -> None:
    """Raise the one-line ValueError for a service time outside
    ``[0, inf)`` on server ``name``.

    The servers' guard is ``not 0.0 <= duration < inf``: a plain
    ``duration < 0`` lets NaN through (it compares false to everything)
    and a NaN or infinite completion time would corrupt or stall the
    event heap, as :func:`repro.sim.engine._reject_delay` explains.
    """
    if duration < 0:
        raise ValueError(f"negative service time on {name!r}")
    raise ValueError(f"non-finite service time {duration!r} on {name!r}")


class FifoServer:
    """A single server with a FIFO queue and start-time service pricing."""

    __slots__ = (
        "env",
        "name",
        "_queue",
        "_busy",
        "_complete_cb",
        "busy_time",
        "request_count",
        "queue_time",
    )

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        #: The bound completion callback, bound once — pushing
        #: ``self._complete`` would allocate a fresh bound method per
        #: request on the hot path.
        self._complete_cb = self._complete
        #: Waiting requests: (service, done, value, enqueue_time).
        self._queue: deque[
            tuple[Callable[[], float] | float, Event, Any, float]
        ] = deque()
        self._busy = False
        # Statistics
        self.busy_time = 0.0
        self.request_count = 0
        self.queue_time = 0.0

    def _price(self, service: Callable[[], float] | float) -> float:
        """Service duration of a request reaching the server.

        Subclasses may extend the accepted ``service`` forms (the disk
        prices extent lists directly).
        """
        return service() if callable(service) else service

    def submit(
        self, service: Callable[[], float] | float, value: Any = None
    ) -> Event:
        """Enqueue a request; returns its completion event.

        ``service`` is priced by :meth:`_price` when the request reaches
        the server: a float is taken verbatim, a callable is invoked.
        """
        env = self.env
        done = Event(env)
        if self._busy:
            self._queue.append((service, done, value, env._now))
        else:
            self._busy = True
            duration = self._price(service)
            if not 0.0 <= duration < inf:
                reject_service(self.name, duration)
            # Scheduling inlined (hot path): a zero-duration completion
            # lands on the heap at (now, seq), which the dispatch merge
            # orders exactly like the ready deque would.
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + duration, seq, self._complete_cb,
                 (done, value, duration)),
            )
        return done

    def _complete(self, entry: tuple[Event, Any, float]) -> None:
        done, value, duration = entry
        self.busy_time += duration
        self.request_count += 1
        queue = self._queue
        env = self.env
        if queue:
            service, next_done, next_value, enqueued = queue.popleft()
            self.queue_time += env._now - enqueued
            # Pre-priced floats (CPU bursts, the hot case) skip the
            # _price indirection.
            next_duration = (
                service
                if service.__class__ is float
                else self._price(service)
            )
            if not 0.0 <= next_duration < inf:
                reject_service(self.name, next_duration)
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + next_duration, seq, self._complete_cb,
                 (next_done, next_value, next_duration)),
            )
        else:
            self._busy = False
        # done.succeed(value), inlined (the completion event is fresh
        # by construction, and _complete only runs during dispatch).
        done.triggered = True
        done.value = value
        callbacks = done.callbacks
        if callbacks is None:
            return
        done.callbacks = None
        if callbacks.__class__ is list:
            for callback in callbacks:
                env._schedule(0.0, callback, value)
        else:
            heap = env._heap
            if not env._ready and (not heap or heap[0][0] > env._now):
                env.event_count += 1
                callbacks(value)
            else:
                env._seq = seq = env._seq + 1
                env._ready.append((seq, callbacks, value))

    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this server spent busy.

        Completed service can never exceed wall time on a single FIFO
        server; a ratio above 1.0 means broken accounting, so it raises
        instead of being clamped out of sight.
        """
        if elapsed <= 0:
            return 0.0
        ratio = self.busy_time / elapsed
        if ratio > 1.0 + _UTILIZATION_SLACK:
            raise AssertionError(
                f"server {self.name!r} accounted busy_time {self.busy_time!r}"
                f" > elapsed {elapsed!r} (utilization {ratio:.6f})"
            )
        return ratio
