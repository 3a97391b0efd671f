"""Process-based discrete-event simulation engine.

A minimal, fast substitute for the CSIM library used by the original
SIMPAD: simulation *processes* are Python generators that ``yield``
:class:`Event` objects and are resumed when those events trigger.
Events carry a value; :class:`AllOf` joins several events (used for
parallel bitmap I/O within a subquery) and triggers with the list of
its children's values in child order.

The engine is deliberately small — the behavioural fidelity of the
simulation lives in the server models (disk, CPU, network), not here.

Dispatch order is the total order of ``(time, seq)``: ties at one
simulation time resolve in scheduling (FIFO) order.  The schedule is
one binary heap plus a ready deque: callbacks scheduled with zero delay
*during* dispatch go to the FIFO deque, which is merged with the heap
by ``(time, seq)``, avoiding heap traffic for the dominant zero-delay
case while preserving the order exactly; every other entry is one heap
push.

``Event.succeed`` never runs a waiter inline: succeed() can sit in the
middle of the currently-dispatched callback, and running the waiter
before that callback's remainder inverts the ``(time, seq)`` order of
anything both sides schedule at the current instant (found by the
stateful equivalence harness, tests/properties/).  The fused server
completions in :mod:`repro.sim.disk` / :mod:`repro.sim.resources` do
keep an inline-succeed tail — there succeed is the dispatched
callback's *final* action, which makes running the sole waiter
immediately indistinguishable from dispatching it next.

The ready-deque path counts into ``Environment.event_count`` exactly
as if the callback had travelled through the heap, so event statistics
are independent of the fast path.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

#: Type of a simulation process body.
ProcessBody = Generator["Event", Any, Any]

_INF = float("inf")

def _reject_delay(delay: float) -> None:
    """Raise the right ValueError for a negative or non-finite delay.

    NaN compares false to everything, so a plain ``delay < 0`` guard
    lets it through to ``heapq`` where it corrupts the ``(time, seq)``
    total order; ``inf`` keeps the order but parks a callback at a time
    that can never be reached.  Both are caller bugs and rejected here.
    """
    if delay < 0:
        raise ValueError("cannot schedule into the past")
    raise ValueError(f"delay must be finite, got {delay!r}")


class Event:
    """A one-shot occurrence processes can wait on.

    ``callbacks`` holds ``None`` (no waiter), a bare callable (the
    dominant single-waiter case, no list allocation) or a list of
    callables.
    """

    __slots__ = ("env", "callbacks", "triggered", "value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Any = None
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, waking all waiters (in FIFO order)."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks = self.callbacks
        if callbacks is None:
            return self
        self.callbacks = None
        env = self.env
        if callbacks.__class__ is list:
            for callback in callbacks:
                env._schedule(0.0, callback, value)
        elif env._dispatching:
            # _schedule(0.0, callbacks, value), inlined (hot path).
            # Never run the waiter inline here: succeed() may sit in
            # the middle of the current callback, and running the
            # waiter before that callback's remainder inverts the
            # (time, seq) order of anything both sides schedule at this
            # instant.  Inline tails survive only in the fused server
            # completions (disk/resources), where succeed is provably
            # the dispatched callback's final action.
            env._seq = seq = env._seq + 1
            env._ready.append((seq, callbacks, value))
        else:
            env._seq = seq = env._seq + 1
            heapq.heappush(env._heap, (env._now, seq, callbacks, value))
        return self

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register a callback; fires immediately if already triggered."""
        if self.triggered:
            self.env._schedule(0.0, callback, self.value)
            return
        current = self.callbacks
        if current is None:
            self.callbacks = callback
        elif current.__class__ is list:
            current.append(callback)
        else:
            self.callbacks = [current, callback]


class AllOf(Event):
    """An event that triggers once every child event has triggered.

    Its value is the list of the children's values in child order, so
    joined work (e.g. parallel bitmap I/O over staggered fragments) can
    propagate per-fragment results through the join.

    An empty child set triggers with ``[]`` on the *next* dispatch, the
    same deferred semantics as a child set whose members have all
    already triggered — never synchronously at construction.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        # super().__init__(env), field stores inlined (hot path).
        self.env = env
        self.callbacks = None
        self.triggered = False
        self.value = None
        # A caller-owned list is used as-is (callers must not mutate it
        # afterwards); other iterables are materialised.
        if events.__class__ is not list:
            events = list(events)
        self._events = events
        self._pending = len(events)
        if self._pending == 0:
            # Defer exactly like the all-children-already-triggered
            # case (whose `wait` callbacks are scheduled, not run
            # inline): an observer checking `.triggered` right after
            # construction sees the same untriggered state whether the
            # child set is empty or already complete.
            env._schedule(0.0, self.succeed, [])
            return
        on_child = self._on_child
        for event in events:
            event.wait(on_child)

    def _on_child(self, _value: Any) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([event.value for event in self._events])


class Process:
    """A running simulation process wrapping a generator body."""

    __slots__ = ("env", "_send", "_resume_cb", "done")

    def __init__(self, env: "Environment", body: ProcessBody):
        self.env = env
        self._send = body.send
        self._resume_cb = self._resume
        # Event(env), field stores inlined (one process per subquery).
        done = Event.__new__(Event)
        done.env = env
        done.callbacks = None
        done.triggered = False
        done.value = None
        self.done = done
        env._schedule(0.0, self._resume_cb, None)

    def _resume(self, value: Any) -> None:
        try:
            event = self._send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        if event.__class__ is not Event and not isinstance(event, Event):
            raise TypeError(
                f"process yielded {type(event).__name__}, expected Event"
            )
        # event.wait(self._resume_cb), inlined (hot path): one wait per
        # yield of every process.
        if event.triggered:
            self.env._schedule(0.0, self._resume_cb, event.value)
            return
        current = event.callbacks
        if current is None:
            event.callbacks = self._resume_cb
        elif current.__class__ is list:
            current.append(self._resume_cb)
        else:
            event.callbacks = [current, self._resume_cb]


class Environment:
    """The event loop: a clock, a binary heap and a ready deque.

    The schedule is split two ways by urgency:

    * a FIFO **ready deque** for zero-delay callbacks scheduled during
      dispatch (every entry sits at the current simulation time, so the
      merge with the heap only needs a ``(time, seq)`` comparison
      against the heap head);
    * a **binary heap** of ``(time, seq, callback, value)`` entries for
      everything else.
    """

    __slots__ = (
        "_now", "_heap", "_ready", "_seq", "_dispatching", "event_count",
    )

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        #: Zero-delay callbacks scheduled during dispatch: (seq, cb, value).
        self._ready: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._seq = 0
        self._dispatching = False
        self.event_count = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _schedule(
        self, delay: float, callback: Callable[[Any], None], value: Any
    ) -> None:
        # The dominant zero-delay-during-dispatch case keeps its single
        # comparison; other delays pay one extra bound check so NaN
        # (which compares false to everything) and inf never reach the
        # heap.
        if delay == 0.0 and self._dispatching:
            self._seq += 1
            self._ready.append((self._seq, callback, value))
        elif 0.0 <= delay < _INF:
            self._seq += 1
            heapq.heappush(
                self._heap, (self._now + delay, self._seq, callback, value)
            )
        else:
            _reject_delay(delay)

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event triggering ``delay`` seconds from now."""
        # Event(self), field stores inlined (hot path).
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = None
        event.triggered = False
        event.value = None
        # _schedule(delay, event.succeed, value), inlined (hot path).
        if delay == 0.0 and self._dispatching:
            self._seq = seq = self._seq + 1
            self._ready.append((seq, event.succeed, value))
        elif 0.0 <= delay < _INF:
            self._seq = seq = self._seq + 1
            heapq.heappush(
                self._heap, (self._now + delay, seq, event.succeed, value)
            )
        else:
            _reject_delay(delay)
        return event

    def process(self, body: ProcessBody) -> Process:
        """Start a new process; returns a handle whose ``done`` event
        triggers with the generator's return value."""
        return Process(self, body)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def run(self, until: float | None = None) -> float:
        """Execute events until the schedule drains (or ``until``)."""
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        count = 0
        was_dispatching = self._dispatching
        self._dispatching = True
        try:
            if until is not None and until < self._now:
                # A horizon already behind the clock (e.g. a resumed
                # run with a stale `until`): nothing may dispatch — not
                # even leftover ready-deque entries, which sit at the
                # *current* time and hence beyond the horizon — and the
                # clock must not move backwards.
                return self._now
            while True:
                if ready and (
                    not heap
                    or heap[0][0] > self._now
                    or heap[0][1] > ready[0][0]
                ):
                    _seq, callback, value = ready.popleft()
                    count += 1
                    callback(value)
                    continue
                if not heap:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    # until >= self._now here (pre-loop check), so this
                    # only ever advances the clock.
                    self._now = until
                    return self._now
                _time, _seq, callback, value = pop(heap)
                self._now = time
                count += 1
                callback(value)
                # Same-instant batch: while the ready deque is empty,
                # every remaining heap entry at this time carries a
                # smaller seq than anything the callbacks can schedule
                # now, so draining them back-to-back reproduces the
                # merge order exactly without re-checking it per pop.
                while heap and heap[0][0] == time and not ready:
                    _time, _seq, callback, value = pop(heap)
                    count += 1
                    callback(value)
        finally:
            self._dispatching = was_dispatching
            self.event_count += count
        return self._now

    def run_until_event(self, event: Event) -> Any:
        """Run until a specific event triggers; returns its value."""
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        count = 0
        was_dispatching = self._dispatching
        self._dispatching = True
        try:
            while not event.triggered:
                if ready and (
                    not heap
                    or heap[0][0] > self._now
                    or heap[0][1] > ready[0][0]
                ):
                    _seq, callback, value = ready.popleft()
                    count += 1
                    callback(value)
                    continue
                if not heap:
                    break
                time, _seq, callback, value = pop(heap)
                self._now = time
                count += 1
                callback(value)
                # Same-instant batch (see `run`); additionally stops as
                # soon as the awaited event triggers so no callback runs
                # that a caller-observed stop should have deferred.
                while (
                    not event.triggered
                    and heap
                    and heap[0][0] == time
                    and not ready
                ):
                    _time, _seq, callback, value = pop(heap)
                    count += 1
                    callback(value)
        finally:
            self._dispatching = was_dispatching
            self.event_count += count
        if not event.triggered:
            raise RuntimeError("schedule drained before the event triggered")
        return event.value
