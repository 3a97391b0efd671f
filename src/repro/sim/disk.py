"""Disk model with track-position-dependent seek times.

"The disk model calculates varying seek times based on track positions
rather than giving constant or stochastically distributed response
times" (Section 5).  We use the classical square-root seek curve,
calibrated so that a uniformly random seek over the whole platter takes
``avg_seek_ms``:  E[sqrt(|x - y|)] = 8/15 for uniform x, y, hence
``max_seek = avg_seek / (8/15)``.

This reproduces the paper's observation that speed-up over the disk
count is *slightly superlinear*: with more disks each holds less data,
so the head travels shorter distances.

Every read is one request of one or more extents: it is priced by
:meth:`Disk._service` when it reaches the head (against the head
position at that moment) and completes as one event.
"""

from __future__ import annotations

import math
from heapq import heappush
from math import inf
from math import sqrt as _sqrt
from typing import Sequence

from repro.sim.config import DiskParameters
from repro.sim.engine import Environment, Event
from repro.sim.resources import FifoServer, reject_service

#: ``Event.__new__``, bound once for the inlined allocations below.
_EVENT_NEW = Event.__new__

#: E[sqrt(|x-y|)] for independent uniform x, y on [0, 1].
_MEAN_SQRT_DISTANCE = 8.0 / 15.0


class Disk(FifoServer):
    """One disk: a FIFO server whose service time models the mechanics.

    A request is one or more page extents read in one go (the subquery's
    prefetch granules); each extent pays a seek from the current head
    position, the settle/controller delay, and the per-page transfer.

    Statistics semantics: ``pages_read`` and ``seek_time`` accrue when a
    request's service is *priced* (service start — the moment the head
    movement is decided), never at submit, so a truncated run does not
    count I/O that was still queued when the clock stopped.
    """

    __slots__ = (
        "disk_id",
        "params",
        "_head_track",
        "_total_tracks",
        "_max_seek_s",
        "_pages_per_track",
        "_settle_s",
        "_per_page_s",
        "pages_read",
        "seek_time",
    )

    def __init__(self, env: Environment, params: DiskParameters, disk_id: int):
        super().__init__(env, name=f"disk{disk_id}")
        self.disk_id = disk_id
        self.params = params
        self._head_track = 0.0
        self._total_tracks = params.capacity_pages / params.pages_per_track
        self._max_seek_s = (
            params.avg_seek_ms / 1000.0 / _MEAN_SQRT_DISTANCE
        )
        self._pages_per_track = params.pages_per_track
        self._settle_s = params.settle_controller_ms / 1000.0
        self._per_page_s = params.per_page_ms / 1000.0
        # Statistics
        self.pages_read = 0
        self.seek_time = 0.0

    def seek_seconds(self, from_track: float, to_track: float) -> float:
        """Square-root seek curve between two tracks."""
        distance = abs(to_track - from_track)
        if distance == 0:
            return 0.0
        return self._max_seek_s * math.sqrt(distance / self._total_tracks)

    def read(self, start_page: int, n_pages: int) -> Event:
        """Read one extent; completes when the transfer finishes."""
        return self.read_extents([(start_page, n_pages)])

    def read_extents(self, extents: Sequence[tuple[int, int]]) -> Event:
        """Read several extents in one request (coalesced granules).

        Extents are validated here, at the call site, so a malformed
        request fails in the caller's stack frame instead of mid-event
        inside the service pricing.
        """
        if not extents:
            raise ValueError("need at least one extent")
        total_pages = 0
        for _start, n_pages in extents:
            if n_pages <= 0:
                raise ValueError("extent must cover at least one page")
            total_pages += n_pages
        return self.read_validated(list(extents), total_pages)

    def read_validated(
        self, extents: list[tuple[int, int]], total_pages: int, base: int = 0
    ) -> Event:
        """Trusted :meth:`read_extents`: extents prechecked, pages presummed.

        For callers (the subquery scheduler) that construct the extent
        list themselves and already track its page sum.  ``extents`` may
        be offsets against ``base`` (shared extent templates).  Queued
        requests use the flat ``(extents, done, total_pages, enqueued,
        base)`` form that :meth:`_complete` prices directly — no closure
        and no nested service tuple per request.  This inlines
        :meth:`FifoServer.submit` for the idle-server case (service
        times are non-negative sums of seek, settle and transfer
        components, so the negativity check of the generic path is
        vacuous here).
        """
        env = self.env
        # Event(env), field stores inlined: no __init__ frame on the
        # hottest allocation site of bitmap-heavy plans.
        done = _EVENT_NEW(Event)
        done.env = env
        done.callbacks = None
        done.triggered = False
        done.value = None
        if self._busy:
            self._queue.append((extents, done, total_pages, env._now, base))
        else:
            self._busy = True
            duration = self._service(extents, base)
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + duration, seq, self._complete_cb,
                 (done, total_pages, duration)),
            )
        return done

    def _complete(self, entry) -> None:
        """:meth:`FifoServer._complete` with the disk's flat queued form
        ``(extents, done, total_pages, enqueued, base)`` priced by
        :meth:`_service` (the hot case on saturated disks); 4-tuples
        from the generic :meth:`FifoServer.submit` fall back to
        :meth:`_price`.  Service times from :meth:`_service` are
        non-negative sums of seek, settle and transfer components, so
        the generic negativity check is vacuous for them.  The
        completion event's ``succeed`` is inlined as well: the event is
        fresh by construction and this method only ever runs during
        dispatch.
        """
        done, value, duration = entry
        self.busy_time += duration
        self.request_count += 1
        queue = self._queue
        env = self.env
        if queue:
            next_entry = queue.popleft()
            if len(next_entry) == 5:
                extents, next_done, next_value, enqueued, base = next_entry
                self.queue_time += env._now - enqueued
                next_duration = self._service(extents, base)
            else:
                service, next_done, next_value, enqueued = next_entry
                self.queue_time += env._now - enqueued
                next_duration = self._price(service)
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
        # done.succeed(value), inlined (no triggered re-check: the
        # event is fresh); _dispatching is True inside a dispatch.
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

    def _service(
        self, extents: Sequence[tuple[int, int]], base: int = 0
    ) -> float:
        if len(extents) == 1:
            # Single-extent requests dominate bitmap-heavy plans (every
            # packed cluster extent and every sub-page bitmap fragment
            # is one extent); the direct form performs the exact same
            # IEEE-754 operations as one loop iteration.
            offset, n_pages = extents[0]
            start_page = base + offset
            ppt = self._pages_per_track
            track = start_page / ppt
            distance = track - self._head_track
            if distance < 0.0:
                distance = -distance
            if distance == 0:
                seek = 0.0
            else:
                seek = self._max_seek_s * _sqrt(
                    distance / self._total_tracks
                )
            self.seek_time += seek
            self.pages_read += n_pages
            self._head_track = (start_page + n_pages) / ppt
            return seek + self._settle_s + n_pages * self._per_page_s
        ppt = self._pages_per_track
        settle = self._settle_s
        per_page = self._per_page_s
        max_seek = self._max_seek_s
        total_tracks = self._total_tracks
        sqrt = math.sqrt
        head = self._head_track
        seek_sum = self.seek_time
        pages_sum = 0
        total = 0.0
        for offset, n_pages in extents:
            start_page = base + offset
            track = start_page / ppt
            distance = track - head
            if distance < 0.0:
                distance = -distance
            if distance == 0:
                seek = 0.0
            else:
                seek = max_seek * sqrt(distance / total_tracks)
            seek_sum += seek
            total += (seek + settle + n_pages * per_page)
            pages_sum += n_pages
            head = (start_page + n_pages) / ppt
        self._head_track = head
        self.seek_time = seek_sum
        self.pages_read += pages_sum
        return total
