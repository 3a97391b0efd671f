"""Buffer manager: LRU pools with prefetch-granule residency.

"A simple buffer manager is used supporting LRU page replacement and
prefetching.  We maintain separate buffers for tables and indices"
(Section 5; pool sizes from Table 4: 1,000 fact pages, 5,000 bitmap
pages per node).

Residency is tracked at the granularity the I/O operates in — whole
prefetch extents — keyed by (disk, start page).  An extent counts with
its page count against the pool capacity and is evicted LRU-wise.

Internally the pool keys extents as ``disk << _DISK_SHIFT | start_page``
in an ``OrderedDict`` (C-implemented ``move_to_end``/``popitem`` beat a
plain dict's delete-reinsert on the simulator's hot path); the public
API stays (disk, start_page) pairs.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.config import BufferParameters

#: Bits reserved for the start page in the packed extent key; start
#: pages are bounded by the disk capacity (~2^20 pages by default).
_DISK_SHIFT = 44
_MAX_START = 1 << _DISK_SHIFT
#: Bits left for the disk id above the start-page bits (the packed key
#: stays within one signed 64-bit word).  A negative or over-wide disk
#: id would silently alias another disk's extents in the packed key, so
#: both are rejected.
_DISK_BITS = 19
_MAX_DISK = 1 << _DISK_BITS


class BufferPool:
    """One LRU pool with a page-count capacity.

    ``count_only`` marks a pool whose accesses are known to be pairwise
    distinct for the rest of its life (e.g. a single star query never
    touches the same extent twice — fragments are visited once and their
    extents are disjoint).  Distinct accesses can never hit, so hit/miss
    statistics stay exact while residency tracking is skipped.  The one
    branch on the flag is the early return in :meth:`access_extents`,
    through which the simulator makes every read; callers never test it.
    """

    __slots__ = ("capacity_pages", "name", "_entries", "_used_pages",
                 "hits", "misses", "count_only")

    def __init__(self, capacity_pages: int, name: str = ""):
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self.capacity_pages = capacity_pages
        self.name = name
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._used_pages = 0
        self.hits = 0
        self.misses = 0
        self.count_only = False

    @staticmethod
    def _key(disk: int, start_page: int) -> int:
        if not 0 <= start_page < _MAX_START:
            raise ValueError(f"start page {start_page} out of range")
        if not 0 <= disk < _MAX_DISK:
            raise ValueError(
                f"disk id {disk} out of range [0, {_MAX_DISK}): it would "
                f"alias another disk's extents in the packed key"
            )
        return (disk << _DISK_SHIFT) | start_page

    def lookup(self, disk: int, start_page: int) -> bool:
        """Check residency of an extent; refreshes LRU position on hit."""
        key = self._key(disk, start_page)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, disk: int, start_page: int, pages: int) -> None:
        """Cache an extent, evicting least-recently-used ones as needed."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        if pages > self.capacity_pages:
            return  # larger than the whole pool: bypass
        key = self._key(disk, start_page)
        entries = self._entries
        old = entries.pop(key, None)
        used = self._used_pages
        if old is not None:
            used -= old
        while used + pages > self.capacity_pages:
            _victim, victim_pages = entries.popitem(last=False)
            used -= victim_pages
        entries[key] = pages
        self._used_pages = used + pages

    def access(self, disk: int, start_page: int, pages: int) -> bool:
        """One-step ``lookup`` + ``insert``-on-miss for the hot I/O path.

        Returns True on a hit (LRU position refreshed).  On a miss the
        extent is inserted exactly as ``insert`` would; hit/miss counts
        and the LRU state evolve identically to the two-call sequence.
        """
        key = self._key(disk, start_page)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if pages <= 0:
            raise ValueError("pages must be positive")
        capacity = self.capacity_pages
        if pages > capacity:
            return False  # larger than the whole pool: bypass
        used = self._used_pages
        while used + pages > capacity:
            _victim, victim_pages = entries.popitem(last=False)
            used -= victim_pages
        entries[key] = pages
        self._used_pages = used + pages
        return False

    def access_extents(
        self,
        disk: int,
        extents: list[tuple[int, int]],
        base: int = 0,
        total_pages: int | None = None,
    ) -> tuple[list[tuple[int, int]], int]:
        """Batched :meth:`access` over one disk's extent list.

        ``extents`` may be base-relative (start pages are offsets
        against ``base``), which lets callers pass shared extent
        templates without materialising absolute lists.  ``total_pages``
        may carry the extents' precomputed page sum (work templates know
        it), sparing the counting-only path its only O(n) step.  Returns
        ``(to_read, read_pages)``: the extents that missed (in order,
        still relative) and their page sum.  Hit/miss counts and the LRU
        state evolve exactly as per-extent ``access`` calls on the
        absolute extents would.
        """
        if self.count_only:
            # Distinct accesses can only miss: everything is read.
            self.misses += len(extents)
            if total_pages is None:
                total_pages = 0
                for _offset, pages in extents:
                    total_pages += pages
            return extents, total_pages
        if not 0 <= disk < _MAX_DISK:
            raise ValueError(
                f"disk id {disk} out of range [0, {_MAX_DISK}): it would "
                f"alias another disk's extents in the packed key"
            )
        entries = self._entries
        move_to_end = entries.move_to_end
        capacity = self.capacity_pages
        # Disk bits are disjoint from page bits, so `(disk << S) | start`
        # equals this addition-based form, which folds in the base.
        key_base = (disk << _DISK_SHIFT) + base
        used = self._used_pages
        hits = 0
        misses = 0
        read_pages = 0
        to_read: list[tuple[int, int]] = []
        for extent in extents:
            start_page, pages = extent
            key = key_base + start_page
            if key in entries:
                move_to_end(key)
                hits += 1
                continue
            misses += 1
            to_read.append(extent)
            read_pages += pages
            if pages > capacity:
                continue  # larger than the whole pool: bypass
            while used + pages > capacity:
                _victim, victim_pages = entries.popitem(last=False)
                used -= victim_pages
            entries[key] = pages
            used += pages
        self.hits += hits
        self.misses += misses
        self._used_pages = used
        return to_read, read_pages

    @property
    def used_pages(self) -> int:
        return self._used_pages

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferManager:
    """Per-node buffer manager: separate fact and bitmap pools."""

    __slots__ = ("fact", "bitmap")

    def __init__(self, params: BufferParameters):
        self.fact = BufferPool(params.fact_buffer_pages, name="fact")
        self.bitmap = BufferPool(params.bitmap_buffer_pages, name="bitmap")

    def pool(self, is_bitmap: bool) -> BufferPool:
        return self.bitmap if is_bitmap else self.fact

    def assume_distinct_accesses(self) -> None:
        """Declare that all future accesses use pairwise-distinct extents.

        Sound for a single star query on fresh pools: the plan visits
        each fragment once, extents within a fragment are disjoint, and
        fact/bitmap placements of different fragments never share a
        (disk, start page) key — so no access can ever hit and the LRU
        state is unobservable.  This covers the clustered expansion too
        (Section 6.3): each allocation unit appears in exactly one
        multi-fragment cluster subquery, the cluster's fact extents come
        from disjoint reserved fragment ranges, and every packed bitmap
        extent is keyed by its own (unit slot, bitmap subregion) — and
        the skewed expansion, whose fragments keep their uniformly
        reserved slots.  The disjointness is pinned per path by
        tests/sim/test_clustered_fastpath.py.  Multi-query streams must
        NOT use this.
        """
        self.fact.count_only = True
        self.bitmap.count_only = True
