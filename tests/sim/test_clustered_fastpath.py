"""Clustered/skewed fast-path invariants (behaviour-preserving claims).

The clustered expansion hands every cluster a shared relative extent
template (keyed by the cluster's composition) plus a base page, the
skewed expansion shares population-keyed templates, bitmap reads are
stored structure-of-arrays, and the counting-only buffer shortcut (the
early return in ``BufferPool.access_extents``) extends to
multi-fragment clustered single-query runs.  Each optimisation is only
valid because of the invariants pinned here: clustered work units equal
a per-fragment reference built straight from the allocation, templates
are shared, packed-key disk validation, drift-free spreader totals,
pairwise-distinct extent accesses under every expansion path,
end-to-end metric equality with the un-shortcut buffer path, and
by-value multi-user metrics of the subquery's bitmap loop with
sequential and parallel bitmap I/O.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.costmodel.estimator import cardenas, distinct_blocks
from repro.mdhf.spec import Fragmentation
from repro.schema.apb1 import tiny_schema
from repro.sim.buffer import BufferManager, BufferPool, _MAX_DISK
from repro.sim.config import SimulationParameters
from repro.sim.database import (
    SimulatedDatabase,
    _Spreader,
    _spread_counts,
)
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type


def _tiny_params(**overrides):
    params = SimulationParameters().with_hardware(
        n_disks=8, n_nodes=2, subqueries_per_node=2
    )
    return replace(params, **overrides) if overrides else params


def _tiny_database(**overrides):
    schema = tiny_schema()
    fragmentation = Fragmentation.parse("time::month", "product::group")
    params = _tiny_params(**overrides)
    return schema, fragmentation, SimulatedDatabase(
        schema, fragmentation, params
    )


# ---------------------------------------------------------------------
# Packed-key disk validation (regression: disk id was unvalidated)
# ---------------------------------------------------------------------


class TestPackedKeyDiskValidation:
    def test_negative_disk_rejected(self):
        pool = BufferPool(64)
        with pytest.raises(ValueError, match="disk id -1"):
            pool.lookup(-1, 0)
        with pytest.raises(ValueError, match="alias"):
            pool.insert(-1, 0, 4)
        with pytest.raises(ValueError, match="alias"):
            pool.access(-1, 0, 4)

    def test_over_wide_disk_rejected(self):
        pool = BufferPool(64)
        with pytest.raises(ValueError, match=f"disk id {_MAX_DISK}"):
            pool.lookup(_MAX_DISK, 0)

    def test_access_extents_validates_disk(self):
        pool = BufferPool(64)
        with pytest.raises(ValueError, match="alias"):
            pool.access_extents(-1, [(0, 4)], 0, 4)
        with pytest.raises(ValueError, match="alias"):
            pool.access_extents(_MAX_DISK, [(0, 4)], 0, 4)

    def test_widest_valid_disk_does_not_alias(self):
        # Regression: disk << 44 with an unvalidated id could collide
        # with another disk's pages; the widest valid id must not.
        pool = BufferPool(64)
        pool.insert(_MAX_DISK - 1, 0, 4)
        assert not pool.lookup(_MAX_DISK - 2, 0)
        assert pool.lookup(_MAX_DISK - 1, 0)


# ---------------------------------------------------------------------
# Spreader totals (regression: absolute epsilon drifted at large rates)
# ---------------------------------------------------------------------


class TestSpreaderExactTotals:
    #: (total, n) pairs where ``floor(total/n * n + 1e-9)`` — the old
    #: absolute-epsilon guard — loses one unit: the float product lands
    #: an ulp below the integer total and 1e-9 is smaller than the ulp.
    DRIFT_CASES = [
        (7_432_717_247, 402_329),
        (33_216_976_259, 492_119),
        (243_430_210_941, 797_913),
        (817_328_170_240, 165_894),
    ]

    @pytest.mark.parametrize("total,n", DRIFT_CASES)
    def test_old_guard_would_drift(self, total, n):
        # Meta-check so the fixture stays meaningful: these cases do
        # expose the old formula.
        assert math.floor((total / n) * n + 1e-9) == total - 1

    @pytest.mark.parametrize("total,n", DRIFT_CASES)
    def test_scalar_spreader_sums_to_total(self, total, n):
        # Summing n draws must recover the exact requested total; the
        # running sum telescopes to the n-th floor-guarded target, so
        # jump the counter instead of iterating 800k times.
        spreader = _Spreader(total / n)
        spreader._count = n - 1
        spreader.next()
        assert spreader._emitted == total

    @pytest.mark.parametrize("total,n", DRIFT_CASES)
    def test_vectorised_counts_sum_to_total(self, total, n):
        assert sum(_spread_counts(total / n, n)) == total

    @pytest.mark.parametrize(
        "rate", [0.0, 0.4, 1.0, 7.25, 112.5, 3.999999, 18_474.0000001]
    )
    def test_vector_matches_scalar_sequence(self, rate):
        n = 513
        spreader = _Spreader(rate)
        assert _spread_counts(rate, n) == [
            spreader.next() for _ in range(n)
        ]

    def test_moderate_rates_unchanged_by_relative_epsilon(self):
        # The relative term must not promote legitimately fractional
        # targets: classic small-rate sequences stay identical.
        assert _spread_counts(112.5, 10) == [112, 113] * 5
        assert sum(_spread_counts(0.37, 1000)) == 370


# ---------------------------------------------------------------------
# Clustered / skewed expansion invariants
# ---------------------------------------------------------------------


def _collect_keys(database, plan):
    fact_keys, bitmap_keys = [], []
    for work in database.iter_subquery_work(plan):
        for start, _pages in work.fact_extents:
            fact_keys.append((work.fact_disk, start))
        for disk, extents in work.bitmap_reads:
            for start, _pages in extents:
                bitmap_keys.append((disk, start))
    return fact_keys, bitmap_keys


#: Clustered layouts on ``tiny_schema``: (density, fragmentation,
#: page size, fact prefetch granule).  ``one_page`` has one-page
#: fragments, ``multi_granule`` 15-page fragments of 8 granules (the
#: last one short), and ``sparse`` 2-page fragments whose 1STORE hit
#: granules spread below 0.5 per fragment, so cluster pairs with no hit
#: granule at all occur.
_CLUSTER_LAYOUTS = {
    "one_page": (0.25, ("time::month", "product::group"), 4096, 8),
    "multi_granule": (0.25, ("time::month", "product::group"), 40, 2),
    "sparse": (0.1, ("time::month", "product::code"), 40, 1),
}


def _clustered_database(layout, cluster_factor, io_coalesce=1):
    density, fragmentation, page_size, prefetch = _CLUSTER_LAYOUTS[layout]
    schema = tiny_schema(density=density)
    params = _tiny_params(
        cluster_factor=cluster_factor, io_coalesce=io_coalesce
    )
    params = replace(
        params,
        buffer=replace(
            params.buffer, page_size=page_size, prefetch_fact_pages=prefetch
        ),
    )
    database = SimulatedDatabase(
        schema, Fragmentation.parse(*fragmentation), params
    )
    return schema, database


def _reference_clusters(database, plan):
    """Per-fragment reference of a clustered expansion.

    Walks the selected fragments one at a time: each fragment's absolute
    extents come from its :meth:`DiskAllocation.fact_location` and the
    scalar ``_sequential_extents`` / ``_spread_extents`` with the scalar
    spreader's hit-granule count; consecutive fragments of one
    allocation unit form a cluster whose extents are cut into
    ``io_coalesce`` batches.  Returns one dict per cluster.
    """
    allocation = database.allocation
    prefetch = database.params.buffer.prefetch_fact_pages
    coalesce = database.params.io_coalesce
    pages = allocation.fact_pages_per_fragment
    granules = math.ceil(pages / prefetch)
    rows = _Spreader(plan.hits_per_fragment)
    hits = None
    if not plan.all_rows_relevant:
        hit_pages = distinct_blocks(
            round(database._tuples_per_fragment),
            database._tuples_per_page,
            plan.hits_per_fragment,
        )
        hits = _Spreader(min(float(granules), cardenas(granules, hit_pages)))

    clusters = []
    for fragment_id in plan.fragment_id_array(database.geometry).tolist():
        disk, start = allocation.fact_location(fragment_id)
        if hits is None:
            extents = database._sequential_extents(start, pages, prefetch)
        else:
            extents = database._spread_extents(
                start, pages, prefetch, granules, hits.next()
            )
        unit = allocation.unit_of(fragment_id)
        if not clusters or clusters[-1]["unit"] != unit:
            clusters.append(
                {"unit": unit, "first": fragment_id, "disk": disk,
                 "extents": [], "rows": 0, "fragments": 0}
            )
        cluster = clusters[-1]
        assert cluster["disk"] == disk
        cluster["extents"].extend(extents)
        cluster["rows"] += rows.next()
        cluster["fragments"] += 1
    for cluster in clusters:
        extents = cluster["extents"]
        cluster["batch_sizes"] = [
            len(extents[i : i + coalesce])
            for i in range(0, len(extents), coalesce)
        ]
        cluster["batch_pages"] = [
            sum(p for _s, p in extents[i : i + coalesce])
            for i in range(0, len(extents), coalesce)
        ]
    return clusters


class TestClusteredReferenceOracle:
    """Clustered work units equal an independent per-fragment reference."""

    @pytest.mark.parametrize("layout", sorted(_CLUSTER_LAYOUTS))
    @pytest.mark.parametrize("query_name", ["1STORE", "1CODE", "1MONTH"])
    @pytest.mark.parametrize("io_coalesce", [1, 3, 8])
    @pytest.mark.parametrize("cluster_factor", [2, 4, 8])
    def test_work_units_match_reference(
        self, layout, query_name, io_coalesce, cluster_factor
    ):
        schema, database = _clustered_database(
            layout, cluster_factor, io_coalesce
        )
        query = query_type(query_name).instantiate(schema, random.Random(0))
        plan = database.plan(query)
        works = list(database.iter_subquery_work(plan))
        expected = _reference_clusters(database, plan)
        assert len(works) == len(expected)
        for work, cluster in zip(works, expected):
            assert work.fragment_id == cluster["first"]
            assert work.fact_disk == cluster["disk"]
            assert work.fragment_count == cluster["fragments"]
            assert work.relevant_rows == cluster["rows"]
            assert work.fact_extents == cluster["extents"]
            assert [
                len(batch) for batch, _pages in work.fact_batches
            ] == cluster["batch_sizes"]
            assert [
                pages for _batch, pages in work.fact_batches
            ] == cluster["batch_pages"]
            assert work.fact_pages == sum(p for _s, p in cluster["extents"])
            assert work.fact_extent_count == len(cluster["extents"])

    @pytest.mark.parametrize(
        "layout, query_name, cluster_factor, kind",
        [
            ("one_page", "1CODE", 4, "partial"),
            ("multi_granule", "1CODE", 8, "partial"),
            ("sparse", "1STORE", 2, "zero_hit"),
        ],
    )
    def test_reference_cases_are_covered(
        self, layout, query_name, cluster_factor, kind
    ):
        # Meta-check: the matrix above does contain partial clusters
        # and clusters without a single hit granule.
        schema, database = _clustered_database(layout, cluster_factor)
        query = query_type(query_name).instantiate(schema, random.Random(0))
        works = list(database.iter_subquery_work(database.plan(query)))
        if kind == "partial":
            assert any(w.fragment_count < cluster_factor for w in works)
        else:
            empty = [w for w in works if not w.fact_extent_count]
            assert empty and any(w.fact_extent_count for w in works)
            assert all(
                w.fact_batches == [] and w.fact_pages == 0 for w in empty
            )

    @pytest.mark.parametrize("layout", ["multi_granule", "sparse"])
    @pytest.mark.parametrize("cluster_factor", [2, 4, 8])
    def test_whole_clusters_share_few_templates(self, layout, cluster_factor):
        # The spreader's two-valued count sequence has at most c + 1
        # distinct windows of length c, so whole clusters need at most
        # cluster_factor + 1 cluster templates.
        schema, database = _clustered_database(layout, cluster_factor)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        works = list(database.iter_subquery_work(plan))
        assert all(w.fragment_count == cluster_factor for w in works)
        distinct = {id(w.fact_batches) for w in works}
        assert len(distinct) <= cluster_factor + 1
        assert len(works) > 4 * len(distinct)

    def test_base_is_first_fragment_start(self):
        schema, database = _clustered_database("multi_granule", 4, 3)
        query = query_type("1CODE").instantiate(schema, random.Random(0))
        for work in database.iter_subquery_work(database.plan(query)):
            _disk, start = database.allocation.fact_location(work.fragment_id)
            assert work.fact_start == start


class TestClusteredDistinctAccesses:
    """The counting-only shortcut is *provably* hit-free under
    clustering: every (disk, start page) a clustered single query
    touches — including the packed per-cluster bitmap extents — is
    pairwise distinct."""

    @pytest.mark.parametrize("cluster_factor", [2, 4, 8])
    def test_clustered_extent_sets_are_disjoint(self, cluster_factor):
        schema, _f, database = _tiny_database(cluster_factor=cluster_factor)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        fact_keys, bitmap_keys = _collect_keys(database, plan)
        assert fact_keys and bitmap_keys
        assert len(set(fact_keys)) == len(fact_keys)
        assert len(set(bitmap_keys)) == len(bitmap_keys)

    def test_skewed_extent_sets_are_disjoint(self):
        schema, _f, database = _tiny_database(data_skew=0.75)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        fact_keys, bitmap_keys = _collect_keys(database, plan)
        assert fact_keys and bitmap_keys
        assert len(set(fact_keys)) == len(fact_keys)
        assert len(set(bitmap_keys)) == len(bitmap_keys)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"cluster_factor": 4},
            {"data_skew": 0.75},
        ],
        ids=["uniform", "clustered", "skewed"],
    )
    def test_count_only_metrics_equal_full_lru(self, overrides, monkeypatch):
        """End to end: a uniform/clustered/skewed single-query run with the
        counting-only shortcut produces metrics identical to the full
        LRU buffer path (no hit is possible, so the shortcut is exact).
        """
        schema = tiny_schema()
        fragmentation = Fragmentation.parse("time::month", "product::group")
        params = _tiny_params(**overrides)
        query = query_type("1STORE").instantiate(schema, random.Random(0))

        fast = ParallelWarehouseSimulator(schema, fragmentation, params)
        with_shortcut = fast.run([query])

        monkeypatch.setattr(
            BufferManager, "assume_distinct_accesses", lambda self: None
        )
        slow = ParallelWarehouseSimulator(schema, fragmentation, params)
        without_shortcut = slow.run([query])

        def signature(result):
            q = result.queries[0]
            return (
                q.response_time, q.subqueries, q.fact_io_ops, q.fact_pages,
                q.bitmap_io_ops, q.bitmap_pages, result.buffer_hits,
                result.buffer_misses, result.event_count, result.elapsed,
                result.disk_busy, result.cpu_busy,
            )

        assert signature(with_shortcut) == signature(without_shortcut)
        assert with_shortcut.buffer_hits == 0


#: Expected multi-user metrics: response times, (buffer hits, misses),
#: event count, bitmap I/O ops.  1STORE reads one bitmap group per
#: subquery, so both I/O modes price alike and only the ``all_of`` join
#: events differ; 1CHANNEL1CODE reads two groups, so the sequential and
#: parallel probe orders both show in the metrics.
_MULTIUSER_BITMAP_REFERENCE = {
    ("1STORE", False): (
        [0.701285825, 0.704367665, 0.705683585,
         0.25560576, 0.323684461, 0.329077546],
        (2362, 1094), 34894, 547,
    ),
    ("1STORE", True): (
        [0.701285825, 0.704367665, 0.705683585,
         0.25560576, 0.323684461, 0.329077546],
        (2362, 1094), 35441, 547,
    ),
    ("1CHANNEL1CODE", False): (
        [0.143722574, 0.147848406, 0.151867801,
         0.061291169, 0.088985194, 0.084858278],
        (12, 204), 1815, 136,
    ),
    ("1CHANNEL1CODE", True): (
        [0.132262577, 0.148924168, 0.152943563,
         0.058421419, 0.060595642, 0.058579658],
        (30, 186), 1841, 124,
    ),
}


class TestSequentialBitmapProbeTiming:
    @pytest.mark.parametrize(
        "template_name, parallel", sorted(_MULTIUSER_BITMAP_REFERENCE)
    )
    def test_multiuser_sequential_bitmap_io_matches_reference(
        self, template_name, parallel
    ):
        """With concurrent streams, a stateful LRU pool must be probed
        group by group: with ``parallel_bitmap_io=False`` only after the
        previous bitmap read completed — other queries mutate the pool
        in between — and with ``parallel_bitmap_io=True`` in one
        uninterrupted probe-and-submit pass.

        Regression: an earlier bulk-probe draft probed every group
        upfront, silently shifting multi-user metrics.  The sequential
        1STORE values are captured from the pre-fast-path
        implementation, the rest from the bulk-probe implementation.
        """
        schema = tiny_schema()
        frag = Fragmentation.parse("time::month", "product::group")
        params = replace(
            SimulationParameters().with_hardware(
                n_disks=6, n_nodes=2, subqueries_per_node=2
            ),
            parallel_bitmap_io=parallel,
        )
        sim = ParallelWarehouseSimulator(schema, frag, params)
        template = query_type(template_name)
        streams = [
            [
                template.instantiate(schema, random.Random(17 * s + q))
                for q in range(2)
            ]
            for s in range(3)
        ]
        result = sim.run_multi_user(streams)
        response_times, buffer, event_count, bitmap_ops = (
            _MULTIUSER_BITMAP_REFERENCE[template_name, parallel]
        )
        assert [
            round(q.response_time, 9) for q in result.queries
        ] == response_times
        assert (result.buffer_hits, result.buffer_misses) == buffer
        assert result.event_count == event_count
        assert sum(q.bitmap_io_ops for q in result.queries) == bitmap_ops


class TestQueuedVsIdleDiskPricing:
    def test_queued_and_idle_single_extent_pricing_agree(self):
        """The single-extent pricing is inlined in ``Disk._complete``
        (queued requests) and lives in ``Disk._service`` (idle disk);
        both copies must price identically, head state included."""
        from repro.sim.config import DiskParameters
        from repro.sim.disk import Disk
        from repro.sim.engine import Environment

        reads = [(0, 4), (5000, 2), (123, 8), (40000, 1)]

        def run(queued: bool):
            env = Environment()
            disk = Disk(env, DiskParameters(), 0)
            if queued:
                # Submit everything at once: all but the first request
                # are priced by the inlined block in _complete.
                for start, pages in reads:
                    disk.read_validated([(start, pages)], pages)
                env.run()
            else:
                # One at a time: every request is priced by _service on
                # an idle disk.
                for start, pages in reads:
                    disk.read_validated([(start, pages)], pages)
                    env.run()
            return disk.busy_time, disk.seek_time, disk.pages_read

        assert run(queued=True) == run(queued=False)


class TestWorkStructureOfArrays:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"cluster_factor": 4}, {"data_skew": 0.75}],
        ids=["uniform", "clustered", "skewed"],
    )
    def test_soa_fields_consistent_with_tuple_views(self, overrides):
        schema, _f, database = _tiny_database(**overrides)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        works = list(database.iter_subquery_work(plan))
        assert works
        for work in works:
            assert len(work.bitmap_disks) == len(work.bitmap_starts)
            reads = work.bitmap_reads_rel
            assert [d for d, _s, _e, _p in reads] == work.bitmap_disks
            assert [s for _d, s, _e, _p in reads] == work.bitmap_starts
            for _d, _s, extents, pages in reads:
                assert extents is work.bitmap_extents
                assert pages == work.bitmap_pages_per_read
                assert pages == sum(p for _o, p in extents)
            assert work.bitmap_pages == (
                work.bitmap_pages_per_read * len(work.bitmap_disks)
            )
            assert work.fact_extent_count == sum(
                len(batch) for batch, _pages in work.fact_batches
            )
            assert work.fact_pages == sum(
                pages for _batch, pages in work.fact_batches
            )

    def test_clustered_covers_every_selected_fragment(self):
        schema, _f, database = _tiny_database(cluster_factor=4)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        works = list(database.iter_subquery_work(plan))
        assert sum(w.fragment_count for w in works) == plan.fragment_count
        assert sum(w.relevant_rows for w in works) == sum(
            _spread_counts(plan.hits_per_fragment, plan.fragment_count)
        )
