"""The benchmark's metrics and how the layers are expected to move them.

Every per-layer metric is tied to the end-to-end metric it should move,
and to the workload that exercises its mechanism and the one that
bypasses it: on the bypassing workload a change to that layer should
leave the end-to-end metrics unmoved.  ``BENCHMARK.json`` lists the same
names, units and directions; a test keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Module(s) of ``src/repro`` the metric measures ("" for end-to-end).
    layer: str = ""
    #: End-to-end metrics a change to the layer should move.
    moves: tuple[str, ...] = ()
    #: Workload with the mechanism / without it.
    contrast: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("subqueries_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MiB", "lower"),
)

_SCANS = "scan_clustered, scan_concurrent"
_ALL = "all"

PER_LAYER = (
    Metric("schema.build_s", "s", "lower", "schema/", ("setup_s",), _ALL),
    Metric(
        "database.build_s", "s", "lower",
        "sim/database.py construction, allocation/, bitmap/", ("setup_s",), _ALL,
    ),
    Metric(
        "workload.instantiate_s", "s", "lower", "workload/ instantiate",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "workload.queries", "count", "lower", "workload/ instantiate",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "workload.arrivals_s", "s", "lower", "workload/ arrivals",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "mdhf.plan_s", "s", "lower", "mdhf/ routing (SimulatedDatabase.plan)",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "mdhf.plans", "count", "lower", "mdhf/ routing",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "mdhf.fragments", "count", "lower", "mdhf/ routing",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "database.expand_s", "s", "lower",
        "sim/database.py expansion (iter_subquery_work, per next)",
        ("subqueries_per_s", "peak_rss_mb"), "scan_clustered / scan_concurrent",
    ),
    Metric(
        "database.subqueries", "count", "lower", "sim/database.py expansion",
        ("subqueries_per_s", "peak_rss_mb"), "scan_clustered / scan_concurrent",
    ),
    Metric(
        "database.extents", "count", "lower", "sim/database.py expansion",
        ("subqueries_per_s", "peak_rss_mb"), "scan_clustered / scan_concurrent",
    ),
    Metric(
        "dispatch.self_s", "s", "lower", "run* self time minus the layers above",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.events", "count", "lower", "sim/engine.py",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.us_per_event", "us", "lower", "run* self time per event",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.disk.share", "share", "lower", "sim/disk.py",
        ("subqueries_per_s",), f"{_SCANS} / open_sessions",
    ),
    Metric(
        "dispatch.engine.share", "share", "lower", "sim/engine.py",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.scheduler.share", "share", "lower", "sim/scheduler.py",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.resources.share", "share", "lower", "sim/resources.py",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.cpu.share", "share", "lower", "sim/cpu.py",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.network.share", "share", "lower", "sim/network.py",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.buffer.share", "share", "lower", "sim/buffer.py",
        ("subqueries_per_s",), "scan_concurrent / scan_clustered",
    ),
    Metric(
        "dispatch.admission.share", "share", "lower", "sim/admission.py",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "dispatch.simulator.share", "share", "lower", "sim/simulator.py",
        ("subqueries_per_s",), _ALL,
    ),
    Metric(
        "dispatch.builtins.share", "share", "lower",
        "C builtins and libraries called from dispatch",
        ("subqueries_per_s",), _ALL,
    ),
    # Modelled devices: simulated and exact.  They describe the load and
    # must not change under a change that only speeds up the simulator.
    Metric("model.disk_util", "ratio", "higher", "sim/disk.py (simulated)", (), _ALL),
    Metric("model.cpu_util", "ratio", "higher", "sim/cpu.py (simulated)", (), _ALL),
    Metric("buffer.hits", "count", "higher", "sim/buffer.py (simulated)", (), _ALL),
    Metric("buffer.misses", "count", "lower", "sim/buffer.py (simulated)", (), _ALL),
    Metric("buffer.hit_ratio", "ratio", "higher", "sim/buffer.py (simulated)", (), _ALL),
    Metric(
        "admission.peak_mpl", "count", "lower", "sim/admission.py (simulated)", (), _ALL
    ),
    Metric(
        "admission.queued", "count", "lower", "sim/admission.py (simulated)", (), _ALL
    ),
    Metric(
        "metrics.record_s", "s", "lower", "sim/metrics.py record",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "metrics.records", "count", "lower", "sim/metrics.py record",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "metrics.summary_s", "s", "lower", "sim/metrics.py summaries",
        ("subqueries_per_s",), f"open_sessions / {_SCANS}",
    ),
    Metric(
        "report.s", "s", "lower",
        "scenarios/ report (projection, fingerprint, golden compare)",
        ("subqueries_per_s",), _ALL,
    ),
    Metric("trace.timed_s", "s", "lower", "the traced pass, host seconds", (), _ALL),
    Metric("trace.overhead", "ratio", "lower", "traced / untraced pass", (), _ALL),
)
