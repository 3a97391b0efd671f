"""The PR 9 stream-sharding A/B: one heavy open-system point, 1 vs N shards.

Measures the ``warehouse_scale`` 10^5-session bounded point three ways —

* **serial**: the historical single-timeline run (``stream_shards=1``),
* **sharded, sequential**: the session axis split into N independently
  simulated partitions folded with the exact merge algebra, all slices
  executed in this process (``--jobs 1``; what a 1-CPU container runs),
* **sharded, pooled**: the same N slices across ``min(N, --jobs)``
  fork-context worker processes (what a multi-core CI runner runs) —
  skipped when ``--jobs 1``,

and records wall clock, per-slice wall clocks, per-worker peak RSS, and
a digest of the merged aggregates, plus the per-shard ``tracemalloc``
flatness evidence from :mod:`check_bounded_memory` at a reduced scale.
The sequential and pooled sharded runs execute identical slice
simulations, so their aggregate digests must match exactly; the serial
digest differs by the declared ``partition_mode="independent"``
decomposition (cross-slice contention is absent from sharded runs).

Writes ``benchmarks/results/WALLCLOCK_pr9.json``::

    PYTHONPATH=src python benchmarks/wallclock_stream_shards.py \
        --out benchmarks/results/WALLCLOCK_pr9.json

``--sessions`` shrinks the point for a quick smoke of the script itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.dirname(__file__))

from check_bounded_memory import measure as measure_bounded_memory

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import (
    _database_for,
    _execute_stream_slice,
    _peak_rss_kb,
    _pool_context,
    _schema_for,
    _session_query_factory,
)
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.arrivals import partition_sessions


def _digest(result) -> dict:
    """The aggregate fingerprint of one (merged) SimulationResult."""
    return {
        "query_count": result.query_count,
        "avg_response_time_s": round(result.avg_response_time, 6),
        "p95_response_time_s": round(result.response_time_percentile(95), 6),
        "avg_queue_delay_s": round(result.avg_queue_delay, 6),
        "throughput_qps": round(result.throughput_qps, 6),
        "elapsed_s": round(result.elapsed, 6),
        "peak_mpl": result.peak_mpl,
        "records_retained": result.records_retained,
    }


def _timed_slice(work):
    """Pool worker: one slice plus its wall clock and the worker's RSS."""
    started = time.perf_counter()
    result = _execute_stream_slice(work)
    return result, time.perf_counter() - started, _peak_rss_kb()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=100000,
                        help="session count of the measured point "
                             "(default 100000, the warehouse_scale run)")
    parser.add_argument("--stream-shards", type=int, default=2,
                        help="shard count of the sharded runs (default 2)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker budget of the pooled run (default 2; "
                             "1 skips the pooled series)")
    parser.add_argument("--memory-sessions", type=int, default=5000,
                        help="session count of the per-shard tracemalloc "
                             "flatness check (default 5000)")
    parser.add_argument("--out", default=None,
                        help="write the report to this JSON file")
    args = parser.parse_args(argv)

    base = get_scenario("warehouse_scale").runs[0]
    run = replace(
        base,
        run_id=f"wallclock_{args.sessions}",
        streams=args.sessions,
        record_retention="bounded",
    )
    schema = _schema_for(run)
    simulator = ParallelWarehouseSimulator(
        schema,
        run.parsed_fragmentation(),
        run.sim_params(),
        database=_database_for(run, schema),
    )
    factory = _session_query_factory(run, schema)
    series = []

    print(f"[1/3] serial: {args.sessions} sessions on one timeline",
          flush=True)
    started = time.perf_counter()
    serial = simulator.run_open_system(
        run.streams, run.workload_params(), query_factory=factory
    )
    series.append({
        "mode": "serial",
        "stream_shards": 1,
        "jobs": 1,
        "wall_clock_s": round(time.perf_counter() - started, 2),
        "peak_rss_kb": round(_peak_rss_kb(), 1),
        "digest": _digest(serial),
    })

    slices = partition_sessions(run.streams, args.stream_shards)
    sharded = replace(run, stream_shards=args.stream_shards)

    print(f"[2/3] sharded x{args.stream_shards}, sequential fold",
          flush=True)
    started = time.perf_counter()
    per_slice = []
    results = []
    for session_slice in slices:
        slice_started = time.perf_counter()
        results.append(_execute_stream_slice((sharded, *session_slice)))
        per_slice.append(round(time.perf_counter() - slice_started, 2))
    merged = SimulationResult.merged(results)
    series.append({
        "mode": "sharded_sequential",
        "stream_shards": args.stream_shards,
        "jobs": 1,
        "wall_clock_s": round(time.perf_counter() - started, 2),
        "per_slice_wall_clock_s": per_slice,
        "peak_rss_kb": round(_peak_rss_kb(), 1),
        "digest": _digest(merged),
    })

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(
            args.jobs, sum(1 for start, stop in slices if stop > start)
        )
        print(f"[3/3] sharded x{args.stream_shards}, pooled across "
              f"{workers} workers", flush=True)
        started = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            timed = list(pool.map(
                _timed_slice,
                [(sharded, *s) for s in slices],
            ))
        pooled = SimulationResult.merged([entry[0] for entry in timed])
        series.append({
            "mode": "sharded_pooled",
            "stream_shards": args.stream_shards,
            "jobs": workers,
            "wall_clock_s": round(time.perf_counter() - started, 2),
            "per_slice_wall_clock_s": [round(t, 2) for _, t, _ in timed],
            "per_worker_peak_rss_kb": [round(r, 1) for _, _, r in timed],
            "digest": _digest(pooled),
        })
        if series[-1]["digest"] != series[-2]["digest"]:
            print("FAIL: pooled and sequential sharded digests differ",
                  file=sys.stderr)
            return 1
    else:
        print("[3/3] pooled series skipped (--jobs 1)", flush=True)

    print("[mem] per-shard tracemalloc flatness "
          f"({args.memory_sessions} sessions)", flush=True)
    memory = measure_bounded_memory(
        args.memory_sessions, "bounded", args.stream_shards
    )

    report = {
        "benchmark": "stream_sharding_wallclock",
        "scenario": "warehouse_scale",
        "sessions": args.sessions,
        "partition_mode": "independent",
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": sys.platform,
        },
        "series": series,
        "per_shard_bounded_memory": memory,
        "notes": (
            "Sharded runs split the arrival process into contiguous "
            "session slices (one serial RNG stream, bit-exact serial "
            "arrival instants) simulated independently and folded with "
            "the exact merge algebra; their digests are identical for "
            "sequential vs pooled execution by construction.  The "
            "serial digest differs where slices would have contended "
            "(declared partition_mode=independent).  On a 1-CPU host "
            "the pooled series measures pure overhead; the speedup "
            "claim is per-worker wall clock (per_slice_wall_clock_s) "
            "and the flat per-worker RSS/tracemalloc peaks."
        ),
    }
    print(json.dumps(report, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
