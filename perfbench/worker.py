"""One fresh-interpreter leg of a benchmark run.

``python3 -m perfbench.worker <mode> <workload> <seed> <seconds> <spawned> <out_dir>``
with the repository root and ``src`` on ``PYTHONPATH``.  ``spawned`` is
the parent's ``time.monotonic()`` just before it started this process,
so set-up time counts from interpreter start.  Modes:

* ``setup``: set up and exit (one more set-up time sample);
* ``timed``: set up, then repeat passes for about ``seconds`` of host
  time (within half a pass), then check every point;
* ``traced``: set up under the tracer, run one untraced and one traced
  pass, check both and write the spans to ``out_dir``;
* ``profile``: set up and run one pass under ``cProfile`` for the
  dispatch owner shares.

``setup`` and ``timed`` measure under the host-speed sampler of
:mod:`perfbench.hostspeed` and report reference seconds beside host
seconds; ``traced`` and ``profile`` only report per-layer numbers and
run without it.

The last line of standard output is one JSON object with the leg's
measurements.  Each pass runs after the previous one, in this process
and thread only: no pools, no stream shards.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from perfbench.hostspeed import PASS_INTERVAL_S, SETUP_INTERVAL_S, HostSpeed


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(points) -> str:
    payload = {point.point_id: point.physical for point in points}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_passes(workload, passes, replayed, reference=None):
    """Check every point of every pass; return (attempted, failed, problems).

    Repeated passes are compared with the first pass of the same point,
    or with ``reference`` (a list of points) when given.
    """
    first = {point.point_id: point for point in reference or ()}
    attempted = failed = 0
    problems = []
    for points in passes:
        for point in points:
            attempted += 1
            found = workload.check(point, replayed, first.get(point.point_id))
            first.setdefault(point.point_id, point)
            if found:
                failed += 1
                problems += found
    return attempted, failed, problems


def setup_leg(name: str, seed: int, spawned: float):
    """Set up workload ``name`` under the host-speed sampler.

    Returns the ready workload and its set-up times: host seconds since
    ``spawned`` and the same in reference seconds (:mod:`perfbench.hostspeed`).
    """
    with HostSpeed(SETUP_INTERVAL_S) as speed:
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS[name](seed)
        workload.setup()
        setup_s = time.monotonic() - spawned
    return workload, {
        "setup_s": setup_s,
        "setup_ref_s": speed.reference_s(setup_s),
        "setup_kernel_s": speed.kernel_s(),
    }


def timed_leg(workload, seconds: float) -> dict:
    """Repeat passes of a set-up workload for about ``seconds``, then check them."""
    passes, pass_seconds, pass_ref_seconds, pass_kernel_seconds = [], [], [], []
    started = time.perf_counter()
    while True:
        with HostSpeed(PASS_INTERVAL_S) as speed:
            begin = time.perf_counter()
            passes.append(workload.run_pass())
            pass_seconds.append(time.perf_counter() - begin)
        pass_ref_seconds.append(speed.reference_s(pass_seconds[-1]))
        pass_kernel_seconds.append(speed.kernel_s())
        if len(passes) == 1:
            # Later passes keep a few MiB more, so the peak is taken after
            # the first: it must not depend on how many passes fit.
            peak_rss_mb = _peak_rss_mb()
        # Start another pass only if it should end within half a pass of
        # the deadline, so the timed phase stays near ``seconds`` even
        # when a pass is a large part of it.
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(pass_seconds) / 2 > seconds:
            break
    replayed = workload.replay()
    attempted, failed, problems = check_passes(workload, passes, replayed)
    return {
        "pass_s": pass_seconds,
        "pass_ref_s": pass_ref_seconds,
        "pass_kernel_s": pass_kernel_seconds,
        "subqueries_per_pass": sum(replayed.values()),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprints": [_fingerprint(points) for points in passes],
    }


def _model_metrics(results) -> dict:
    hits = sum(result.buffer_hits for result in results)
    misses = sum(result.buffer_misses for result in results)
    return {
        "model.disk_util": statistics.fmean(r.avg_disk_utilization for r in results),
        "model.cpu_util": statistics.fmean(r.avg_cpu_utilization for r in results),
        "buffer.hits": hits,
        "buffer.misses": misses,
        "buffer.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "admission.peak_mpl": max(result.peak_mpl for result in results),
        "admission.queued": sum(result.queued_arrivals for result in results),
    }


def traced_leg(workload, out_dir: Path) -> dict:
    from perfbench.tracing import LAYER_SPANS, Tracer

    tracer = Tracer()
    tracer.install()
    index = tracer.begin("setup")
    workload.setup()
    tracer.end(index)
    tracer.uninstall()

    begin = time.perf_counter()
    untraced = workload.run_pass()
    untraced_s = time.perf_counter() - begin
    replayed = workload.replay()
    attempted, failed, problems = check_passes(workload, [untraced], replayed)

    tracer.install()
    begin = time.perf_counter()
    index = tracer.begin("pass")
    traced = workload.run_pass()
    tracer.end(index)
    traced_s = time.perf_counter() - begin
    # The traced pass must match the untraced one byte for byte.
    checked = check_passes(workload, [traced], replayed, reference=untraced)
    tracer.uninstall()
    attempted += checked[0]
    failed += checked[1]
    problems += checked[2]

    counts = tracer.counts
    if counts["database.subqueries"] != sum(replayed.values()):
        problems.append(
            f"traced pass expanded {counts['database.subqueries']} subqueries, "
            f"replay yields {sum(replayed.values())}"
        )
        failed = attempted
    seconds = tracer.layer_seconds()
    metrics = {metric: seconds.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    for name in (
        "workload.queries",
        "mdhf.plans",
        "mdhf.fragments",
        "database.subqueries",
        "database.extents",
        "dispatch.events",
        "metrics.records",
    ):
        metrics[name] = counts[name]
    events = counts["dispatch.events"]
    metrics["dispatch.us_per_event"] = (
        metrics["dispatch.self_s"] / events * 1e6 if events else 0.0
    )
    metrics.update(_model_metrics(tracer.results))
    metrics["trace.timed_s"] = traced_s
    metrics["trace.overhead"] = traced_s / untraced_s

    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans_{workload.name}_seed{workload.seed}.json"
    spans_path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans})
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprints": [_fingerprint(untraced), _fingerprint(traced)],
        "spans": str(spans_path),
    }


def profile_leg(workload) -> dict:
    from perfbench.tracing import dispatch_shares

    workload.setup()
    profiler = cProfile.Profile()
    profiler.enable()
    points = workload.run_pass()
    profiler.disable()
    replayed = workload.replay()
    attempted, failed, problems = check_passes(workload, [points], replayed)
    shares = dispatch_shares(profiler)
    return {
        "metrics": {f"dispatch.{owner}.share": share for owner, share in shares.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprints": [_fingerprint(points)],
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, spawned, out_dir = argv
    if mode in ("setup", "timed"):
        workload, result = setup_leg(name, int(seed), float(spawned))
        if mode == "timed":
            result.update(timed_leg(workload, float(seconds)))
    elif mode in ("traced", "profile"):
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS[name](int(seed))
        if mode == "traced":
            result = traced_leg(workload, Path(out_dir))
        else:
            result = profile_leg(workload)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
