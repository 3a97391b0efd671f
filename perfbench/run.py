"""Host-performance benchmark of the warehouse simulator.

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

It drives the simulator from outside, through its public entry points
(``ScenarioRunner`` at ``jobs=1``,
``ParallelWarehouseSimulator.run_multi_user``, ``SimulatedDatabase.plan``
and ``iter_subquery_work``), on the workloads of
:mod:`perfbench.workloads`.  The load is one closed-loop client:
every leg runs in a fresh interpreter, one process and one thread at a
time, with no pools and no stream shards.

``--trace 0`` reports the end-to-end metrics (:data:`layers.END_TO_END`):

* ``setup_s``: interpreter start to the first simulated event (imports,
  schema and database construction, query instantiation), the median
  of several fresh interpreters;
* ``subqueries_per_s``: simulated subqueries per second of a pass, the
  median over the passes of a ``--seconds`` timed phase shared by
  :data:`TIMED_LEGS` fresh interpreters;
* ``peak_rss_mb``: peak RSS of the timed interpreters after their first
  pass.

Both times are in reference seconds: host seconds scaled by the host's
speed, sampled in the same window (:mod:`perfbench.hostspeed`), so that
runs made minutes apart on a shared host compare.  The same figures in
host seconds, and the host's speed, are printed beside them and kept in
the result record under ``perfbench/out``.

``--trace 1`` reports the per-layer metrics (:data:`layers.PER_LAYER`)
from one traced pass, and the dispatch owner shares from one
``cProfile`` pass; the spans are written under ``perfbench/out``.

Every point of every pass is checked (:mod:`perfbench.workloads`); the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it stamps the host: CPU count, Python version, platform and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT))

from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("scan_clustered", "scan_concurrent", "open_sessions")
DEFAULT_SECONDS = 25
#: Fresh interpreters that share the timed phase.  Passes in one
#: interpreter agree closely, while interpreters differ by several per
#: cent (memory layout, hash seed), so the phase is split across them.
TIMED_LEGS = 2
#: Fresh interpreters whose set-up time is measured per run: the timed
#: ones and as many more that only set up.
SETUP_SAMPLES = 7
#: Host seconds one workload may take before its legs are stopped.
RUN_BUDGET_S = 175.0


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def host_stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _leg(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one worker leg in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"{workload}: out of time before the {mode} leg")
    spawned = time.monotonic()
    try:
        completed = subprocess.run(
            [
                sys.executable, "-m", "perfbench.worker", mode, workload,
                str(seed), str(seconds), repr(spawned), str(OUT_DIR),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: {mode} leg timed out") from exc
    if completed.returncode != 0:
        raise BenchmarkError(
            f"{workload}: {mode} leg exited with code {completed.returncode}"
        )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: {mode} leg printed no result")
    return json.loads(lines[-1])


def _units(metrics) -> dict[str, str]:
    return {metric.name: metric.unit for metric in metrics}


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """The end-to-end metrics of one workload, from untraced legs."""
    setups = [
        _leg("setup", workload, seed, seconds, deadline)
        for _ in range(SETUP_SAMPLES - TIMED_LEGS)
    ]
    timed = [
        _leg("timed", workload, seed, seconds / TIMED_LEGS, deadline)
        for _ in range(TIMED_LEGS)
    ]
    setups += timed
    problems = [problem for leg in timed for problem in leg["problems"]]
    attempted = sum(leg["attempted"] for leg in timed)
    failed = sum(leg["failed"] for leg in timed)
    if len({fingerprint for leg in timed for fingerprint in leg["fingerprints"]}) != 1:
        problems.append("timed interpreters differ in physical outputs")
        failed = attempted
    subqueries = timed[0]["subqueries_per_pass"]
    passes = {
        key: [value for leg in timed for value in leg[key]]
        for key in ("pass_s", "pass_ref_s", "pass_kernel_s")
    }
    values = {
        "setup_s": statistics.median(leg["setup_ref_s"] for leg in setups),
        "subqueries_per_s": statistics.median(subqueries / s for s in passes["pass_ref_s"]),
        "peak_rss_mb": max(leg["peak_rss_mb"] for leg in timed),
    }
    # The same figures in host seconds, and the host's speed, for the record.
    host = {
        "setup_s": statistics.median(leg["setup_s"] for leg in setups),
        "subqueries_per_s": statistics.median(subqueries / s for s in passes["pass_s"]),
        "kernel_us": statistics.median(passes["pass_kernel_s"]) * 1e6,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "values": values,
        "units": _units(END_TO_END),
        "host_values": host,
        "samples": {
            key: [leg[key] for leg in setups]
            for key in ("setup_s", "setup_ref_s", "setup_kernel_s")
        } | passes,
    }


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """The per-layer metrics of one workload, from a traced and a profiled leg."""
    traced = _leg("traced", workload, seed, seconds, deadline)
    profiled = _leg("profile", workload, seed, seconds, deadline)
    attempted = traced["attempted"] + profiled["attempted"]
    failed = traced["failed"] + profiled["failed"]
    problems = traced["problems"] + profiled["problems"]
    if len(set(traced["fingerprints"] + profiled["fingerprints"])) != 1:
        problems.append("traced, untraced and profiled passes differ in physical outputs")
        failed = attempted
    values = {**traced["metrics"], **profiled["metrics"]}
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "values": values,
        "units": _units(PER_LAYER),
        "samples": {"spans": traced["spans"]},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    run = run_traced if trace else run_untraced
    outcome = run(workload, seed, seconds, deadline)
    outcome["host"] = host_stamp(workload, seed, seconds, trace)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result_{workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(outcome, indent=1, sort_keys=True) + "\n")
    return outcome


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, outcome in outcomes.items():
        prefix = f"{name}." if len(names) > 1 else ""
        for problem in outcome["problems"]:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        for metric, value in outcome["values"].items():
            unit = outcome["units"][metric]
            print(f"{name:16s} {metric:28s} {value:16.6f} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        if "host_values" in outcome:
            host = outcome["host_values"]
            print(
                f"{name:16s} in host seconds: setup {host['setup_s']:.4f} s, "
                f"{host['subqueries_per_s']:.1f} subqueries/s, "
                f"host-speed kernel {host['kernel_us']:.1f} us"
            )
        print(json.dumps({"host": outcome["host"]}))
    attempted = sum(outcome["attempted"] for outcome in outcomes.values())
    failed = sum(outcome["failed"] for outcome in outcomes.values())
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
