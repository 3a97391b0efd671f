"""Tests of the benchmark itself, on sub-second stand-ins for its workloads.

The stand-ins run the same code paths as the real workloads (the
scenario runner for single-user and open-system points, ``run_multi_user``
for closed streams) on the ``smoke_tiny`` / ``warehouse_smoke`` registry
points and a tiny-schema twin of ``scan_concurrent``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench import worker
from perfbench.hostspeed import REFERENCE_KERNEL_S, HostSpeed
from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.tracing import Tracer
from perfbench.workloads import (
    WORKLOADS,
    OpenSessions,
    Point,
    RegistryWorkload,
    ScanClustered,
    ScanConcurrent,
)

ROOT = Path(__file__).resolve().parents[2]


class TinySingle(RegistryWorkload):
    name = "tiny_single"
    scenario = "smoke_tiny"
    run_ids = ("tiny_1store",)


class TinyOpen(OpenSessions):
    name = "tiny_open"
    scenario = "warehouse_smoke"
    run_ids = ("bounded256",)


class TinyConcurrent(ScanConcurrent):
    name = "tiny_concurrent"
    SPEC = replace(ScanConcurrent.SPEC, schema="tiny", n_disks=10, n_nodes=2, t=2)


TINY = {cls.name: cls for cls in (TinySingle, TinyOpen, TinyConcurrent)}


def _ready(cls, seed):
    workload = cls(seed)
    workload.setup()
    return workload


def _golden_point(workload: RegistryWorkload, run_id: str) -> Point:
    from repro.scenarios import physical_metrics

    entry = next(e for e in workload.golden()["runs"] if e["run_id"] == run_id)
    metrics = physical_metrics(entry["metrics"])
    return Point(run_id, entry["config_hash"], metrics, metrics.get("subqueries"))


def _perturbed(point: Point, key: str, delta) -> Point:
    return replace(point, physical={**point.physical, key: point.physical[key] + delta})


# -- failed operations ---------------------------------------------------------


def test_golden_point_passes_and_one_perturbed_output_fails():
    workload = ScanClustered(0)
    good = _golden_point(workload, "cluster32")
    replayed = {"cluster32": good.subqueries}
    bad = _perturbed(good, "response_time_s", 1e-9)
    attempted, failed, problems = worker.check_passes(workload, [[good], [bad]], replayed)
    assert (attempted, failed) == (2, 1)
    assert any("cluster32" in problem for problem in problems)


def test_reference_point_passes_and_one_perturbed_output_fails():
    workload = ScanConcurrent(0)
    reference = json.loads((ROOT / "perfbench" / "reference_scan_concurrent.json").read_text())
    good = Point("streams4", reference["config_hash"], reference["physical"],
                 reference["physical"]["subqueries"])
    replayed = {"streams4": good.subqueries}
    assert workload.check(good, replayed, None) == []
    bad = _perturbed(good, "buffer_hits", 1)
    assert workload.check(bad, replayed, None)


@pytest.mark.parametrize(
    "cls, key, delta",
    [
        (TinyConcurrent, "buffer_misses", 1),
        (TinyConcurrent, "query_count", 1),
        (TinyConcurrent, "subqueries", -1),
        (TinyOpen, "records_retained", 1),
        (TinyOpen, "query_count", -1),
        (TinySingle, "subqueries", 1),
    ],
)
def test_one_broken_invariant_counts_the_point_failed(cls, key, delta):
    # Seed 1: no golden applies, so only the invariants can catch it.
    workload = _ready(cls, 1)
    (good,) = workload.run_pass()
    replayed = workload.replay()
    broken = _perturbed(good, key, delta)
    if key == "subqueries":
        broken.subqueries = broken.physical["subqueries"]
    assert workload.check(good, replayed, None) == []
    assert workload.invariants(broken, replayed)
    attempted, failed, _ = worker.check_passes(workload, [[good], [broken]], replayed)
    assert (attempted, failed) == (2, 1)


def test_golden_checks_apply_at_seed_zero_only():
    workload = ScanClustered(1)
    point = _perturbed(_golden_point(ScanClustered(0), "cluster32"), "response_time_s", 1.0)
    assert ScanClustered(0).check(point, {"cluster32": point.subqueries}, None)
    assert workload.check(point, {"cluster32": point.subqueries}, None) == []


@pytest.mark.parametrize("cls", [TinySingle, TinyOpen])
def test_registry_points_match_their_goldens_at_seed_zero(cls):
    workload = _ready(cls, 0)
    attempted, failed, problems = worker.check_passes(
        workload, [workload.run_pass(), workload.run_pass()], workload.replay()
    )
    assert (attempted, failed, problems) == (2, 0, [])


# -- tracing ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_have_identical_physical_metrics(name, tmp_path):
    result = worker.traced_leg(TINY[name](1), tmp_path)
    assert result["failed"] == 0, result["problems"]
    untraced, traced = result["fingerprints"]
    assert untraced == traced
    spans = json.loads(Path(result["spans"]).read_text())["spans"]
    assert {span[0] for span in spans} >= {"setup", "pass", "dispatch", "database.expand"}


def test_tracer_restores_every_boundary():
    from repro.sim.database import SimulatedDatabase
    from repro.sim.metrics import SimulationResult

    before = (dict(vars(SimulatedDatabase)), dict(vars(SimulationResult)))
    tracer = Tracer()
    tracer.install()
    assert vars(SimulatedDatabase)["plan"] is not before[0]["plan"]
    tracer.uninstall()
    assert (dict(vars(SimulatedDatabase)), dict(vars(SimulationResult))) == before


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["dispatch", 0.0, 10.0, -1],
        ["mdhf.plan", 1.0, 2.0, 0],
        ["database.expand", 3.0, 6.0, 0],
        ["metrics.summary", 6.0, 7.0, 0],
        ["metrics.summary", 6.5, 6.75, 3],
    ]
    assert tracer.layer_seconds() == {
        "dispatch": 5.0,
        "mdhf.plan": 1.0,
        "database.expand": 3.0,
        "metrics.summary": 1.0,
    }


def test_dispatch_shares_cover_every_owner_and_sum_to_one():
    result = worker.profile_leg(_ready(TinyConcurrent, 1))
    shares = result["metrics"]
    assert result["failed"] == 0
    assert set(shares) == {m.name for m in PER_LAYER if m.name.endswith(".share")}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["dispatch.engine.share"] > 0


# -- host speed ------------------------------------------------------------------


def test_host_speed_samples_the_window_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(interval_s=0.002) as speed:
        begin = time.perf_counter()
        deadline = begin + 0.1
        while time.perf_counter() < deadline:
            pass
        host_s = time.perf_counter() - begin
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 5
    assert 0 < speed.busy_s < host_s
    assert speed.reference_s(host_s) == pytest.approx(
        (host_s - speed.busy_s) * REFERENCE_KERNEL_S / speed.kernel_s()
    )


def test_a_window_shorter_than_the_interval_still_gets_one_sample():
    with HostSpeed(interval_s=10.0) as speed:
        pass
    assert len(speed.samples) == 1 and speed.busy_s == 0.0
    assert speed.reference_s(1.0) > 0


def test_timed_passes_report_reference_seconds():
    result = worker.timed_leg(_ready(TinyConcurrent, 1), 0.0)
    assert result["failed"] == 0
    assert len(result["pass_s"]) == len(result["pass_ref_s"]) == len(result["pass_kernel_s"])
    assert all(value > 0 for value in result["pass_ref_s"])


# -- reported metrics ------------------------------------------------------------


def _in_process_leg(mode, workload, seed, seconds, deadline):
    """Stand-in for a fresh-interpreter leg: the worker functions in-process."""
    cls = TinyConcurrent if workload == "scan_concurrent" else TinySingle
    setup = {"setup_s": 0.25, "setup_ref_s": 0.2, "setup_kernel_s": 2e-4}
    if mode == "setup":
        return setup
    if mode == "timed":
        return setup | worker.timed_leg(_ready(cls, seed), 0.0)
    if mode == "traced":
        return worker.traced_leg(cls(seed), bench_run.OUT_DIR)
    return worker.profile_leg(cls(seed))


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_named_metric_is_printed_with_its_unit(
    monkeypatch, capsys, tmp_path, trace, expected
):
    monkeypatch.setattr(bench_run, "_leg", _in_process_leg)
    monkeypatch.setattr(bench_run, "OUT_DIR", tmp_path)
    argv = ["--workload", "scan_concurrent", "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    assert bench_run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric.name: metric.unit for metric in expected
    }
    host = json.loads(lines[-2])["host"]
    assert {"cpu_count", "python", "platform", "seed"} <= set(host)
    for metric in expected:
        assert any(metric.name in line and line.endswith(metric.unit) for line in lines)


def test_timed_interpreters_that_disagree_fail_every_point(monkeypatch, capsys, tmp_path):
    legs = []

    def disagreeing_leg(mode, workload, seed, seconds, deadline):
        result = _in_process_leg(mode, workload, seed, seconds, deadline)
        if mode == "timed":
            legs.append(result)
            if len(legs) == 2:
                result["fingerprints"] = ["perturbed"] * len(result["fingerprints"])
        return result

    monkeypatch.setattr(bench_run, "_leg", disagreeing_leg)
    monkeypatch.setattr(bench_run, "OUT_DIR", tmp_path)
    argv = ["--workload", "scan_concurrent", "--seed", "1", "--trace", "0"]
    assert bench_run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(legs) == bench_run.TIMED_LEGS == 2
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_all_runs_every_workload_with_prefixed_metrics(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench_run, "_leg", _in_process_leg)
    monkeypatch.setattr(bench_run, "OUT_DIR", tmp_path)
    assert bench_run.main(["--workload", "all", "--seed", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["metrics"]) == {
        f"{name}.{metric.name}" for name in bench_run.WORKLOAD_NAMES for metric in END_TO_END
    }


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(bench_run.WORKLOAD_NAMES)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert spec["run_seconds"] == bench_run.DEFAULT_SECONDS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_names_the_end_to_end_metric_it_moves():
    names = {metric.name for metric in END_TO_END}
    for metric in PER_LAYER:
        assert set(metric.moves) <= names
        assert metric.layer and metric.contrast


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_clustered",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
