"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed set of *points* driven through the simulator's
public entry points; one *pass* runs every point once, and the timed
phase repeats passes.  Every point of every pass is checked, and a point
that fails any check counts as one failed operation:

* at seed 0, registry points are compared with their committed golden
  in ``benchmarks/results`` through ``compare_to_golden``, and the
  ``scan_concurrent`` point with ``perfbench/reference_scan_concurrent.json``;
* at any seed, seed-independent invariants hold
  (:meth:`Workload.invariants`);
* within one run, every pass of a point gives the same physical outputs.

The simulated subquery count a pass completes is fixed by the plans and
the physics; :meth:`Workload.replay` re-derives it by walking
``SimulatedDatabase.iter_subquery_work`` over freshly built databases,
so the throughput metric does not trust the simulator's own counters.

Regenerate the ``scan_concurrent`` reference (only after an intended
change of the simulated physics) with ``python3 -m perfbench.workloads``
from the repository root, with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.scenarios import (
    BenchReport,
    RunResult,
    RunSpec,
    ScenarioRunner,
    get_scenario,
    golden_filename,
    physical_metrics,
    warm_caches,
)
from repro.scenarios import runner as scenario_runner
from repro.scenarios.spec import KIND_SIMULATION, MODE_MULTI_USER, MODE_OPEN_SYSTEM
from repro.schema import apb1
from repro.sim.database import SimulatedDatabase
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "benchmarks" / "results"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_scan_concurrent.json"


@dataclass
class Point:
    """The outputs of one executed point of one pass."""

    point_id: str
    config_hash: str
    #: Fingerprint-relevant outputs, exactly as the simulator produced them.
    physical: dict
    #: Simulated subqueries completed, where the run's outputs expose them.
    subqueries: int | None = None


def _differing_keys(expected: dict, actual: dict) -> list[str]:
    return sorted(
        key for key in set(expected) | set(actual) if expected.get(key) != actual.get(key)
    )


def _schema(run: RunSpec):
    if run.schema == "tiny":
        return apb1.tiny_schema(density=run.density)
    return apb1.apb1_schema(channels=run.channels, density=run.density)


def _database(run: RunSpec, schema) -> SimulatedDatabase:
    params = run.sim_params()
    return SimulatedDatabase(
        schema=schema,
        fragmentation=run.parsed_fragmentation(),
        params=params,
        staggered=params.staggered_allocation,
    )


def _session_queries(run: RunSpec, schema, session: int) -> list:
    """One stream's queries, drawn exactly as the scenario runner does."""
    template = query_type(run.query)
    return [
        template.instantiate(
            schema, random.Random(run.seed + run.stream_seed_stride * session + q)
        )
        for q in range(run.queries_per_stream)
    ]


def _replay_subqueries(run: RunSpec) -> int:
    """Subqueries the point's queries expand into, on a fresh database."""
    schema = _schema(run)
    database = _database(run, schema)
    if run.mode in (MODE_MULTI_USER, MODE_OPEN_SYSTEM):
        queries = (
            query
            for session in range(run.streams)
            for query in _session_queries(run, schema, session)
        )
    else:
        queries = [query_type(run.query).instantiate(schema, random.Random(run.seed))]
    return sum(
        1
        for query in queries
        for _work in database.iter_subquery_work(database.plan(query))
    )


class Workload:
    """One benchmark workload at one seed."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed

    def runs(self) -> list[RunSpec]:
        """The workload's points, at this seed."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build schemas, databases and queries before the timed phase."""
        raise NotImplementedError

    def run_pass(self) -> list[Point]:
        """Run every point once and return their outputs."""
        raise NotImplementedError

    def replay(self) -> dict[str, int]:
        """Replayed subquery count per point id."""
        return {run.run_id: _replay_subqueries(run) for run in self.runs()}

    def invariants(self, point: Point, replayed: dict[str, int]) -> list[str]:
        """Seed-independent properties the point's outputs must have."""
        problems = []
        if point.subqueries is not None and point.subqueries != replayed[point.point_id]:
            problems.append(
                f"{point.point_id}: simulated {point.subqueries} subqueries, "
                f"replayed expansion yields {replayed[point.point_id]}"
            )
        return problems

    def golden_problems(self, point: Point) -> list[str]:
        """Differences from the committed reference (seed 0 only)."""
        raise NotImplementedError

    def check(self, point: Point, replayed: dict[str, int], first: Point | None) -> list[str]:
        """Every check on one point; ``first`` is the run's first pass of it."""
        problems = self.invariants(point, replayed)
        if self.seed == 0:
            problems += self.golden_problems(point)
        if first is not None and first.physical != point.physical:
            keys = _differing_keys(first.physical, point.physical)
            problems.append(f"{point.point_id}: repeated pass differs on {keys}")
        return problems


class RegistryWorkload(Workload):
    """Points of one registered scenario, run through ``ScenarioRunner``."""

    scenario = ""
    run_ids: tuple[str, ...] = ()

    def __init__(self, seed: int):
        super().__init__(seed)
        self._golden: dict | None = None

    def runs(self) -> list[RunSpec]:
        return [
            replace(run, seed=self.seed)
            for run in get_scenario(self.scenario).expand(fast=True)
            if run.run_id in self.run_ids
        ]

    def setup(self) -> None:
        warm_caches(self.runs())

    def run_pass(self) -> list[Point]:
        runner = ScenarioRunner(
            self.scenario,
            fast=True,
            run_ids=list(self.run_ids),
            jobs=1,
            seed=self.seed,
        )
        report = runner.run()
        # The serialised BENCH report (projection and fingerprint) is
        # part of what a user of `repro bench` waits for.
        report.to_json()
        return [
            Point(
                point_id=result.run_id,
                config_hash=result.config_hash,
                physical=physical_metrics(result.metrics),
                subqueries=result.metrics.get("subqueries"),
            )
            for result in report.runs
        ]

    def golden(self) -> dict:
        if self._golden is None:
            for fast in (True, False):
                path = GOLDEN_DIR / golden_filename(self.scenario, fast)
                if path.exists():
                    self._golden = json.loads(path.read_text())
                    break
            else:
                raise FileNotFoundError(f"no committed golden for {self.scenario}")
        return self._golden

    def golden_problems(self, point: Point) -> list[str]:
        spec = get_scenario(self.scenario)
        report = BenchReport(
            scenario=spec.name,
            kind=spec.kind,
            figure=spec.figure,
            fast=True,
            runs=[
                RunResult(
                    run_id=point.point_id,
                    config={},
                    config_hash=point.config_hash,
                    metrics=point.physical,
                    wall_clock_s=0.0,
                )
            ],
        )
        # Through the module, so a traced run sees the call.
        return scenario_runner.compare_to_golden(report, self.golden())


class ScanClustered(RegistryWorkload):
    name = "scan_clustered"
    why = (
        "1STORE on F_MonthCode with Section 6.3 clustering (cluster32, "
        "cluster8), single user: the only workload where work expansion "
        "and peak memory are large"
    )
    scenario = "ablation_fragment_clustering"
    run_ids = ("cluster32", "cluster8")


class OpenSessions(RegistryWorkload):
    name = "open_sessions"
    why = (
        "warehouse_scale sessions10000: 10^4 Poisson sessions at 50 qps, "
        "MPL 32: the only workload with 10^4 plans, instantiations, "
        "arrivals, admissions and metric records"
    )
    scenario = "warehouse_scale"
    run_ids = ("sessions10000",)

    def invariants(self, point: Point, replayed: dict[str, int]) -> list[str]:
        problems = super().invariants(point, replayed)
        (run,) = self.runs()
        expected = run.streams * run.queries_per_stream
        if point.physical.get("query_count") != expected:
            problems.append(
                f"{point.point_id}: query_count {point.physical.get('query_count')} "
                f"!= sessions x queries per stream = {expected}"
            )
        if point.physical.get("records_retained") != 0:
            problems.append(
                f"{point.point_id}: bounded retention kept "
                f"{point.physical.get('records_retained')} records"
            )
        return problems


class ScanConcurrent(Workload):
    """Closed concurrent streams, driven through ``run_multi_user``."""

    name = "scan_concurrent"
    why = (
        "4 closed streams of 1STORE on F_MonthGroup via run_multi_user: the "
        "only workload whose buffer pools keep full LRU state and whose "
        "disk queues are shared across queries"
    )

    #: APB-1 at 5 channels, a third of the paper's fact table: at the
    #: paper's 15 channels one pass takes about 37 host seconds on a 2-vCPU
    #: x86-64 VM, at 5 channels 6-10 s, so one run holds several passes.
    SPEC = RunSpec(
        run_id="streams4",
        query="1STORE",
        fragmentation=("time::month", "product::group"),
        mode=MODE_MULTI_USER,
        channels=5,
        n_disks=100,
        n_nodes=20,
        t=4,
        streams=4,
    )

    def runs(self) -> list[RunSpec]:
        return [replace(self.SPEC, seed=self.seed)]

    def setup(self) -> None:
        (run,) = self.runs()
        self.run = run
        schema = _schema(run)
        self.simulator = ParallelWarehouseSimulator(
            schema,
            run.parsed_fragmentation(),
            run.sim_params(),
            database=_database(run, schema),
        )
        self.streams = [
            _session_queries(run, schema, stream) for stream in range(run.streams)
        ]

    def run_pass(self) -> list[Point]:
        run = self.run
        result = self.simulator.run_multi_user(self.streams)
        queries = result.queries
        metrics = {
            "query_count": result.query_count,
            "elapsed_s": result.elapsed,
            "avg_response_time_s": result.avg_response_time,
            "max_response_time_s": result.max_response_time,
            "response_times_s": [q.response_time for q in queries],
            "coordinator_nodes": [q.coordinator_node for q in queries],
            "subqueries": sum(q.subqueries for q in queries),
            "fact_io_ops": sum(q.fact_io_ops for q in queries),
            "bitmap_io_ops": sum(q.bitmap_io_ops for q in queries),
            "total_pages": result.total_pages,
            "buffer_hits": result.buffer_hits,
            "buffer_misses": result.buffer_misses,
            "avg_disk_utilization": result.avg_disk_utilization,
            "avg_cpu_utilization": result.avg_cpu_utilization,
            "event_count": result.event_count,
        }
        point = RunResult(
            run_id=run.run_id,
            config=run.config_dict(),
            config_hash=run.config_hash(),
            metrics=metrics,
            wall_clock_s=0.0,
        )
        BenchReport(
            scenario="perfbench_scan_concurrent",
            kind=KIND_SIMULATION,
            figure=None,
            fast=False,
            runs=[point],
        ).to_json()
        return [
            Point(
                point_id=point.run_id,
                config_hash=point.config_hash,
                physical=physical_metrics(metrics),
                subqueries=metrics["subqueries"],
            )
        ]

    def invariants(self, point: Point, replayed: dict[str, int]) -> list[str]:
        problems = super().invariants(point, replayed)
        physical = point.physical
        io_ops = physical.get("fact_io_ops", 0) + physical.get("bitmap_io_ops", 0)
        if physical.get("buffer_misses") != io_ops:
            problems.append(
                f"{point.point_id}: buffer_misses {physical.get('buffer_misses')} "
                f"!= fact_io_ops + bitmap_io_ops = {io_ops}"
            )
        if physical.get("query_count") != self.SPEC.streams * self.SPEC.queries_per_stream:
            problems.append(
                f"{point.point_id}: query_count {physical.get('query_count')} "
                f"!= {self.SPEC.streams} streams x {self.SPEC.queries_per_stream}"
            )
        return problems

    def golden_problems(self, point: Point) -> list[str]:
        reference = json.loads(REFERENCE_PATH.read_text())
        problems = []
        if reference["config_hash"] != point.config_hash:
            problems.append(
                f"{point.point_id}: config_hash {point.config_hash} "
                f"!= reference {reference['config_hash']}"
            )
        if reference["physical"] != point.physical:
            keys = _differing_keys(reference["physical"], point.physical)
            problems.append(f"{point.point_id}: metrics differ from reference on {keys}")
        return problems


WORKLOADS = {cls.name: cls for cls in (ScanClustered, ScanConcurrent, OpenSessions)}


def _write_reference() -> None:
    workload = ScanConcurrent(seed=0)
    workload.setup()
    (point,) = workload.run_pass()
    REFERENCE_PATH.write_text(
        json.dumps(
            {"seed": 0, "config_hash": point.config_hash, "physical": point.physical},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":
    _write_reference()
