"""Span tracing and the profiled dispatch split for the traced run.

The benchmark records spans from its own files only: :class:`Tracer`
replaces the simulator's public boundaries (schema and database
construction, query instantiation, arrivals, routing, work expansion,
the ``run*`` dispatch loops, metric records and summaries, the BENCH
report) with wrappers for the length of a traced pass and restores the
originals afterwards, so untraced passes run the unmodified code.

Each span is ``[name, start, end, parent]``; spans stay in memory until
the run writes them out.  A layer's time is the self time of its spans:
a span's duration minus the time its direct children cover.

:func:`dispatch_shares` splits the dispatch loop's self time by owner
(``src/repro/sim/<owner>.py``) from a ``cProfile`` pass.  Profiling
inflates host time several-fold, so only shares are reported.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from collections import defaultdict
from time import perf_counter

#: Span name of each layer, keyed by the per-layer metric it feeds.
LAYER_SPANS = {
    "schema.build_s": "schema.build",
    "database.build_s": "database.build",
    "workload.instantiate_s": "workload.instantiate",
    "workload.arrivals_s": "workload.arrivals",
    "mdhf.plan_s": "mdhf.plan",
    "database.expand_s": "database.expand",
    "dispatch.self_s": "dispatch",
    "metrics.record_s": "metrics.record",
    "metrics.summary_s": "metrics.summary",
    "report.s": "report",
}

#: ``SimulationResult`` accessors that summarise a finished run.
SUMMARY_PROPERTIES = (
    "query_count",
    "records_retained",
    "percentile_source",
    "avg_response_time",
    "max_response_time",
    "avg_queue_delay",
    "max_queue_delay",
    "avg_total_delay",
    "throughput_qps",
    "avg_disk_utilization",
    "avg_cpu_utilization",
    "total_pages",
)
SUMMARY_METHODS = (
    "response_time_percentile",
    "queue_delay_percentile",
    "total_delay_percentile",
    "per_stream",
)

#: Modules of ``src/repro/sim`` that make up the event-dispatch loop.
DISPATCH_OWNERS = (
    "engine",
    "scheduler",
    "resources",
    "cpu",
    "network",
    "disk",
    "buffer",
    "admission",
    "simulator",
)
#: Owner of non-repro code (C builtins, library modules) called from dispatch.
BUILTINS = "builtins"


class Tracer:
    """Records spans at the simulator's public layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: ``SimulationResult`` of every traced ``run*`` call, in order.
        self.results: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def layer_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    # -- wrappers ------------------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap_call(self, owner, attr: str, name: str, after=None) -> None:
        """Span every call of ``owner.attr``; ``after(result, args)`` counts."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result, args)
            return result

        self._replace(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str, after=None) -> None:
        """Span every ``next`` of the generator ``owner.attr`` returns."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                if after is not None:
                    after(item)
                yield item

        self._replace(owner, attr, traced)

    def wrap_property(self, owner, attr: str, name: str) -> None:
        prop = vars(owner)[attr]
        tracer = self

        def fget(obj):
            index = tracer.begin(name)
            try:
                return prop.fget(obj)
            finally:
                tracer.end(index)

        self._replace(owner, attr, property(fget, prop.fset, prop.fdel, prop.__doc__))

    def install(self) -> None:
        """Wrap every boundary of :data:`LAYER_SPANS`."""
        from repro.mdhf.query import QueryTemplate
        from repro.scenarios import runner
        from repro.schema import apb1
        from repro.sim.database import SimulatedDatabase
        from repro.sim.metrics import SimulationResult
        from repro.sim.simulator import ParallelWarehouseSimulator
        from repro.workload.arrivals import ArrivalProcess

        counts = self.counts

        def count_plan(plan, _args):
            counts["mdhf.plans"] += 1
            counts["mdhf.fragments"] += plan.fragment_count

        def count_work(work):
            counts["database.subqueries"] += 1
            counts["database.extents"] += work.fact_extent_count + len(
                work.bitmap_disks
            ) * len(work.bitmap_extents)

        def count_query(_query, _args):
            counts["workload.queries"] += 1

        def count_record(_none, _args):
            counts["metrics.records"] += 1

        def keep_result(result, _args):
            counts["dispatch.events"] += result.event_count
            self.results.append(result)

        self.wrap_call(apb1, "apb1_schema", "schema.build")
        self.wrap_call(apb1, "tiny_schema", "schema.build")
        self.wrap_call(SimulatedDatabase, "__init__", "database.build")
        self.wrap_call(QueryTemplate, "instantiate", "workload.instantiate", count_query)
        self.wrap_generator(ArrivalProcess, "iter_arrival_slice", "workload.arrivals")
        self.wrap_call(SimulatedDatabase, "plan", "mdhf.plan", count_plan)
        self.wrap_generator(
            SimulatedDatabase, "iter_subquery_work", "database.expand", count_work
        )
        for method in ("run", "run_multi_user", "run_open_system"):
            self.wrap_call(ParallelWarehouseSimulator, method, "dispatch", keep_result)
        self.wrap_call(SimulationResult, "record", "metrics.record", count_record)
        for attr in SUMMARY_PROPERTIES:
            self.wrap_property(SimulationResult, attr, "metrics.summary")
        for attr in SUMMARY_METHODS:
            self.wrap_call(SimulationResult, attr, "metrics.summary")
        for attr in ("metrics_projection", "metrics_fingerprint", "to_json_dict"):
            self.wrap_call(runner.BenchReport, attr, "report")
        self.wrap_call(runner, "compare_to_golden", "report")

    def uninstall(self) -> None:
        """Restore every wrapped boundary."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _owner(filename: str, sim_dir: str) -> str | None:
    """The dispatch owner of a profiled function's file, if it has one."""
    if filename == "~" or os.path.dirname(os.path.abspath(filename)) != sim_dir:
        return None
    module = os.path.splitext(os.path.basename(filename))[0]
    return module if module in DISPATCH_OWNERS else None


def dispatch_shares(profiler: cProfile.Profile) -> dict[str, float]:
    """Share of dispatch self time per owner module, from a profile.

    Functions in ``src/repro/sim/<owner>.py`` count for their owner.
    Time in non-repro code (C builtins such as heap operations and
    generator ``send``, library modules) counts as ``builtins`` for the
    part called from an owner module; cProfile keeps that split per
    caller edge.
    """
    import repro.sim

    sim_dir = os.path.dirname(os.path.abspath(repro.sim.__file__))
    repro_dir = os.path.dirname(sim_dir)
    seconds: dict[str, float] = defaultdict(float)
    for (filename, _line, _func), entry in pstats.Stats(profiler).stats.items():
        _cc, _nc, self_time, _cum, callers = entry
        owner = _owner(filename, sim_dir)
        if owner is not None:
            seconds[owner] += self_time
        elif filename == "~" or not os.path.abspath(filename).startswith(
            repro_dir + os.sep
        ):
            for (caller_file, _l, _f), edge in callers.items():
                if _owner(caller_file, sim_dir) is not None:
                    seconds[BUILTINS] += edge[2]
    total = sum(seconds.values())
    return {
        owner: (seconds[owner] / total if total else 0.0)
        for owner in (*DISPATCH_OWNERS, BUILTINS)
    }
