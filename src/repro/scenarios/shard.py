"""In-run sweep sharding: plan / execute / merge for one scenario.

One scenario expands into a run-point list (and, for multi-seed
replications, a ``runs x seeds`` product).  This module splits that list
into *shards* — contiguous chunks that a process pool executes
independently — and merges the per-shard results back into the original
run order, so the report (and its ``metrics_fingerprint``) is
byte-identical for any ``--jobs N``, including the serial path.

Design rules:

* **Shards are contiguous slices** of the run list.  The merge is then a
  plain concatenation in shard order, and each shard inherits the serial
  path's cache locality (consecutive points usually share a database).
* **Chunk boundaries prefer database-group boundaries.**  Run points
  sharing a physical database (same :func:`~repro.scenarios.runner`
  ``_database_key``) are packed into the same shard when the chunk size
  allows, so a worker builds each database at most once.
* **Groups split across shards are pre-warmed in the parent** before the
  pool forks: the workers inherit the shared ``SimulatedDatabase`` /
  ``FragmentGeometry`` caches copy-on-write instead of cold-starting
  every point.  (On platforms without ``fork`` the warm-up is skipped
  and each worker builds what its shards need.)
* **Failures carry the run point.**  A run that raises inside a worker
  does not poison the pool with a bare traceback: the shard returns a
  :class:`ShardError` naming the failing ``run_id``, and the merge
  raises :class:`ShardExecutionError` with that id front and centre.
"""

from __future__ import annotations

import math
import traceback as _traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.scenarios.spec import RunSpec

#: Default shards-per-worker oversubscription: enough chunks that an
#: unlucky worker holding the slowest points can hand spare chunks to
#: idle peers, few enough that per-shard pool overhead stays negligible.
DEFAULT_SHARDS_PER_JOB = 3


class ShardExecutionError(RuntimeError):
    """A run point failed inside a shard; ``run_id`` names the point."""

    def __init__(self, message: str, run_id: str, shard_index: int):
        super().__init__(message)
        self.run_id = run_id
        self.shard_index = shard_index


@dataclass(frozen=True)
class ShardError:
    """What a worker reports when a run point raises."""

    run_id: str
    message: str
    traceback_text: str
    #: The live exception object — only populated when the shard ran in
    #: the driving process (pool workers report strings; an arbitrary
    #: exception is not reliably picklable).  Used as ``__cause__`` of
    #: the :class:`ShardExecutionError` so in-process tracebacks keep
    #: their original frames.
    exception: BaseException | None = None


@dataclass(frozen=True)
class Shard:
    """One contiguous chunk of a scenario's run list."""

    index: int
    runs: tuple[RunSpec, ...]

    @property
    def run_ids(self) -> tuple[str, ...]:
        return tuple(run.run_id for run in self.runs)

    def span(self) -> str:
        """Human-readable ``first..last`` run-id range."""
        ids = self.run_ids
        return ids[0] if len(ids) == 1 else f"{ids[0]}..{ids[-1]}"


@dataclass(frozen=True)
class ShardOutcome:
    """Everything one executed shard produced (results or an error)."""

    index: int
    #: RunResult list; on error, the results completed before the failure.
    results: tuple = ()
    error: ShardError | None = None
    wall_clock_s: float = 0.0
    #: Peak RSS (KiB) of the process that executed the shard, sampled
    #: when the shard finished.  A per-process high-water mark: under a
    #: pool it reflects the worker, on the serial path the driver.
    peak_rss_kb: float = 0.0


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of one scenario's run list."""

    shards: tuple[Shard, ...]
    jobs: int
    chunk_size: int
    #: One representative run per database group that spans >= 2 shards;
    #: building these in the parent before the pool forks lets every
    #: worker inherit the warm caches copy-on-write.
    warm_runs: tuple[RunSpec, ...] = ()

    @property
    def run_count(self) -> int:
        return sum(len(shard.runs) for shard in self.shards)

    def runs(self) -> tuple[RunSpec, ...]:
        return tuple(run for shard in self.shards for run in shard.runs)


def _database_groups(runs: Sequence[RunSpec]) -> list[list[RunSpec]]:
    """Contiguous maximal groups of runs sharing one physical database."""
    from repro.scenarios.runner import _database_key

    groups: list[list[RunSpec]] = []
    last_key = object()
    for run in runs:
        key = _database_key(run)
        if not groups or key != last_key:
            groups.append([])
            last_key = key
        groups[-1].append(run)
    return groups


def plan_shards(
    runs: Iterable[RunSpec],
    jobs: int,
    chunk_size: int | None = None,
) -> ShardPlan:
    """Partition ``runs`` into a deterministic :class:`ShardPlan`.

    ``chunk_size`` caps the runs per shard; ``None`` derives it from the
    run count and ``jobs`` (about :data:`DEFAULT_SHARDS_PER_JOB` shards
    per worker).  ``jobs <= 1`` produces a single shard — the serial
    plan.  Order is always preserved: concatenating the shards' runs
    reproduces the input exactly.
    """
    run_list = tuple(runs)
    jobs = max(1, jobs)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if jobs == 1 or len(run_list) <= 1:
        shards = (
            (Shard(index=0, runs=run_list),) if run_list else ()
        )
        return ShardPlan(
            shards=shards, jobs=1, chunk_size=chunk_size or len(run_list) or 1
        )
    if chunk_size is None:
        chunk_size = max(
            1, math.ceil(len(run_list) / (jobs * DEFAULT_SHARDS_PER_JOB))
        )

    # Pack whole database groups while the shard stays under chunk_size;
    # slice groups larger than chunk_size on their own.
    pending: list[RunSpec] = []
    chunks: list[tuple[RunSpec, ...]] = []

    def flush() -> None:
        if pending:
            chunks.append(tuple(pending))
            pending.clear()

    for group in _database_groups(run_list):
        if len(group) > chunk_size:
            flush()
            for start in range(0, len(group), chunk_size):
                chunks.append(tuple(group[start:start + chunk_size]))
            continue
        if pending and len(pending) + len(group) > chunk_size:
            flush()
        pending.extend(group)
    flush()

    shards = tuple(
        Shard(index=i, runs=chunk) for i, chunk in enumerate(chunks)
    )
    return ShardPlan(
        shards=shards,
        jobs=jobs,
        chunk_size=chunk_size,
        warm_runs=_warm_runs(shards),
    )


def _warm_runs(shards: Sequence[Shard]) -> tuple[RunSpec, ...]:
    """One representative run per database group spanning >= 2 shards."""
    from repro.scenarios.runner import _database_key

    first_seen: dict[tuple, tuple[int, RunSpec]] = {}
    split_keys: list[tuple] = []
    for shard in shards:
        for run in shard.runs:
            key = _database_key(run)
            seen = first_seen.get(key)
            if seen is None:
                first_seen[key] = (shard.index, run)
            elif seen[0] != shard.index and key not in split_keys:
                split_keys.append(key)
    return tuple(first_seen[key][1] for key in split_keys)


def warm_caches(runs: Iterable[RunSpec]) -> list[str]:
    """Build the schema / geometry / database caches for ``runs``.

    Called in the pool's parent process right before forking, so every
    worker inherits the warmed ``_SCHEMA_CACHE`` / ``_DATABASE_CACHE``
    (and the :mod:`repro.mdhf.fragments` geometry cache) copy-on-write
    instead of rebuilding them per shard.  Returns one
    :meth:`~repro.sim.database.SimulatedDatabase.describe` line per
    warmed database, for progress reporting.
    """
    from repro.scenarios.runner import _database_for, _schema_for

    return [
        _database_for(run, _schema_for(run)).describe() for run in runs
    ]


def execute_shard(
    shard: Shard, keep_exception: bool = False, stream_jobs: int = 1
) -> ShardOutcome:
    """Execute one shard's runs in order (top-level: pools pickle it).

    Never raises for a failing run point: the outcome carries a
    :class:`ShardError` naming the ``run_id`` instead, so the driving
    process can report which point of which shard broke.
    ``keep_exception`` attaches the live exception object to the error
    (in-process callers only — see :attr:`ShardError.exception`).
    ``stream_jobs`` is the worker budget for intra-run stream sharding;
    across-runs pool workers keep the default 1 (their slices run
    sequentially — no nested pools), so only the serial driver path
    ever pools stream shards.
    """
    from repro.scenarios.runner import _peak_rss_kb, execute_run

    started = perf_counter()
    results = []
    for run in shard.runs:
        try:
            results.append(execute_run(run, stream_jobs=stream_jobs))
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            return ShardOutcome(
                index=shard.index,
                results=tuple(results),
                error=ShardError(
                    run_id=run.run_id,
                    message=f"{type(exc).__name__}: {exc}",
                    traceback_text=_traceback.format_exc(),
                    exception=exc if keep_exception else None,
                ),
                wall_clock_s=perf_counter() - started,
                peak_rss_kb=_peak_rss_kb(),
            )
    return ShardOutcome(
        index=shard.index,
        results=tuple(results),
        wall_clock_s=perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
    )


def raise_shard_error(outcome: ShardOutcome) -> None:
    """Raise the :class:`ShardExecutionError` an errored outcome carries.

    Chains the original exception as ``__cause__`` when the shard ran
    in-process, so debuggers and test tooling keep the original frames.
    """
    error = outcome.error
    assert error is not None
    raise ShardExecutionError(
        f"run point {error.run_id!r} failed in shard {outcome.index}: "
        f"{error.message}\n{error.traceback_text}",
        run_id=error.run_id,
        shard_index=outcome.index,
    ) from error.exception


def stream_oversubscription_error(
    jobs: int, stream_shards: int, cpu_count: int | None = None
) -> str | None:
    """A friendly refusal when a jobs/stream-shards combination would
    oversubscribe this host, or ``None`` when the combination is fine.

    Stream-shard workers only pool on the serial driver path (inside an
    across-runs pool worker the slices run sequentially), so the
    process count a combination can reach is ``min(jobs,
    stream_shards)``.  On a small container — the 1-CPU case this guard
    exists for — exceeding the CPU count buys no parallelism and
    silently thrashes instead; callers print the message and exit
    rather than letting that happen.
    """
    if cpu_count is None:
        import os

        cpu_count = os.cpu_count() or 1
    workers = min(max(1, jobs), max(1, stream_shards))
    if workers <= cpu_count:
        return None
    return (
        f"--jobs {jobs} with --stream-shards {stream_shards} would run "
        f"{workers} concurrent stream-shard workers on a {cpu_count}-CPU "
        f"host; that oversubscribes the container and thrashes instead "
        f"of parallelising. Use --jobs 1 (sequential shard fold, same "
        f"metrics byte for byte) or at most --jobs {cpu_count}."
    )


def summarize_outcomes(
    plan: ShardPlan, outcomes: Iterable[ShardOutcome]
) -> dict:
    """Order-invariant aggregate of the shards' host diagnostics.

    Wall clocks add (and track the slowest shard); peak RSS takes the
    maximum across the executing processes — the associative merge for
    each diagnostic, mirroring how :meth:`SimulationResult.merge`
    treats its own sums and peaks.  Purely host-side: never part of
    the metrics fingerprint.
    """
    outcome_list = sorted(outcomes, key=lambda outcome: outcome.index)
    if not outcome_list:
        return {}
    slowest = max(outcome_list, key=lambda outcome: outcome.wall_clock_s)
    return {
        "shards": len(outcome_list),
        "jobs": plan.jobs,
        "total_wall_clock_s": round(
            # repro-lint: disable=DET-FLOAT -- host-side diagnostic;
            # never compared against goldens.
            sum(outcome.wall_clock_s for outcome in outcome_list), 3
        ),
        "max_shard_wall_clock_s": round(slowest.wall_clock_s, 3),
        "slowest_shard": slowest.index,
        "peak_rss_kb": round(
            max(outcome.peak_rss_kb for outcome in outcome_list), 1
        ),
    }


def merge_outcomes(
    plan: ShardPlan, outcomes: Iterable[ShardOutcome]
) -> list:
    """Deterministic ordered merge of (possibly out-of-order) outcomes.

    Results come back in the plan's original run order no matter which
    order the shards completed in.  Raises :class:`ShardExecutionError`
    naming the failing run point if any shard reported an error, and
    ``ValueError`` if outcomes are missing, duplicated, or unknown.

    What is merged here are per-run *aggregate* results (each
    ``RunResult.metrics`` is a finished aggregate dict) — never
    per-query record lists; record streams split within one simulation
    merge through :meth:`~repro.sim.metrics.SimulationResult.merged`
    instead.
    """
    by_index: dict[int, ShardOutcome] = {}
    for outcome in outcomes:
        if outcome.index in by_index:
            raise ValueError(f"duplicate outcome for shard {outcome.index}")
        by_index[outcome.index] = outcome
    expected = {shard.index for shard in plan.shards}
    if set(by_index) != expected:
        missing = sorted(expected - set(by_index))
        unknown = sorted(set(by_index) - expected)
        raise ValueError(
            f"shard outcomes do not match the plan "
            f"(missing {missing}, unknown {unknown})"
        )
    for index in sorted(by_index):
        if by_index[index].error is not None:
            raise_shard_error(by_index[index])
    merged = []
    for shard in plan.shards:
        outcome = by_index[shard.index]
        if len(outcome.results) != len(shard.runs):
            raise ValueError(
                f"shard {shard.index} returned {len(outcome.results)} "
                f"results for {len(shard.runs)} runs"
            )
        merged.extend(outcome.results)
    return merged
