"""Parallel scenario-campaign engine with a content-addressed result cache.

Every experiment in this reproduction is a sweep: a grid of
(condition x seed) cells, each cell a *pure function* of its config (the
event loop is deterministic and all randomness is derived from the
config's seed — see :mod:`repro.sim.events` and :mod:`repro.sim.rng`).
That purity makes the sweeps embarrassingly parallel and their results
cacheable, which is what this module exploits:

- :class:`CampaignTask` — one (runner function, config) cell.  The runner
  must be a module-level function of a single picklable config whose
  result depends on nothing else.
- :class:`CampaignEngine` — consults a content-addressed on-disk cache,
  then executes the misses: in-process with ``workers=1``, or with
  ``workers=N`` as one run on a lazily spawned
  :class:`~repro.experiments.scheduler.StealingScheduler` (the grid's
  pending tasks are the payload, one chunk per task), which re-runs
  the tasks of a worker that dies.  Results come back **in task order
  regardless of completion order**, so a parallel campaign is
  bit-for-bit identical to a serial one.
- :class:`ResultCache` — maps ``sha256(version, runner id, canonical
  config JSON)`` (see :mod:`repro.experiments.confighash`) to a pickled
  result.  A corrupted or unreadable entry is treated as a miss and
  recomputed, never crashed on.

Experiment drivers accept an ``engine=`` argument and fall back to the
process-wide default (serial, uncached) configured by the CLI's
``--workers`` / ``--cache-dir`` flags via :func:`set_default_engine`.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.confighash import config_key, stable_form
from repro.experiments.scenario import (
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
)

#: Bump to invalidate every cached result (simulation semantics change).
CACHE_VERSION = "tlc-campaign-v7"


@dataclass(frozen=True)
class CampaignTask:
    """One cell of a campaign: a runner function applied to a config.

    ``fn`` must be a module-level function (picklable by reference) of
    one argument, and the result must be a pure function of ``config``.
    """

    fn: Callable[[Any], Any]
    config: Any

    @property
    def runner_id(self) -> str:
        """Stable identity of the runner, used in cache keys."""
        return f"{self.fn.__module__}.{self.fn.__qualname__}"

    def key(self, version: str = CACHE_VERSION) -> str:
        """This task's content-addressed cache key."""
        return config_key(self.runner_id, self.config, version)


def scenario_tasks(
    configs: Iterable[ScenarioConfig],
) -> list[CampaignTask]:
    """Wrap scenario configs as campaign tasks over ``run_scenario``."""
    return [CampaignTask(fn=run_scenario, config=c) for c in configs]


def scenario_label(config: Any) -> str:
    """A short human-readable label for a scenario (telemetry reports)."""
    if isinstance(config, ScenarioConfig):
        return (
            f"{config.app} seed={config.seed}"
            f" bg={config.background_bps:g}"
            f" dis={config.disconnectivity_ratio:g}"
        )
    return type(config).__name__


@dataclass(frozen=True)
class TaskFailure:
    """A worker-side exception, captured in picklable form.

    Worker processes cannot reliably pickle arbitrary exception objects
    back to the parent, so :func:`_execute_task` flattens them to
    strings; the engine re-raises (or records) them parent-side as
    :class:`CampaignTaskError`.
    """

    error_type: str
    message: str
    traceback_text: str


class CampaignTaskError(RuntimeError):
    """One campaign cell failed; carries which cell and its config hash.

    The config hash is the task's content-addressed cache key, so a
    failing cell can be reproduced exactly (or its cache entry hunted
    down) from the error message alone.
    """

    def __init__(
        self, index: int, runner: str, config_hash: str, failure: TaskFailure
    ) -> None:
        super().__init__(
            f"campaign task {index} ({runner}) failed "
            f"[config {config_hash[:16]}]: "
            f"{failure.error_type}: {failure.message}"
        )
        self.index = index
        self.runner = runner
        self.config_hash = config_hash
        self.failure = failure


@dataclass
class CampaignReport:
    """Timing/throughput metrics for one (or many) campaign runs."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    compute_seconds: float = 0.0

    @property
    def tasks_per_second(self) -> float:
        """Campaign throughput over wall-clock time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total / self.wall_seconds

    @property
    def parallel_speedup(self) -> float:
        """Aggregate compute time over wall time (>1 when fan-out pays)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.compute_seconds / self.wall_seconds

    def merge(self, other: "CampaignReport") -> None:
        """Fold ``other``'s counters into this report (for totals)."""
        self.total += other.total
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.failed += other.failed
        self.wall_seconds += other.wall_seconds
        self.compute_seconds += other.compute_seconds


class ResultCache:
    """Content-addressed on-disk cache of campaign results.

    Layout: ``<root>/<version>/<key[:2]>/<key>.pkl`` where ``key`` is the
    task's :meth:`CampaignTask.key`.  Entries are written atomically
    (temp file + ``os.replace``), so a concurrent reader never sees a
    half-written pickle; a corrupted entry is deleted and recomputed.
    """

    def __init__(
        self, root: str | os.PathLike, version: str = CACHE_VERSION
    ) -> None:
        self.root = Path(root)
        self.version = version

    def path_for(self, task: CampaignTask) -> Path:
        """Where this task's result lives (whether or not it exists)."""
        key = task.key(self.version)
        return self.root / self.version / key[:2] / f"{key}.pkl"

    def load(self, task: CampaignTask) -> tuple[bool, Any]:
        """(hit, value) for ``task``; corruption reads as a miss."""
        path = self.path_for(task)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if (
                not isinstance(entry, dict)
                or entry.get("key") != task.key(self.version)
                or entry.get("runner") != task.runner_id
                or "value" not in entry
            ):
                raise ValueError("cache entry does not match its key")
        except FileNotFoundError:
            return False, None
        except Exception:
            # Corrupted / truncated / stale-format entry: drop it and
            # fall back to recomputing.
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        return True, entry["value"]

    def store(self, task: CampaignTask, value: Any) -> None:
        """Persist ``value`` for ``task`` atomically."""
        path = self.path_for(task)
        entry = {
            "key": task.key(self.version),
            "runner": task.runner_id,
            "value": value,
        }
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # Caching is an optimization; a full or read-only disk must
            # not fail the campaign.
            try:
                tmp.unlink()
            except OSError:
                pass


def _execute_task(task: CampaignTask) -> tuple[Any, float]:
    """Run one task, timing it (in-process or inside a pool worker).

    Exceptions come back as a :class:`TaskFailure` value rather than
    propagating: an arbitrary exception may not pickle back from a
    worker, and a raising chunk would be retried as if its worker were
    at fault.  The engine decides parent-side whether to raise.
    """
    start = time.perf_counter()
    try:
        value = task.fn(task.config)
    except Exception as exc:
        value = TaskFailure(
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
        )
    return value, time.perf_counter() - start


class _GridOutcomes(dict):
    """A grid fold's accumulator: task index -> ``(value | TaskFailure,
    seconds)``.  Indices never repeat across chunks, so merging is a
    dict union."""

    def merge(self, other: "_GridOutcomes") -> "_GridOutcomes":
        return _GridOutcomes({**self, **other})


def _run_grid_chunk(
    tasks: Sequence[CampaignTask], start: int, stop: int
) -> _GridOutcomes:
    """The scheduler runner for a campaign grid: execute tasks
    ``[start, stop)`` of the payload."""
    return _GridOutcomes(
        {i: _execute_task(tasks[i]) for i in range(start, stop)}
    )


class CampaignEngine:
    """Executes campaigns of tasks with fan-out, caching, and metrics.

    Parameters
    ----------
    workers:
        ``1`` runs tasks serially in-process (what profiling needs);
        ``N > 1`` runs each grid on a persistent
        :class:`~repro.experiments.scheduler.StealingScheduler` of N
        workers, spawned on first use.  A worker that dies mid-grid is
        respawned and its tasks re-run; results stay in task order
        either way.
    cache_dir:
        Root of the on-disk result cache; ``None`` disables caching.
    telemetry:
        Enable per-scenario metrics collection: every scenario config
        run through :meth:`run_scenarios` gets ``telemetry=True`` and
        its snapshot lands in :attr:`telemetry_records`.  Telemetry
        participates in the cache key, so metered and unmetered runs
        never share cache entries.
    trace:
        With ``telemetry``, also capture structured trace events.
    mode:
        Force a data-plane granularity (``"packet"`` / ``"fluid"``) on
        every scenario config run through :meth:`run_scenarios`;
        ``None`` keeps each config's own mode.  Mode is part of the
        config, hence of the cache key, so packet and fluid runs never
        share cache entries.
    fail_fast:
        ``True`` (default) raises the lowest-index failing task as a
        :class:`CampaignTaskError` naming the cell and its config hash.
        ``False`` records failures (``None`` in the results list,
        errors in :attr:`last_failures` and :attr:`all_failures`) and
        keeps the campaign running, so one exploding cell cannot sink
        an hours-long sweep.  Failures are never cached either way.  A
        task that kills its worker every time it runs raises in both
        modes once the scheduler's retry budget is spent.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | os.PathLike | None = None,
        telemetry: bool = False,
        trace: bool = False,
        mode: str | None = None,
        fail_fast: bool = True,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache: ResultCache | None = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self.telemetry = bool(telemetry)
        self.trace = bool(trace)
        self.mode = mode
        self.fail_fast = bool(fail_fast)
        #: Failures of the most recent :meth:`run_tasks` call (only
        #: populated with ``fail_fast=False``).
        self.last_failures: list[CampaignTaskError] = []
        #: Failures of every :meth:`run_tasks` call, in order.
        self.all_failures: list[CampaignTaskError] = []
        #: Metrics of the most recent :meth:`run_tasks` call.
        self.last_report = CampaignReport()
        #: Cumulative metrics across this engine's lifetime.
        self.totals = CampaignReport()
        #: Telemetry snapshots of every metered scenario this engine ran
        #: (cache hits included), in completion-batch order.
        self.telemetry_records: list[dict] = []
        # The worker pool lives as long as the engine (or until
        # close()): spawning costs tens of ms per worker, which warm
        # workers amortize to ~zero per run_tasks call.
        self._pool = None

    # -- public API ----------------------------------------------------

    def run_scenarios(
        self, configs: Iterable[ScenarioConfig]
    ) -> list[ScenarioResult]:
        """Run charging-cycle scenarios; results in config order."""
        configs = list(configs)
        if self.telemetry:
            configs = [
                replace(c, telemetry=True, trace=self.trace)
                for c in configs
            ]
        if self.mode is not None:
            configs = [replace(c, mode=self.mode) for c in configs]
        return self.run_tasks(scenario_tasks(configs))

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> list[Any]:
        """Run a campaign; returns results in task order.

        Cache hits are served without executing; misses run serially
        or on the worker pool and are written back to the cache.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        results: list[Any] = [None] * len(tasks)
        report = CampaignReport(total=len(tasks))
        self.last_failures = []

        pending: list[int] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                hit, value = self.cache.load(task)
                if hit:
                    report.cache_hits += 1
                    results[i] = value
                    continue
            pending.append(i)

        if self.workers <= 1 or not pending:
            # Lazy: under fail-fast a serial grid stops at its first
            # failure, which is also its lowest-index one.
            outcomes = (_execute_task(tasks[i]) for i in pending)
        else:
            outcomes = self._run_on_pool(tasks, pending)
        for i, (value, seconds) in zip(pending, outcomes):
            report.executed += 1
            report.compute_seconds += seconds
            if isinstance(value, TaskFailure):
                error = CampaignTaskError(
                    index=i,
                    runner=tasks[i].runner_id,
                    config_hash=tasks[i].key(),
                    failure=value,
                )
                if self.fail_fast:
                    raise error
                report.failed += 1
                self.last_failures.append(error)
                self.all_failures.append(error)
                continue
            if self.cache is not None:
                self.cache.store(tasks[i], value)
            results[i] = value

        report.wall_seconds = time.perf_counter() - start
        self.last_report = report
        self.totals.merge(report)
        self._collect_telemetry(tasks, results)
        return results

    def snapshot_totals(self) -> CampaignReport:
        """A copy of the cumulative counters (for delta reporting)."""
        return replace(self.totals)

    def _collect_telemetry(
        self, tasks: Sequence[CampaignTask], results: Sequence[Any]
    ) -> None:
        """Harvest per-scenario telemetry snapshots from landed results."""
        for task, result in zip(tasks, results):
            extras = getattr(result, "extras", None)
            if not isinstance(extras, dict) or "telemetry" not in extras:
                continue
            self.telemetry_records.append(
                {
                    "scenario": scenario_label(task.config),
                    "config": stable_form(task.config),
                    "telemetry": extras["telemetry"],
                }
            )

    # -- the worker pool -----------------------------------------------

    def _scheduler(self):
        """The persistent pool, spawned on first parallel use."""
        if self._pool is None:
            from repro.experiments.scheduler import StealingScheduler

            self._pool = StealingScheduler(workers=self.workers)
        return self._pool

    def _run_on_pool(
        self, tasks: Sequence[CampaignTask], pending: Sequence[int]
    ) -> list[tuple[Any, float]]:
        """Execute ``tasks[i]`` for each pending ``i`` on the pool, as
        one scheduler run with one chunk per task; outcomes in
        ``pending`` order."""
        grid = [tasks[i] for i in pending]
        try:
            outcomes, _report = self._scheduler().run(
                grid,
                [(j, j + 1) for j in range(len(grid))],
                _run_grid_chunk,
                workers=len(grid),
            )
        except CampaignTaskError as error:
            # A task that killed its worker past the retry budget: name
            # the task (and its cache key), not the scheduler chunk.
            i = pending[error.index]
            raise CampaignTaskError(
                index=i,
                runner=tasks[i].runner_id,
                config_hash=tasks[i].key(),
                failure=error.failure,
            ) from None
        return [outcomes[j] for j in range(len(grid))]

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        The engine stays usable — the next parallel batch simply starts
        a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def warm_up(self) -> None:
        """Start the worker pool and wait for every worker to answer.

        Timing-sensitive callers call this once so process spawn cost
        never lands inside a measured region.  Serial engines are a
        no-op.
        """
        if self.workers > 1:
            self._scheduler().warm_up()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- process-wide default engine ---------------------------------------
#
# Experiment drivers resolve their ``engine=None`` argument against this,
# so one CLI flag (or one conftest fixture) parallelizes every sweep
# without threading an engine through each call site.

_default_engine: CampaignEngine | None = None


def default_engine() -> CampaignEngine:
    """The process-wide engine (serial and uncached unless configured)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = CampaignEngine()
    return _default_engine


def set_default_engine(engine: CampaignEngine | None) -> None:
    """Install (or with ``None`` reset) the process-wide engine."""
    global _default_engine
    _default_engine = engine


def resolve_engine(engine: CampaignEngine | None) -> CampaignEngine:
    """``engine`` if given, else the process-wide default."""
    return engine if engine is not None else default_engine()


def run_scenarios(
    configs: Iterable[ScenarioConfig],
    engine: CampaignEngine | None = None,
) -> list[ScenarioResult]:
    """Run scenario configs through ``engine`` (default: process-wide)."""
    return resolve_engine(engine).run_scenarios(configs)
