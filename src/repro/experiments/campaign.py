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
- :class:`CampaignEngine` — executes an iterable of tasks through a
  pluggable executor (serial, or ``ProcessPoolExecutor`` with
  ``workers=N``), consults a content-addressed on-disk cache first, and
  returns results **in task order regardless of completion order**, so a
  parallel campaign is bit-for-bit identical to a serial one.
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
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class CampaignProgress:
    """One completed (or cache-served) task, reported as it lands."""

    index: int          # position in the submitted task list
    completed: int      # how many tasks have landed so far (1-based)
    total: int          # campaign size
    runner: str         # runner id of this task
    cached: bool        # served from the result cache?
    seconds: float      # task compute time (0.0 for cache hits)
    elapsed: float      # wall-clock seconds since the campaign started


ProgressCallback = Callable[[CampaignProgress], None]


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
    """Run one task, timing it.  Module-level so executors can pickle it.

    Exceptions come back as a :class:`TaskFailure` value rather than
    propagating: a raising worker would otherwise surface as an opaque
    ``BrokenProcessPool`` (or an unpicklable exception), losing which
    config exploded.  The engine decides parent-side whether to raise.
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


class CampaignEngine:
    """Executes campaigns of tasks with fan-out, caching, and metrics.

    Parameters
    ----------
    workers:
        ``1`` runs tasks serially in-process; ``N > 1`` fans out over a
        ``ProcessPoolExecutor`` (results stay in task order either way).
    cache_dir:
        Root of the on-disk result cache; ``None`` disables caching.
    cache_version:
        Cache namespace — bump it to invalidate previous results.
    progress:
        Optional callback invoked once per landed task with a
        :class:`CampaignProgress`.
    executor_factory:
        Override the parallel executor (e.g. a thread pool in tests).
        Called with the worker count; must return a ``concurrent.futures``
        executor.  Ignored when ``workers <= 1``.
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
        ``True`` (default) re-raises the first failing task as a
        :class:`CampaignTaskError` naming the cell and its config hash.
        ``False`` records failures (``None`` in the results list,
        errors in :attr:`last_failures`) and keeps the campaign
        running, so one exploding cell cannot sink an hours-long sweep.
        Failures are never cached either way.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | os.PathLike | None = None,
        cache_version: str = CACHE_VERSION,
        progress: ProgressCallback | None = None,
        executor_factory: Callable[[int], Executor] | None = None,
        telemetry: bool = False,
        trace: bool = False,
        mode: str | None = None,
        fail_fast: bool = True,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache: ResultCache | None = (
            ResultCache(cache_dir, cache_version)
            if cache_dir is not None
            else None
        )
        self.progress = progress
        self.executor_factory = executor_factory
        self.telemetry = bool(telemetry)
        self.trace = bool(trace)
        self.mode = mode
        self.fail_fast = bool(fail_fast)
        #: Failures of the most recent :meth:`run_tasks` call (only
        #: populated with ``fail_fast=False``).
        self.last_failures: list[CampaignTaskError] = []
        #: Metrics of the most recent :meth:`run_tasks` call.
        self.last_report = CampaignReport()
        #: Cumulative metrics across this engine's lifetime.
        self.totals = CampaignReport()
        #: Telemetry snapshots of every metered scenario this engine ran
        #: (cache hits included), in completion-batch order.
        self.telemetry_records: list[dict] = []
        # Lazily-created persistent worker pool: spawning a process pool
        # costs hundreds of ms per worker (interpreter + import), which
        # used to be paid on *every* run_tasks call and dominated small
        # populations.  The pool now lives as long as the engine (or
        # until close()); warm workers amortize to ~zero per call.
        self._pool: Executor | None = None

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

        Cache hits are served without executing; misses run through the
        configured executor and are written back to the cache.  A task
        that raises propagates the exception (fail fast) — partial
        results are not cached beyond the tasks that already finished.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        results: list[Any] = [None] * len(tasks)
        report = CampaignReport(total=len(tasks))
        completed = 0
        self.last_failures = []

        def settle(index: int, value: Any, seconds: float) -> Any:
            """Classify one executed outcome; raises under fail-fast."""
            if isinstance(value, TaskFailure):
                error = CampaignTaskError(
                    index=index,
                    runner=tasks[index].runner_id,
                    config_hash=tasks[index].key(),
                    failure=value,
                )
                if self.fail_fast:
                    raise error
                report.failed += 1
                self.last_failures.append(error)
                return None
            if self.cache is not None:
                self.cache.store(tasks[index], value)
            return value

        def land(
            index: int, value: Any, cached: bool, seconds: float
        ) -> None:
            nonlocal completed
            results[index] = value
            completed += 1
            if self.progress is not None:
                self.progress(
                    CampaignProgress(
                        index=index,
                        completed=completed,
                        total=len(tasks),
                        runner=tasks[index].runner_id,
                        cached=cached,
                        seconds=seconds,
                        elapsed=time.perf_counter() - start,
                    )
                )

        pending: list[int] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                hit, value = self.cache.load(task)
                if hit:
                    report.cache_hits += 1
                    land(i, value, cached=True, seconds=0.0)
                    continue
            pending.append(i)

        if pending and self.workers <= 1:
            for i in pending:
                value, seconds = _execute_task(tasks[i])
                report.executed += 1
                report.compute_seconds += seconds
                land(i, settle(i, value, seconds), cached=False, seconds=seconds)
        elif pending:
            pool = self._executor()
            try:
                futures = {
                    pool.submit(_execute_task, tasks[i]): i
                    for i in pending
                }
                for future in as_completed(futures):
                    i = futures[future]
                    value, seconds = future.result()
                    report.executed += 1
                    report.compute_seconds += seconds
                    land(
                        i,
                        settle(i, value, seconds),
                        cached=False,
                        seconds=seconds,
                    )
            except BrokenExecutor:
                # A dead pool poisons every later submit; drop it so the
                # next call starts fresh, then surface the failure.
                self.close()
                raise

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

    # -- internals -----------------------------------------------------

    def _executor(self) -> Executor:
        """The persistent pool, created on first parallel batch."""
        if self._pool is None:
            self._pool = self._make_executor()
        return self._pool

    def _make_executor(self) -> Executor:
        if self.executor_factory is not None:
            return self.executor_factory(self.workers)
        return ProcessPoolExecutor(max_workers=self.workers)

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        The engine stays usable — the next parallel batch simply starts
        a fresh pool.
        """
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def warm_up(self) -> None:
        """Start the worker pool and wait for every worker to answer.

        Timing-sensitive callers (the scaling curve) call this once so
        process spawn + interpreter import cost never lands inside a
        measured region.  Serial engines are a no-op.
        """
        if self.workers <= 1:
            return
        pool = self._executor()
        futures = [pool.submit(_noop) for _ in range(self.workers)]
        for future in futures:
            future.result()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _noop() -> None:
    """Module-level no-op task (picklable) used by warm-up."""


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
