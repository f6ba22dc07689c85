"""Campaign engine: determinism, ordering, failures, and metrics.

The engine's contract is that fan-out and caching are *numerically
transparent*: any worker count and any cache state produce byte-identical
results in task order.  These tests pin that contract, including the
ISSUE acceptance criteria (``overall_dataset`` identical at workers=1
and workers=4; a warm-cache rerun performs zero scenario executions).
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.experiments.campaign import (
    CampaignEngine,
    CampaignTask,
    CampaignTaskError,
    TaskFailure,
    _GridOutcomes,
    _run_grid_chunk,
    default_engine,
    resolve_engine,
    run_scenarios,
    scenario_label,
    scenario_tasks,
    set_default_engine,
)
from repro.experiments.overall import overall_dataset
from repro.experiments.scenario import ScenarioConfig, run_scenario

def dumps_each(items) -> list[bytes]:
    """Per-item pickles for byte-identity checks.

    Items are compared one by one (not as a single list pickle) because
    pickle memoizes objects shared *across* results computed in-process
    — an identity-graph detail, not a value difference.
    """
    return [pickle.dumps(item) for item in items]


# Small but non-trivial grid: two apps, two radio conditions.
GRID = [
    ScenarioConfig(
        app=app, seed=seed, cycle_duration=4.0, rss_dbm=rss
    )
    for app in ("webcam-udp", "gaming")
    for rss in (-90.0, -100.0)
    for seed in (1,)
]


def doubler(value: int) -> int:
    """Module-level toy runner (picklable by reference)."""
    return 2 * value


def exploder(_config) -> None:
    """Module-level always-failing runner (picklable by reference)."""
    raise RuntimeError("worker cell died")


def sleepy_doubler(config: tuple[int, float]) -> int:
    """Doubles ``config[0]`` after sleeping ``config[1]`` seconds."""
    value, delay = config
    time.sleep(delay)
    return 2 * value


def sleepy_exploder(config: tuple[int, float]) -> None:
    """Fails after sleeping ``config[1]`` seconds."""
    value, delay = config
    time.sleep(delay)
    raise RuntimeError(f"cell {value} exploded")


def die_once(config: tuple[ScenarioConfig, str]):
    """Kill the worker on the first run (a marker file records it),
    then run the scenario like any other cell."""
    scenario, marker = config
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return run_scenario(scenario)
    os.close(fd)
    os._exit(17)


def always_die(_config) -> None:
    """Kill the worker hard every time (no atexit, no cleanup)."""
    os._exit(17)


@pytest.fixture(scope="module")
def pool_engine():
    """One two-worker engine (one warm pool) shared by this module."""
    with CampaignEngine(workers=2) as engine:
        engine.warm_up()
        yield engine


class TestDeterminism:
    def test_serial_runs_are_byte_identical(self):
        engine = CampaignEngine(workers=1)
        first = engine.run_scenarios(GRID)
        second = engine.run_scenarios(GRID)
        assert dumps_each(first) == dumps_each(second)

    def test_parallel_matches_serial_byte_for_byte(self, pool_engine):
        serial = CampaignEngine(workers=1).run_scenarios(GRID)
        parallel = pool_engine.run_scenarios(GRID)
        assert dumps_each(serial) == dumps_each(parallel)

    def test_overall_dataset_identical_across_worker_counts(self):
        # ISSUE acceptance criterion: the Figure 12 / Table 2 dataset is
        # identical through the engine with workers=1 and workers=4.
        kwargs = dict(
            apps=("webcam-udp", "gaming"),
            conditions=((0.0, 0.0), (160e6, 0.05)),
            seeds=(1,),
            cycle_duration=4.0,
        )
        one = overall_dataset(engine=CampaignEngine(workers=1), **kwargs)
        with CampaignEngine(workers=4) as engine:
            four = overall_dataset(engine=engine, **kwargs)
        assert dumps_each(one) == dumps_each(four)


class TestOrdering:
    def test_results_in_task_order_regardless_of_completion_order(
        self, pool_engine
    ):
        # Decreasing sleeps: the first-submitted tasks complete *last*.
        tasks = [
            CampaignTask(fn=sleepy_doubler, config=(i, 0.2 - 0.06 * i))
            for i in range(4)
        ]
        assert pool_engine.run_tasks(tasks) == [0, 2, 4, 6]

    def test_scenario_results_align_with_their_configs(self, pool_engine):
        results = pool_engine.run_scenarios(GRID)
        for config, result in zip(GRID, results):
            assert result.config == config


class TestMetrics:
    def test_report_counts_and_throughput(self):
        engine = CampaignEngine(workers=1)
        engine.run_tasks(
            [CampaignTask(fn=doubler, config=i) for i in range(3)]
        )
        report = engine.last_report
        assert report.total == 3
        assert report.executed == 3
        assert report.cache_hits == 0
        assert report.total == report.executed + report.cache_hits
        assert report.wall_seconds > 0
        assert report.tasks_per_second > 0

    def test_totals_accumulate_across_campaigns(self):
        engine = CampaignEngine(workers=1)
        engine.run_tasks([CampaignTask(fn=doubler, config=1)])
        engine.run_tasks([CampaignTask(fn=doubler, config=2)])
        assert engine.totals.total == 2
        snapshot = engine.snapshot_totals()
        engine.run_tasks([CampaignTask(fn=doubler, config=3)])
        # The snapshot is a copy, not a live view.
        assert snapshot.total == 2
        assert engine.totals.total == 3


    def test_pool_report_counts_every_executed_task(self, pool_engine):
        pool_engine.run_tasks(
            [CampaignTask(fn=doubler, config=i) for i in range(5)]
        )
        report = pool_engine.last_report
        assert report.total == report.executed == 5
        assert report.cache_hits == 0
        assert report.failed == 0
        assert report.compute_seconds > 0
        assert report.wall_seconds > 0

    def test_telemetry_records_come_back_from_the_pool(self):
        with CampaignEngine(workers=2, telemetry=True) as engine:
            results = engine.run_scenarios(GRID[:2])
        assert [r["scenario"] for r in engine.telemetry_records] == [
            scenario_label(c) for c in GRID[:2]
        ]
        for record, result in zip(engine.telemetry_records, results):
            assert record["telemetry"] == result.extras["telemetry"]


class TestCacheTransparency:
    def test_warm_cache_rerun_executes_nothing(self, tmp_path):
        # ISSUE acceptance criterion: a warm-cache rerun performs zero
        # scenario executions.
        cold = CampaignEngine(workers=1, cache_dir=tmp_path)
        first = cold.run_scenarios(GRID)
        assert cold.last_report.executed == len(GRID)

        warm = CampaignEngine(workers=1, cache_dir=tmp_path)
        second = warm.run_scenarios(GRID)
        assert warm.last_report.executed == 0
        assert warm.last_report.cache_hits == len(GRID)
        assert warm.totals.executed == 0
        assert dumps_each(first) == dumps_each(second)

    def test_cached_results_report_as_cache_hits(self, tmp_path):
        CampaignEngine(workers=1, cache_dir=tmp_path).run_scenarios(
            GRID[:2]
        )
        warm = CampaignEngine(workers=1, cache_dir=tmp_path)
        warm.run_scenarios(GRID[:2])
        assert warm.last_report.cache_hits == 2
        assert warm.last_report.executed == 0
        assert warm.last_report.compute_seconds == 0.0

    def test_partial_cache_executes_only_the_misses(self, tmp_path):
        CampaignEngine(workers=1, cache_dir=tmp_path).run_scenarios(
            GRID[:2]
        )
        engine = CampaignEngine(workers=1, cache_dir=tmp_path)
        engine.run_scenarios(GRID)
        assert engine.last_report.cache_hits == 2
        assert engine.last_report.executed == len(GRID) - 2


class TestDefaultEngine:
    def test_resolve_prefers_the_explicit_engine(self):
        explicit = CampaignEngine(workers=1)
        assert resolve_engine(explicit) is explicit

    def test_default_engine_is_installed_and_reset(self):
        engine = CampaignEngine(workers=1)
        set_default_engine(engine)
        try:
            assert resolve_engine(None) is engine
        finally:
            set_default_engine(None)
        assert resolve_engine(None) is not engine
        assert default_engine().workers == 1

    def test_module_level_run_scenarios_uses_the_default(self):
        engine = CampaignEngine(workers=1)
        set_default_engine(engine)
        try:
            results = run_scenarios(GRID[:1])
        finally:
            set_default_engine(None)
        assert engine.totals.total == 1
        assert results[0].config == GRID[0]


class TestFailureSemantics:
    def test_a_raising_task_fails_fast(self):
        def boom(_config):
            raise RuntimeError("scenario exploded")

        # Serial path: the exception propagates to the caller.
        with pytest.raises(RuntimeError, match="scenario exploded"):
            CampaignEngine(workers=1).run_tasks(
                [CampaignTask(fn=boom, config=None)]
            )

    def test_failure_surfaces_runner_and_config_hash(self):
        from repro.experiments.campaign import CampaignTaskError

        def boom(_config):
            raise RuntimeError("scenario exploded")

        task = CampaignTask(fn=boom, config={"seed": 9})
        with pytest.raises(CampaignTaskError) as excinfo:
            CampaignEngine(workers=1).run_tasks([task])
        error = excinfo.value
        assert error.config_hash == task.key()
        assert error.config_hash[:16] in str(error)
        assert "RuntimeError" in str(error)
        assert "scenario exploded" in str(error)

    def test_fail_fast_false_records_and_continues(self):
        def maybe_boom(value):
            if value == 2:
                raise ValueError("bad cell")
            return 2 * value

        engine = CampaignEngine(workers=1, fail_fast=False)
        results = engine.run_tasks(
            [
                CampaignTask(fn=maybe_boom, config=v)
                for v in (1, 2, 3)
            ]
        )
        assert results == [2, None, 6]
        assert len(engine.last_failures) == 1
        failure = engine.last_failures[0]
        assert failure.index == 1
        assert "ValueError" in str(failure)

    def test_failures_are_never_cached(self, tmp_path):
        calls = []

        def flaky_once(value):
            calls.append(value)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return 2 * value

        engine = CampaignEngine(
            workers=1, cache_dir=tmp_path, fail_fast=False
        )
        assert engine.run_tasks(
            [CampaignTask(fn=flaky_once, config=5)]
        ) == [None]
        # The failed attempt must not have been stored: a rerun executes
        # the task again and succeeds.
        assert engine.run_tasks(
            [CampaignTask(fn=flaky_once, config=5)]
        ) == [10]
        assert engine.last_failures == []

    def test_parallel_path_fails_fast_too(self, pool_engine):
        with pytest.raises(CampaignTaskError, match="worker cell died"):
            pool_engine.run_tasks(
                [CampaignTask(fn=exploder, config=i) for i in range(4)]
            )

    def test_fail_fast_raises_the_lowest_index_failure(self, pool_engine):
        # Cell 1 fails slowly, cell 4 at once: completion order must not
        # decide which failure the caller sees.
        tasks = [
            CampaignTask(fn=sleepy_doubler, config=(i, 0.0))
            for i in range(6)
        ]
        tasks[1] = CampaignTask(fn=sleepy_exploder, config=(1, 0.05))
        tasks[4] = CampaignTask(fn=sleepy_exploder, config=(4, 0.0))
        for _ in range(10):
            with pytest.raises(CampaignTaskError) as excinfo:
                pool_engine.run_tasks(tasks)
            assert excinfo.value.index == 1
            assert excinfo.value.config_hash == tasks[1].key()

    def test_failures_accumulate_across_grids(self):
        engine = CampaignEngine(workers=1, fail_fast=False)
        engine.run_tasks(
            [CampaignTask(fn=exploder, config=0),
             CampaignTask(fn=doubler, config=1)]
        )
        engine.run_tasks([CampaignTask(fn=doubler, config=2)])
        assert engine.last_failures == []
        assert [f.index for f in engine.all_failures] == [0]

    def test_parallel_failures_are_recorded_in_task_order(self):
        tasks = [
            CampaignTask(fn=sleepy_doubler, config=(i, 0.0))
            for i in range(6)
        ]
        tasks[1] = CampaignTask(fn=sleepy_exploder, config=(1, 0.05))
        tasks[4] = CampaignTask(fn=sleepy_exploder, config=(4, 0.0))
        with CampaignEngine(workers=2, fail_fast=False) as engine:
            results = engine.run_tasks(tasks)
        assert results == [0, None, 4, 6, None, 10]
        assert [f.index for f in engine.last_failures] == [1, 4]
        assert engine.last_report.failed == 2

    def test_worker_count_is_clamped_to_at_least_one(self):
        engine = CampaignEngine(workers=0)
        assert engine.workers == 1
        assert engine.run_tasks(
            [CampaignTask(fn=doubler, config=21)]
        ) == [42]

    def test_scenario_tasks_wrap_run_scenario(self):
        tasks = scenario_tasks(GRID[:2])
        assert [t.config for t in tasks] == GRID[:2]
        assert all(
            t.runner_id == "repro.experiments.scenario.run_scenario"
            for t in tasks
        )


class TestWorkerDeath:
    def test_worker_death_mid_grid_matches_the_serial_run(self, tmp_path):
        marker = str(tmp_path / "died-once")
        tasks = scenario_tasks(GRID)
        tasks[1] = CampaignTask(fn=die_once, config=(GRID[1], marker))
        with CampaignEngine(workers=2) as engine:
            parallel = engine.run_tasks(tasks)
        assert os.path.exists(marker)  # the worker really died
        # The marker now exists, so the serial run never dies.
        serial = CampaignEngine(workers=1).run_tasks(tasks)
        assert dumps_each(parallel) == dumps_each(serial)

    def test_a_cell_that_always_kills_its_worker_is_named(self):
        tasks = [CampaignTask(fn=doubler, config=i) for i in range(4)]
        tasks[2] = CampaignTask(fn=always_die, config=2)
        with CampaignEngine(workers=2, fail_fast=False) as engine:
            with pytest.raises(CampaignTaskError) as excinfo:
                engine.run_tasks(tasks)
            error = excinfo.value
            assert error.index == 2
            assert error.config_hash == tasks[2].key()
            assert error.failure.error_type == "WorkerDied"
            # The pool survives the aborted grid.
            engine.warm_up()
            assert engine.run_tasks(tasks[:2]) == [0, 2]


class TestGridRunner:
    def test_grid_chunk_runs_its_slice_of_the_payload(self):
        tasks = [CampaignTask(fn=doubler, config=i) for i in range(5)]
        outcomes = _run_grid_chunk(tasks, 1, 3)
        assert sorted(outcomes) == [1, 2]
        assert [outcomes[i][0] for i in (1, 2)] == [2, 4]
        assert all(seconds >= 0 for _, seconds in outcomes.values())

    def test_grid_chunk_returns_failures_as_values(self):
        outcomes = _run_grid_chunk(
            [CampaignTask(fn=exploder, config=0)], 0, 1
        )
        failure, _seconds = outcomes[0]
        assert isinstance(failure, TaskFailure)
        assert failure.error_type == "RuntimeError"
        assert "worker cell died" in failure.message
        pickle.loads(pickle.dumps(outcomes))  # ships back from a worker

    def test_grid_outcomes_merge_is_a_union(self):
        left = _GridOutcomes({0: ("a", 0.1), 2: ("c", 0.3)})
        right = _GridOutcomes({1: ("b", 0.2)})
        merged = left.merge(right)
        assert isinstance(merged, _GridOutcomes)
        assert merged == right.merge(left)
        assert merged == {0: ("a", 0.1), 1: ("b", 0.2), 2: ("c", 0.3)}


class TestPoolLifecycle:
    def test_serial_engine_never_spawns_a_pool(self):
        engine = CampaignEngine(workers=1)
        engine.warm_up()
        assert engine.run_tasks(
            [CampaignTask(fn=doubler, config=i) for i in range(3)]
        ) == [0, 2, 4]
        assert engine._pool is None

    def test_cache_hits_are_served_before_any_pool_spawns(self, tmp_path):
        tasks = [CampaignTask(fn=doubler, config=i) for i in range(3)]
        CampaignEngine(workers=1, cache_dir=tmp_path).run_tasks(tasks)
        with CampaignEngine(workers=2, cache_dir=tmp_path) as warm:
            assert warm.run_tasks(tasks) == [0, 2, 4]
            assert warm.last_report.cache_hits == 3
            assert warm._pool is None

    def test_a_small_grid_engages_only_the_workers_it_needs(self):
        with CampaignEngine(workers=4) as engine:
            assert engine.run_tasks(
                [CampaignTask(fn=doubler, config=21)]
            ) == [42]
            spawned = [slot is not None for slot in engine._pool._slots]
        assert spawned == [True, False, False, False]

    def test_warm_up_starts_every_worker(self):
        with CampaignEngine(workers=2) as engine:
            engine.warm_up()
            slots = engine._pool._slots
            assert all(slot.process.is_alive() for slot in slots)
        assert engine._pool is None
        assert not any(slot.process.is_alive() for slot in slots)

    def test_close_is_idempotent_and_the_engine_stays_usable(self):
        tasks = [CampaignTask(fn=doubler, config=i) for i in range(4)]
        engine = CampaignEngine(workers=2)
        first = engine.run_tasks(tasks)
        pool = engine._pool
        engine.close()
        engine.close()
        assert engine.run_tasks(tasks) == first == [0, 2, 4, 6]
        assert engine._pool is not pool  # a fresh pool, spawned lazily
        engine.close()
