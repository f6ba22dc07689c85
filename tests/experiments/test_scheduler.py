"""Work-stealing chunk scheduler: planner, protocol, and the contract.

Covers chunk-planner edge cases, LPT priority ordering, merge
invariance under adversarial chunk orders, byte-identical results at
1/4/8 workers on a heterogeneous population, worker-death and
runner-error retry paths (including the :class:`CampaignTaskError`
carrying the failing chunk's content-addressed config hash), and the
dispatch bytes of shipping the payload once per worker.

The failure-injection runners live at module level so they pickle by
reference into the per-run payload blob (workers resolve them by
``module.qualname``; under the fork start method the test module is
already imported in the child).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

import pytest

from repro.experiments.campaign import CACHE_VERSION, CampaignTaskError
from repro.experiments.confighash import config_key
from repro.experiments.scenario import (
    PopulationGroup,
    ScenarioConfig,
    ScenarioResult,
)
from repro.experiments.scheduler import (
    MAX_CHUNK_UES,
    ChunkSpec,
    StealingScheduler,
    _chunk_hash,
    default_chunk_ues,
    plan_chunks,
    run_chunk,
    run_stealing_scenario,
)
from repro.experiments.sharding import ShardResult, run_population

#: A small homogeneous cell (fast) and a skewed heterogeneous one: a
#: quarter of the UEs carry a congested background plus 4x scheduler
#: weight, the rest sit at the cell edge.
CELL = ScenarioConfig(
    app="webcam-udp", seed=11, cycle_duration=2.0, mode="packet",
    telemetry=True, n_ues=6,
)
HETERO = ScenarioConfig(
    app="vridge", seed=31, cycle_duration=2.0, mode="fluid",
    telemetry=True, n_ues=8,
    population=(
        PopulationGroup(count=2, background_bps=80e6, weight=4.0),
        PopulationGroup(count=6, rss_dbm=-95.0),
    ),
)


@pytest.fixture(scope="module")
def pool():
    """One warm two-worker pool shared by this module's plain runs."""
    with StealingScheduler(workers=2) as scheduler:
        scheduler.warm_up()
        yield scheduler


def cell_state(result: ScenarioResult) -> tuple:
    """Everything the merge-invariant contract pins down."""
    telemetry = result.extras.get("telemetry") or {}
    return (
        result.truth,
        result.edge_view,
        result.operator_view,
        result.legacy_charged,
        result.generated_bytes,
        result.outage_time,
        result.rlf_events,
        result.counter_checks,
        result.extras["cdrs"],
        result.extras["processed_events"],
        telemetry.get("metrics"),
        telemetry.get("accounting"),
    )


def unit_chunks(config: ScenarioConfig, chunk_ues: int) -> list:
    """The population's ``(start, stop)`` chunks in dispatch order."""
    return [(c.start, c.stop) for c in plan_chunks(config, chunk_ues)]


def shard_state(result: ShardResult) -> tuple:
    """A ShardResult's merge-relevant fields (timing excluded)."""
    return (
        result.ue_start,
        result.ue_stop,
        result.charging,
        result.outage_ns,
        result.rlf_events,
        result.counter_checks,
        result.generated_bytes,
        result.processed_events,
        result.direction,
        result.metrics,
    )


# -- failure-injection runners (module level: pickled by reference) -----


def _always_die(config, start, stop):
    """Kill the worker hard on every chunk (no atexit, no cleanup)."""
    os._exit(17)


def _die_once(config, start, stop):
    """Kill the first worker that runs any chunk, then behave."""
    try:
        fd = os.open(
            os.environ["SCHED_TEST_MARKER"],
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return run_chunk(config, start, stop)
    os.close(fd)
    os._exit(17)


def _always_raise(config, start, stop):
    raise ValueError(f"poisoned chunk [{start}, {stop})")


def _raise_once(config, start, stop):
    """Raise on the first chunk attempt, then behave."""
    try:
        fd = os.open(
            os.environ["SCHED_TEST_MARKER"],
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return run_chunk(config, start, stop)
    os.close(fd)
    raise ValueError("transient chunk failure")


# -- a generic payload (module level: pickled by reference) -------------


@dataclass(frozen=True)
class Tally:
    """A toy accumulator: which payload indices were folded, and the
    sum of their items."""

    indices: frozenset
    total: int

    def merge(self, other: "Tally") -> "Tally":
        return Tally(self.indices | other.indices, self.total + other.total)


def _tally(payload, start, stop):
    """A non-population runner: tally ``payload[start:stop]``."""
    return Tally(frozenset(range(start, stop)), sum(payload[start:stop]))


def _tally_flaky(payload, start, stop):
    """Tally ``payload = (items, marker, flaky_start)``, raising once on
    the chunk that starts at ``flaky_start`` (the marker file records
    the attempt, so it is seen by every worker)."""
    items, marker, flaky_start = payload
    if start == flaky_start:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            raise ValueError("transient chunk failure")
    return _tally(items, start, stop)


# -- chunk planner -------------------------------------------------------


def test_default_chunk_ues_targets_eight_chunks_per_worker():
    # ceil(1000 / (4 workers * 8)) = 32 UEs per chunk
    assert default_chunk_ues(1000, 4) == 32


def test_default_chunk_ues_clamps_to_bounds():
    assert default_chunk_ues(5, 8) == 1          # floor: never below 1
    assert default_chunk_ues(1_000_000, 4) == MAX_CHUNK_UES
    with pytest.raises(ValueError):
        default_chunk_ues(0, 4)
    with pytest.raises(ValueError):
        default_chunk_ues(100, 0)


def test_plan_chunks_oversized_chunk_degenerates_to_one():
    chunks = plan_chunks(CELL, chunk_ues=100)
    assert chunks == [
        ChunkSpec(start=0, stop=CELL.n_ues, weight=float(CELL.n_ues))
    ]


def test_plan_chunks_unit_chunks_cover_every_ue():
    chunks = plan_chunks(CELL, chunk_ues=1)
    assert len(chunks) == CELL.n_ues
    assert sorted((c.start, c.stop) for c in chunks) == [
        (i, i + 1) for i in range(CELL.n_ues)
    ]
    assert all(c.ue_count == 1 for c in chunks)


def test_plan_chunks_covers_population_with_short_tail():
    chunks = sorted(plan_chunks(CELL, chunk_ues=4), key=lambda c: c.start)
    assert [(c.start, c.stop) for c in chunks] == [(0, 4), (4, 6)]
    with pytest.raises(ValueError):
        plan_chunks(CELL, chunk_ues=0)


def test_plan_chunks_orders_heaviest_first():
    """LPT: the weighted group's chunks dispatch before the light ones."""
    chunks = plan_chunks(HETERO, chunk_ues=2)
    assert (chunks[0].start, chunks[0].stop) == (0, 2)
    assert chunks[0].weight == pytest.approx(8.0)   # 2 UEs x weight 4
    assert [c.weight for c in chunks] == sorted(
        (c.weight for c in chunks), reverse=True
    )
    # ties break on start index, ascending
    light = [c for c in chunks if c.weight == pytest.approx(2.0)]
    assert [c.start for c in light] == sorted(c.start for c in light)


# -- merge invariance under adversarial orders ---------------------------


def test_merge_is_order_invariant_over_chunk_folds():
    """Folding chunks in any steal order yields the same shard state."""
    reference = run_chunk(CELL, 0, CELL.n_ues)
    parts = [
        run_chunk(CELL, c.start, c.stop)
        for c in plan_chunks(CELL, chunk_ues=2)
    ]
    for trial in range(6):
        shuffled = parts[:]
        random.Random(trial).shuffle(shuffled)
        merged = shuffled[0]
        for part in shuffled[1:]:
            merged = merged.merge(part)
        assert shard_state(merged) == shard_state(reference), trial


# -- the contract over the live pool -------------------------------------


def test_hetero_population_identical_at_1_4_8_workers():
    """The satellite gate: byte-identical merges at 1, 4, 8 workers on
    a heterogeneous population, over one warm pool."""
    reference = cell_state(run_population(HETERO))
    with StealingScheduler(workers=8) as pool:
        pool.warm_up()
        for workers in (1, 4, 8):
            result = run_stealing_scenario(
                HETERO, workers=workers, chunk_ues=1, scheduler=pool
            )
            assert cell_state(result) == reference, workers
            assert result.extras["sharding"]["workers"] == workers


def test_stealing_run_is_deterministic_across_repeats(pool):
    first = run_stealing_scenario(CELL, 2, chunk_ues=2, scheduler=pool)
    second = run_stealing_scenario(CELL, 2, chunk_ues=2, scheduler=pool)
    assert cell_state(first) == cell_state(second)


def test_report_measures_dispatch_dedupe():
    """The config ships once per worker; per-chunk descriptors are a
    few dozen bytes — measurably below one full config per chunk."""
    with StealingScheduler(workers=2) as pool:
        merged, report = pool.run(CELL, unit_chunks(CELL, 1), run_chunk)
    assert shard_state(merged) == shard_state(
        run_chunk(CELL, 0, CELL.n_ues)
    )
    assert report.n_chunks == CELL.n_ues
    assert report.payload_bytes > 0
    assert report.dispatch_bytes < report.payload_bytes * report.n_chunks
    # 2 payload blobs + 6 tiny descriptors
    assert report.dispatch_bytes < report.payload_bytes * 2 + 6 * 100
    done = [j for j in report.jobs if j.status == "done"]
    assert len(done) == report.n_chunks
    assert all(j.wall_s > 0 for j in done)
    assert {j.worker.split(":")[0] for j in report.jobs} <= {"0", "1"}


# -- the generic run -----------------------------------------------------


def test_any_payload_and_merge_accumulator_run_on_the_pool(pool):
    items = [3 * i + 1 for i in range(20)]
    chunks = [(i, min(i + 3, 20)) for i in range(0, 20, 3)]
    merged, report = pool.run(items, chunks, _tally)
    assert merged == Tally(frozenset(range(20)), sum(items))
    assert report.n_chunks == len(chunks)
    assert sum(acc.total for _, acc in report.per_worker) == sum(items)


def test_chunks_dispatch_in_list_order(pool):
    chunks = [(5, 6), (0, 2), (9, 10), (2, 5), (6, 9)]
    _, report = pool.run(list(range(10)), chunks, _tally, workers=1)
    assert [(j.start, j.stop) for j in report.jobs] == chunks


def test_requeued_chunk_keeps_its_place(pool, tmp_path):
    """A chunk whose runner raised dispatches again before every chunk
    that was behind it in the list."""
    chunks = [(0, 2), (2, 4), (4, 6), (6, 8)]
    payload = (list(range(8)), str(tmp_path / "raised-once"), 4)
    merged, report = pool.run(payload, chunks, _tally_flaky, workers=1)
    assert merged == Tally(frozenset(range(8)), sum(range(8)))
    assert [(j.start, j.stop, j.status) for j in report.jobs] == [
        (0, 2, "done"),
        (2, 4, "done"),
        (4, 6, "error"),
        (4, 6, "done"),
        (6, 8, "done"),
    ]
    assert report.retries == 1


def test_an_idle_worker_drains_no_accumulator(pool):
    merged, report = pool.run([7, 8, 9], [(0, 3)], _tally, workers=2)
    assert merged == Tally(frozenset({0, 1, 2}), 24)
    assert report.workers == 2
    assert len(report.per_worker) == 1


def test_payload_ships_once_per_engaged_worker(pool):
    items = list(range(5000))
    chunks = [(i, i + 500) for i in range(0, 5000, 500)]
    for engaged in (1, 2):
        _, report = pool.run(items, chunks, _tally, workers=engaged)
        assert report.payload_bytes > len(items)
        descriptors = report.dispatch_bytes - engaged * report.payload_bytes
        assert 0 < descriptors < 100 * len(chunks), engaged


def test_run_rejects_fewer_than_one_engaged_worker(pool):
    with pytest.raises(ValueError, match="worker count"):
        pool.run(CELL, [(0, 1)], run_chunk, workers=0)


def test_chunk_hash_covers_runner_payload_and_range():
    base = _chunk_hash(run_chunk, CELL, 0, 3)
    assert base == config_key(
        "repro.experiments.scheduler.run_chunk", (CELL, 0, 3),
        CACHE_VERSION,
    )
    variants = {
        base,
        _chunk_hash(_always_raise, CELL, 0, 3),
        _chunk_hash(run_chunk, replace(CELL, seed=12), 0, 3),
        _chunk_hash(run_chunk, CELL, 0, 4),
    }
    assert len(variants) == 4


def test_chunk_hash_is_empty_without_a_stable_payload_form():
    # A campaign grid's payload holds runner functions.
    assert _chunk_hash(_tally, [run_chunk], 0, 1) == ""


def test_run_chunk_rejects_ranges_outside_the_population():
    for start, stop in [(2, 2), (3, 1), (-1, 2), (0, CELL.n_ues + 1)]:
        with pytest.raises(ValueError, match="UE range"):
            run_chunk(CELL, start, stop)


# -- failure paths -------------------------------------------------------


def test_worker_death_exhausts_retries_with_chunk_hash():
    """A chunk that kills every worker that touches it aborts the run
    with the chunk's content-addressed config hash."""
    with pytest.raises(CampaignTaskError) as excinfo:
        run_stealing_scenario(
            CELL, workers=2, chunk_ues=CELL.n_ues, runner=_always_die,
            max_retries=1,
        )
    err = excinfo.value
    assert err.config_hash == _chunk_hash(_always_die, CELL, 0, CELL.n_ues)
    assert err.failure.error_type == "WorkerDied"
    assert err.runner.endswith("_always_die")


def test_worker_death_mid_run_retries_and_merges(tmp_path, monkeypatch):
    """One worker dies mid-run; its chunks re-queue on a respawn and
    the merged cell is still byte-identical."""
    monkeypatch.setenv(
        "SCHED_TEST_MARKER", str(tmp_path / "died-once")
    )
    reference = cell_state(run_population(CELL))
    result = run_stealing_scenario(
        CELL, workers=2, chunk_ues=2, runner=_die_once
    )
    assert cell_state(result) == reference
    sharding = result.extras["sharding"]
    assert sharding["retries"] >= 1
    assert any(j["status"] == "lost" for j in sharding["jobs"])


def test_runner_error_exhausts_retries_as_campaign_task_error():
    with pytest.raises(CampaignTaskError) as excinfo:
        run_stealing_scenario(
            CELL, workers=2, chunk_ues=CELL.n_ues, runner=_always_raise,
            max_retries=0,
        )
    err = excinfo.value
    assert err.config_hash == _chunk_hash(
        _always_raise, CELL, 0, CELL.n_ues
    )
    assert err.failure.error_type == "ValueError"
    assert "poisoned chunk" in err.failure.message


def test_runner_error_retries_without_killing_the_worker(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(
        "SCHED_TEST_MARKER", str(tmp_path / "raised-once")
    )
    reference = cell_state(run_population(CELL))
    result = run_stealing_scenario(
        CELL, workers=2, chunk_ues=2, runner=_raise_once
    )
    assert cell_state(result) == reference
    sharding = result.extras["sharding"]
    assert sharding["retries"] >= 1
    assert any(j["status"] == "error" for j in sharding["jobs"])


def test_pool_survives_an_aborted_run():
    """After a CampaignTaskError the same pool still runs clean cells."""
    with StealingScheduler(workers=2, max_retries=0) as pool:
        with pytest.raises(CampaignTaskError):
            pool.run(CELL, [(0, CELL.n_ues)], _always_raise)
        merged, report = pool.run(CELL, unit_chunks(CELL, 3), run_chunk)
    assert shard_state(merged) == shard_state(
        run_chunk(CELL, 0, CELL.n_ues)
    )
    assert report.rounds == 1
    assert report.retries == 0


# -- pool lifecycle and validation ---------------------------------------


def test_scheduler_validates_construction():
    with pytest.raises(ValueError):
        StealingScheduler(workers=0)
    with pytest.raises(ValueError):
        StealingScheduler(workers=2, max_retries=-1)


def test_closed_scheduler_refuses_runs():
    pool = StealingScheduler(workers=1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.run(CELL, [(0, CELL.n_ues)], run_chunk)
    with pytest.raises(RuntimeError, match="closed"):
        pool.warm_up()


def test_engaging_more_workers_than_slots_clamps():
    with StealingScheduler(workers=2) as pool:
        merged, report = pool.run(
            CELL, unit_chunks(CELL, 2), run_chunk, workers=16
        )
    assert report.workers == 2
    assert shard_state(merged) == shard_state(
        run_chunk(CELL, 0, CELL.n_ues)
    )


def test_run_rejects_empty_or_repeated_chunks():
    with StealingScheduler(workers=1) as pool:
        with pytest.raises(ValueError, match="chunks"):
            pool.run(CELL, [], run_chunk)
        with pytest.raises(ValueError, match="chunks"):
            pool.run(CELL, [(0, 3), (0, 3)], run_chunk)


# -- heterogeneous-population config validation --------------------------


def test_population_counts_must_cover_n_ues():
    with pytest.raises(ValueError, match="population groups cover"):
        replace(HETERO, n_ues=9)


def test_population_groups_derive_n_ues_when_left_default():
    cell = ScenarioConfig(
        app="vridge", mode="fluid",
        population=(PopulationGroup(count=5), PopulationGroup(count=2)),
    )
    assert cell.n_ues == 7


def test_population_rejects_mixed_directions():
    with pytest.raises(ValueError, match="direction"):
        ScenarioConfig(
            app="vridge", mode="fluid",
            population=(
                PopulationGroup(count=1),
                PopulationGroup(count=1, app="webcam-udp"),
            ),
        )


def test_population_entries_coerce_from_mappings():
    cell = replace(
        HETERO,
        population=(
            {"count": 2, "background_bps": 80e6, "weight": 4.0},
            {"count": 6, "rss_dbm": -95.0},
        ),
    )
    assert cell.population == HETERO.population
    with pytest.raises(ValueError, match="population entries"):
        replace(HETERO, n_ues=1, population=("not-a-group",))


def test_ue_overrides_follow_group_boundaries():
    assert HETERO.ue_overrides(0) == {"background_bps": 80e6}
    assert HETERO.ue_overrides(2) == {"rss_dbm": -95.0}
    assert CELL.ue_overrides(3) == {}
    with pytest.raises(IndexError):
        HETERO.group_for(HETERO.n_ues)


def test_weight_between_sums_group_weights():
    assert HETERO.weight_between(0, 8) == pytest.approx(2 * 4.0 + 6.0)
    assert HETERO.weight_between(1, 3) == pytest.approx(4.0 + 1.0)
    assert CELL.weight_between(0, 6) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        HETERO.weight_between(3, 1)
