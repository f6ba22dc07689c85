"""Population cells: the merge-invariant contract.

The contract (:mod:`repro.experiments.sharding`): a population cell's
merged result — ground truth, both parties' views, legacy volume,
metric snapshot, accounting table, Algorithm 1 settlement — depends
only on ``(seed, n_ues)``, never on how the population is split into
chunks or spread over workers.  These tests pin that down on a
DualRunner-style grid (packet and fluid modes, uplink and downlink
apps, both negotiation schemes) over the work-stealing pool, plus the
plumbing around it (caching, failure attribution, trace rejection).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.campaign import CampaignEngine, CampaignTaskError
from repro.experiments.scenario import (
    ChargingScheme,
    ScenarioConfig,
    ScenarioResult,
    charge_with_scheme,
    run_scenario,
)
from repro.experiments.scheduler import (
    StealingScheduler,
    default_chunk_ues,
    plan_chunks,
    run_chunk,
    run_stealing_scenario,
)
from repro.experiments.sharding import (
    per_ue_config,
    run_population,
    scaling_curve,
)
from repro.sim.rng import derive_seed

#: Both modes and both traffic directions, telemetry on — the same
#: coverage axes the packet-vs-fluid equivalence suite sweeps.
GRID = [
    ScenarioConfig(
        app="webcam-udp", seed=11, cycle_duration=2.0, mode="packet",
        telemetry=True, n_ues=6,
    ),
    ScenarioConfig(
        app="vridge", seed=23, cycle_duration=2.0, mode="fluid",
        telemetry=True, n_ues=6,
    ),
]

SCHEMES = (ChargingScheme.TLC_OPTIMAL, ChargingScheme.TLC_HONEST)


@pytest.fixture(scope="module")
def pool():
    """One warm work-stealing pool shared by this module's runs."""
    with StealingScheduler(workers=4) as scheduler:
        scheduler.warm_up()
        yield scheduler


def _always_raise(config, start, stop):
    """A chunk runner that always fails (module level: picklable)."""
    raise ValueError(f"chunk [{start}, {stop}) exploded")


def _first_ue_only(config, start, stop):
    """A lossy runner: folds only the first UE of each chunk."""
    return run_chunk(config, start, start + 1)


def merged_state(result: ScenarioResult) -> tuple:
    """Everything the contract says must be shard-count invariant."""
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


# -- chunking -----------------------------------------------------------


def test_chunks_cover_population_contiguously():
    for n_ues, chunk_ues in [(10, 3), (7, 7), (100, 8), (5, 1)]:
        ranges = sorted(
            (c.start, c.stop)
            for c in plan_chunks(replace(GRID[0], n_ues=n_ues), chunk_ues)
        )
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_ues
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert all(stop - start == chunk_ues for start, stop in ranges[:-1])
        assert 1 <= ranges[-1][1] - ranges[-1][0] <= chunk_ues


# -- seeding ------------------------------------------------------------


def test_per_ue_seed_ignores_shard_layout():
    """UE seeds derive from (cell seed, UE index) alone."""
    scenario = GRID[0]
    config = per_ue_config(scenario, 4)
    assert config.seed == derive_seed(scenario.seed, "ue", 4)
    assert config.n_ues == 1
    assert per_ue_config(replace(scenario, n_ues=100), 4).seed == config.seed


def test_population_equals_fold_of_individual_ue_runs():
    scenario = GRID[0]
    population = run_scenario(scenario)  # delegates to run_population
    truth_sent = truth_received = legacy = 0.0
    for index in range(scenario.n_ues):
        ue = run_scenario(per_ue_config(scenario, index))
        truth_sent += ue.truth.sent
        truth_received += ue.truth.received
        legacy += ue.legacy_charged
    assert population.truth.sent == truth_sent
    assert population.truth.received == truth_received
    assert population.legacy_charged == legacy


# -- the merge-invariant contract ---------------------------------------


@pytest.mark.parametrize(
    "scenario", GRID, ids=[c.app + "-" + c.mode for c in GRID]
)
def test_merged_state_is_worker_and_chunk_invariant(scenario, pool):
    """Every (workers, chunk size) run merges to the in-process cell."""
    reference = run_population(scenario)
    assert reference.extras["telemetry"]["accounting"]["reconciles"]
    settlements = {
        scheme: charge_with_scheme(
            reference, scheme, seed=scenario.seed
        ).charged
        for scheme in SCHEMES
    }
    for workers, chunk_ues in [(1, 6), (2, 1), (2, 4), (4, 2)]:
        stolen = run_stealing_scenario(
            scenario, workers, chunk_ues=chunk_ues, scheduler=pool
        )
        layout = (workers, chunk_ues)
        assert merged_state(stolen) == merged_state(reference), layout
        for scheme in SCHEMES:
            settled = charge_with_scheme(
                stolen, scheme, seed=scenario.seed
            ).charged
            assert settled == settlements[scheme], (layout, scheme)


def test_population_run_is_deterministic():
    scenario = GRID[1]
    assert merged_state(run_population(scenario)) == merged_state(
        run_population(scenario)
    )


def test_chunk_fold_matches_population_slice():
    """A chunk is exactly the fold of its UE range."""
    scenario = GRID[0]
    whole = run_chunk(scenario, 0, scenario.n_ues)
    left = run_chunk(scenario, 0, 2)
    right = run_chunk(scenario, 2, scenario.n_ues)
    rejoined = left.merge(right)
    assert rejoined.charging == whole.charging
    assert rejoined.generated_bytes == whole.generated_bytes
    assert rejoined.processed_events == whole.processed_events
    assert rejoined.metrics == whole.metrics


# -- campaign plumbing --------------------------------------------------


def test_population_cells_ride_the_campaign_cache(tmp_path):
    scenario = GRID[0]
    engine = CampaignEngine(workers=1, cache_dir=tmp_path)
    [first] = engine.run_scenarios([scenario])
    assert engine.totals.executed == 1
    [second] = engine.run_scenarios([scenario])
    assert engine.totals.executed == 1  # a hit, no recompute
    assert engine.totals.cache_hits == 1
    assert merged_state(second) == merged_state(first)


def test_failing_chunk_raises_campaign_task_error(pool):
    with pytest.raises(CampaignTaskError, match="exploded"):
        run_stealing_scenario(
            GRID[0], 2, chunk_ues=3, scheduler=pool, runner=_always_raise
        )


def test_partial_population_is_never_merged(pool):
    with pytest.raises(RuntimeError, match="partial population"):
        run_stealing_scenario(
            GRID[0], 2, chunk_ues=3, scheduler=pool, runner=_first_ue_only
        )


def test_population_rejects_trace_sinks():
    traced = replace(GRID[0], trace=True)
    with pytest.raises(ValueError, match="trace"):
        run_scenario(traced)
    with pytest.raises(ValueError, match="trace"):
        run_stealing_scenario(traced, 2)


def test_population_rejects_fault_hooks():
    with pytest.raises(ValueError, match="fault hooks"):
        run_scenario(GRID[0], hooks=object())


def test_n_ues_validation():
    with pytest.raises(ValueError, match="n_ues"):
        ScenarioConfig(n_ues=0)
    with pytest.raises(ValueError, match="n_ues"):
        ScenarioConfig(n_ues=True)
    with pytest.raises(ValueError, match="n_ues"):
        ScenarioConfig(n_ues=2.0)


@pytest.mark.parametrize(
    "scenario", GRID, ids=[c.app + "-" + c.mode for c in GRID]
)
def test_stealing_report_lands_in_extras(scenario, pool):
    stolen = run_stealing_scenario(
        scenario, 2, chunk_ues=2, scheduler=pool
    )
    sharding = stolen.extras["sharding"]
    assert sharding["shards"] == sharding["workers"] == 2
    assert sharding["chunk_ues"] == 2
    assert sharding["n_chunks"] == 3
    done = [j for j in sharding["jobs"] if j["status"] == "done"]
    assert len(done) == 3
    # The scheduler ships the config once per worker, not per chunk.
    assert sharding["dispatch_bytes"] < (
        sharding["payload_bytes"] * sharding["n_chunks"]
    )


def test_default_chunk_size_follows_the_engaged_workers(pool):
    scenario = replace(GRID[1], n_ues=40)
    for workers in (1, 8):
        sharding = run_stealing_scenario(
            scenario, workers, scheduler=pool
        ).extras["sharding"]
        # Eight workers engage only the pool's four slots.
        engaged = min(workers, pool.workers)
        assert sharding["workers"] == engaged
        assert sharding["chunk_ues"] == default_chunk_ues(40, engaged)
        assert sharding["n_chunks"] == len(
            plan_chunks(scenario, sharding["chunk_ues"])
        )


# -- scaling curve ------------------------------------------------------


def test_scaling_curve_reports_invariant_points():
    scenario = replace(GRID[1], n_ues=5)
    points = scaling_curve(scenario, (1, 2), chunk_ues=1)
    assert [p.shards for p in points] == [1, 2]
    for point in points:
        assert point.matches_first
        assert point.reconciles
        assert point.events > 0
        assert point.settled == points[0].settled
        assert point.chunk_ues == 1
        assert point.cpu_s > 0
        d = point.as_dict()
        assert d["events_per_sec"] == pytest.approx(
            point.events / point.wall_s
        )


def test_scaling_curve_without_counts_measures_nothing():
    assert scaling_curve(GRID[0], []) == []


def test_per_ue_ms_is_wall_based_and_cpu_cost_is_separate():
    """The ISSUE 10 satellite: ``per_ue_ms`` used to report summed
    per-shard compute normalized by parallelism (``wall × shards``),
    which *grows* with shard count and hid the anti-scaling.  It is
    wall-clock per UE now; the summed compute cost lives in
    ``cpu_per_ue_ms``."""
    from repro.experiments.sharding import ScalingPoint

    point = ScalingPoint(
        shards=8, n_ues=1000, wall_s=2.0, events=1, bytes=1,
        rss_max_bytes=1, reconciles=True, counted=0.0, received=0.0,
        total_losses=0.0, settled=0.0, legacy_charged=0.0,
        cpu_s=12.0, chunk_ues=16,
    )
    assert point.per_ue_ms == pytest.approx(2.0)        # wall / n_ues
    assert point.cpu_per_ue_ms == pytest.approx(12.0)   # cpu / n_ues
    d = point.as_dict()
    assert d["per_ue_ms"] == point.per_ue_ms
    assert d["cpu_per_ue_ms"] == point.cpu_per_ue_ms
    assert d["cpu_s"] == 12.0
    assert d["chunk_ues"] == 16
