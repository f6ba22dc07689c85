"""The population fold's shared telemetry session.

A fold (:func:`repro.experiments.sharding._fold_ues`) runs its UEs
under **one** telemetry session instead of one per UE.  That is only a
speed change: the merged metric snapshot and accounting table must be
byte-identical to the oracle the per-UE path defines — each UE run on
its own through ``run_scenario(per_ue_config(...))`` and the snapshots
merged by :class:`~repro.telemetry.merge.SnapshotAccumulator` — for
every advancement mode and any chunk layout.  Gauges must still sum
across UEs, each UE's burst accumulators must flush exactly once, and
the session's flusher list must not grow with the number of UEs.
"""

from __future__ import annotations

import pickle

import pytest

from repro import telemetry
from repro.experiments import sharding
from repro.experiments.scenario import (
    PopulationGroup,
    ScenarioConfig,
    run_scenario,
)
from repro.experiments.sharding import (
    _fold_ues,
    _merged_scenario_result,
    per_ue_config,
    run_population,
)
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.accounting import build_accounting
from repro.telemetry.merge import SnapshotAccumulator, merge_snapshots


def hetero_cell(mode: str, n_ues: int) -> ScenarioConfig:
    """Congested VR next to weak-radio gaming, telemetry on."""
    heavy = n_ues // 2
    return ScenarioConfig(
        app="vridge",
        seed=29,
        cycle_duration=1.0 if mode == "packet" else 2.0,
        mode=mode,
        telemetry=True,
        population=(
            PopulationGroup(
                count=heavy, app="vridge", background_bps=120e6, weight=4.0
            ),
            PopulationGroup(count=n_ues - heavy, app="gaming", rss_dbm=-95.0),
        ),
    )


CELLS = [hetero_cell("packet", 3), hetero_cell("fluid", 4),
         hetero_cell("analytic", 6)]
IDS = [cell.mode for cell in CELLS]


def oracle_metrics(cell: ScenarioConfig) -> dict:
    """Per-UE sessions merged by the snapshot monoid."""
    acc = SnapshotAccumulator()
    for index in range(cell.n_ues):
        ue = run_scenario(per_ue_config(cell, index))
        acc.add(ue.extras["telemetry"]["metrics"])
    return acc.snapshot()


def chunk_layouts(n_ues: int) -> list[list[tuple[int, int]]]:
    """One chunk, and several uneven chunks."""
    cuts = sorted({0, 1, n_ues // 2 + 1, n_ues})
    return [[(0, n_ues)], list(zip(cuts, cuts[1:]))]


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_fold_equals_per_ue_oracle_at_any_chunking(cell):
    oracle = oracle_metrics(cell)
    oracle_accounting = build_accounting(
        oracle, cell.direction.value
    ).as_dict()
    assert oracle_accounting["reconciles"]
    for layout in chunk_layouts(cell.n_ues):
        parts = [_fold_ues(cell, start, stop) for start, stop in layout]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert pickle.dumps(merged.metrics) == pickle.dumps(oracle), layout
        record = _merged_scenario_result(cell, merged).extras["telemetry"]
        assert pickle.dumps(record["accounting"]) == pickle.dumps(
            oracle_accounting
        ), layout


def test_fold_without_telemetry_has_no_session():
    cell = ScenarioConfig(
        app="gaming", seed=3, cycle_duration=2.0, mode="analytic", n_ues=3
    )
    assert _fold_ues(cell, 0, 3).metrics is None
    assert "telemetry" not in run_population(cell).extras


def test_fold_sums_gauges_across_ues(monkeypatch):
    """A gauge is a per-UE reading; the fold reports the sum, exactly
    as merging per-UE snapshots does."""
    cell = CELLS[2]
    core = sharding._run_cycle

    def run_with_gauges(config, loop, hooks=None):
        result = core(config, loop, hooks)
        session = telemetry.current()
        session.set("ue_gauge", config.seed % 97 + 0.25, layer="test")
        session.bind_gauge("ue_delta", layer="test").add(1.5)
        if config.app == "gaming":
            session.set("gaming_only", 2, layer="test")
        return result

    monkeypatch.setattr(sharding, "_run_cycle", run_with_gauges)
    folded = _fold_ues(cell, 0, cell.n_ues).metrics
    expected = [0, 0.0, 0]
    for index in range(cell.n_ues):
        config = per_ue_config(cell, index)
        expected[0] += config.seed % 97 + 0.25
        expected[1] += 1.5
        if config.app == "gaming":
            expected[2] += 2
    gauges = {g["name"]: g["value"] for g in folded["gauges"]}
    assert gauges == {
        "ue_gauge": expected[0],
        "ue_delta": expected[1],
        "gaming_only": expected[2],
    }


def test_each_ue_flushes_once_and_flushers_stay_bounded(monkeypatch):
    cell = CELLS[1]
    calls: list[int] = []
    pending: list[int] = []
    registered = Telemetry.on_flush
    end_unit = Telemetry.end_unit

    def counting_on_flush(self, callback):
        slot = len(calls)
        calls.append(0)

        def counted():
            calls[slot] += 1
            callback()

        registered(self, counted)

    def recording_end_unit(self):
        pending.append(len(self._flushers))
        end_unit(self)
        assert self._flushers == []

    monkeypatch.setattr(Telemetry, "on_flush", counting_on_flush)
    monkeypatch.setattr(Telemetry, "end_unit", recording_end_unit)
    _fold_ues(cell, 0, cell.n_ues)
    assert len(pending) == cell.n_ues
    assert calls and all(count == 1 for count in calls)
    # Every UE registers its own accumulators and nothing carries over.
    assert sum(pending) == len(calls)
    assert max(pending) == min(pending) > 0


class TestSharedSession:
    def test_end_unit_matches_merged_per_unit_sessions(self):
        def unit(session: Telemetry, scale: int) -> None:
            session.inc("bytes_in", 100 * scale, layer="air")
            session.observe("sizes", 7 * scale, layer="air")
            session.set("depth", 0.5 * scale, layer="queue")
            session.bind_gauge("level", layer="queue").add(scale)
            acc = telemetry.RunAccumulator(
                session.bind_counter("bytes_out", layer="air")
            )
            acc.add(40 * scale)
            session.on_flush(acc.flush)

        shared = Telemetry()
        separate = []
        for scale in (1, 2, 3):
            unit(shared, scale)
            shared.end_unit()
            own = Telemetry()
            unit(own, scale)
            separate.append(own.snapshot()["metrics"])
        assert pickle.dumps(shared.registry.snapshot()) == pickle.dumps(
            merge_snapshots(separate)
        )

    def test_live_gauge_adds_to_retired_sum(self):
        reg = MetricsRegistry()
        reg.set("depth", 2.0, layer="q")
        reg.retire_gauges()
        assert reg.snapshot()["gauges"][0]["value"] == 2.0
        reg.set("depth", 3.0, layer="q")
        assert reg.snapshot()["gauges"][0]["value"] == 5.0

    def test_unretired_gauge_snapshots_as_written(self):
        reg = MetricsRegistry()
        reg.set("depth", -0.0, layer="q")
        assert repr(reg.snapshot()["gauges"][0]["value"]) == "-0.0"


class TestInternedBinds:
    def test_one_counter_handle_per_series_in_any_kwarg_order(self):
        reg = MetricsRegistry()
        first = reg.bind_counter("bytes", layer="air", direction="up")
        assert reg.bind_counter("bytes", direction="up", layer="air") is first
        assert reg.bind_counter("bytes", layer="air", direction="up") is first
        assert reg.bind_counter("bytes", layer="gw", direction="up") is not first

    def test_one_histogram_handle_per_series_in_any_kwarg_order(self):
        reg = MetricsRegistry()
        first = reg.bind_histogram("sizes", a=1, b=2)
        assert reg.bind_histogram("sizes", b=2, a=1) is first
        assert reg.bind_counter("sizes", a=1, b=2) is not first

    def test_session_binds_resolve_through_the_registry(self):
        session = Telemetry()
        handle = session.bind_counter("x", layer="gw", direction="up")
        assert session.registry.bind_counter(
            "x", direction="up", layer="gw"
        ) is handle
        handle.inc(3)
        session.bind_counter("x", direction="up", layer="gw").inc(4)
        assert session.registry.value("x", layer="gw", direction="up") == 7

    def test_interned_handle_still_materializes_on_first_write(self):
        reg = MetricsRegistry()
        reg.bind_counter("never", layer="gw")
        reg.bind_counter("never", layer="gw")
        assert reg.snapshot()["counters"] == []


def test_fold_cpu_time_comes_from_process_time(monkeypatch):
    """``compute_seconds`` is the fold's CPU time, not its wall time."""
    ticks = iter([100.0, 103.5])
    monkeypatch.setattr(
        sharding.time, "process_time", lambda: next(ticks)
    )
    cell = ScenarioConfig(
        app="gaming", seed=5, cycle_duration=2.0, mode="analytic", n_ues=2
    )
    shard = _fold_ues(cell, 0, 2)
    assert shard.cpu_s == 3.5
    assert 0 < shard.wall_s != shard.cpu_s
    result = _merged_scenario_result(cell, shard.merge(shard))
    assert result.extras["sharding"]["compute_seconds"] == 7.0
    assert result.extras["sharding"]["fold_wall_seconds"] == 2 * shard.wall_s
