"""Workload ``figures``: every paper table at its ``--fast`` grid shape.

Each experiment in ``repro.cli.EXPERIMENTS`` (except ``scale`` and
``service-load``, which the population and service workloads cover)
runs through one warm ``CampaignEngine(workers=nproc)`` installed as
the process-wide default engine: packet mode, telemetry off.  The timed
window cycles through the experiments in order, at least one full pass.
Each sample is scaled to the reference host speed (``HostSpeed``), and
each experiment's time is the median of its samples, so one slow sample
cannot move a table: a pass takes the sum of those medians, and the
latency a user waits for one table is their geometric mean, which
weighs every table alike where a median would rest on the one or two
tables in the middle.  Grid-cell seeds are offset by the workload
seed; the benchmark's default seed (0) leaves them as the CLI runs them.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from dataclasses import fields, is_dataclass, replace
from typing import Any

from perfbench.common import (
    CpuSnapshot,
    HostSpeed,
    RunState,
    cpu_between,
    median,
    percentile,
    tree_peak_rss_mb,
)
from repro.cli import EXPERIMENTS
from repro.experiments.campaign import CampaignEngine, set_default_engine
from repro.experiments.scenario import ScenarioConfig

#: Experiments the other workloads cover instead.
SKIPPED = ("scale", "service-load")
#: Output lines timed on the host, left out of the table digests.
HOST_TIMED = ("on this host",)


def experiment_names() -> list[str]:
    return [name for name in EXPERIMENTS if name not in SKIPPED]


def table_digest(text: str) -> str:
    """sha256 of an experiment's output without its host-timed lines."""
    kept = [
        line
        for line in text.splitlines()
        if not any(marker in line for marker in HOST_TIMED)
    ]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def _offset_seed(config: Any, offset: int) -> Any:
    if offset == 0 or not is_dataclass(config):
        return config
    if not any(f.name == "seed" for f in fields(config)):
        return config
    if not isinstance(config.seed, int):
        return config
    return replace(config, seed=config.seed + offset)


class BenchEngine(CampaignEngine):
    """A campaign engine that offsets grid seeds and records every cell:
    its failure, and (while ``keep_cells``) the scenario cells with their
    results."""

    def __init__(self, workers: int, seed_offset: int) -> None:
        super().__init__(workers=workers, fail_fast=False)
        self.seed_offset = seed_offset
        self.cells = 0
        self.failures: list[str] = []
        self.scenario_cells: list[tuple[Any, Any]] = []
        self.keep_cells = False

    def run_tasks(self, tasks):
        tasks = [
            replace(task, config=_offset_seed(task.config, self.seed_offset))
            for task in tasks
        ]
        results = super().run_tasks(tasks)
        self.cells += len(tasks)
        self.failures.extend(str(error) for error in self.last_failures)
        if self.keep_cells:
            self.scenario_cells.extend(
                (task.config, result)
                for task, result in zip(tasks, results)
                if isinstance(task.config, ScenarioConfig) and result is not None
            )
        return results


class Figures:
    """Set-up, timed window, output checks and traced pass."""

    def __init__(self, state: RunState, seed: int, nproc: int,
                 only: list[str] | None = None) -> None:
        self.state = state
        self.seed = seed
        self.nproc = nproc
        self.names = only or experiment_names()
        self.engine = None

    def setup(self, _profile=None) -> None:
        """Spawn and warm the pool.  Never profiled: a worker forked while
        the profiler is on keeps profiling for its whole life."""
        self.engine = BenchEngine(self.nproc, self.seed)
        self.engine.warm_up()
        set_default_engine(self.engine)

    def close(self) -> None:
        set_default_engine(None)
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def _run_one(self, name: str) -> str | None:
        _description, fn = EXPERIMENTS[name]
        self.state.attempted += 1
        try:
            return fn(True)
        except Exception:  # noqa: BLE001 — counted as a failure
            self.state.fail(f"{name}: {traceback.format_exc()}")
            return None

    def window(self, seconds: float) -> None:
        """Cycle the experiments for ``seconds`` (at least one pass)."""
        engine = self.engine
        walls: dict[str, list[float]] = {name: [] for name in self.names}
        cpus: dict[str, list[float]] = {name: [] for name in self.names}
        digests: dict[str, set[str]] = {name: set() for name in self.names}
        raw_walls: dict[str, list[float]] = {name: [] for name in self.names}
        cells_per_pass = 0
        with HostSpeed() as speed:
            start = time.perf_counter()
            done = 0
            while done < len(self.names) or time.perf_counter() - start < seconds:
                name = self.names[done % len(self.names)]
                engine.keep_cells = done < len(self.names)
                cells_before = engine.cells
                before = CpuSnapshot.take()
                t0 = time.perf_counter()
                text = self._run_one(name)
                wall = time.perf_counter() - t0
                parent, workers = cpu_between(before, CpuSnapshot.take())
                scale = speed.scale(t0, t0 + wall)
                if done < len(self.names):
                    cells_per_pass += engine.cells - cells_before
                done += 1
                if text is None:
                    continue
                raw_walls[name].append(wall)
                walls[name].append(wall * scale)
                cpus[name].append((parent + workers) * scale)
                digests[name].add(table_digest(text))
        rss = tree_peak_rss_mb()
        engine.keep_cells = False
        self.state.attempted += engine.cells
        for failure in engine.failures:
            self.state.fail(failure)
        if self.state.failed:
            return
        tables_ms = [median(v) * 1e3 for v in walls.values()]
        wall_s = sum(tables_ms) / 1e3
        cpu_s = sum(median(v) for v in cpus.values())
        put = self.state.put
        put("wall_s", wall_s, "s")
        put("cpu_s", cpu_s, "s")
        put("ms_per_ue", wall_s * 1e3 / cells_per_pass, "ms")
        put("cpu_ms_per_ue", cpu_s * 1e3 / cells_per_pass, "ms")
        put("rss_peak_mb", rss, "MB")
        put("latency_ms", statistics.geometric_mean(tables_ms), "ms")
        put("throughput_per_hr", cells_per_pass * 3600.0 / wall_s, "1/h")
        self.state.context.update(
            passes=round(done / len(self.names), 2),
            cells_per_pass=cells_per_pass,
            experiments=len(self.names),
            latency_p50_ms=round(median(tables_ms), 3),
            latency_p95_ms=round(percentile(tables_ms, 95), 3),
            tables_ms={
                name: [round(v * 1e3, 2) for v in samples]
                for name, samples in walls.items()
            },
            measured_wall_s=round(
                sum(median(v) for v in raw_walls.values()), 4
            ),
            **speed.context(),
        )
        self.digests = digests

    def check(self) -> None:
        """Outputs: stable digests, and every grid cell reconciles."""
        for name, seen in self.digests.items():
            self.state.check(
                len(seen) == 1, f"{name}: tables differ between passes of one run"
            )
        self._check_reconciles()

    def outputs(self) -> dict:
        """What ``expected.json`` records: each table's digest."""
        return {name: min(seen) for name, seen in self.digests.items()}

    def _check_reconciles(self) -> None:
        """Re-run one pass's scenario cells metered; accounting closes.

        Telemetry is observational, so the metered rerun must also
        reproduce every cell's unmetered charging state exactly.
        """
        engine = self.engine
        cells = engine.scenario_cells
        self.state.check(bool(cells), "no scenario-grid cells ran")
        engine.seed_offset = 0
        engine.telemetry = True
        first_record = len(engine.telemetry_records)
        try:
            metered = engine.run_scenarios([config for config, _ in cells])
        finally:
            engine.telemetry = False
            engine.seed_offset = self.seed
        records = engine.telemetry_records[first_record:]
        self.state.check(
            len(records) == len(cells),
            f"{len(cells) - len(records)} metered cells produced no telemetry",
        )
        for record in records:
            accounting = record["telemetry"]["accounting"]
            self.state.check(
                bool(accounting["reconciles"]),
                f"accounting does not reconcile: {record['scenario']}",
            )
        for (config, plain), again in zip(cells, metered):
            self.state.check(
                again is not None
                and (plain.truth, plain.edge_view, plain.operator_view,
                     plain.legacy_charged)
                == (again.truth, again.edge_view, again.operator_view,
                    again.legacy_charged),
                f"metered rerun changed the charging state of "
                f"{config.app} seed={config.seed}",
            )

    # -- traced run ------------------------------------------------------

    def _one_pass(self) -> float:
        """One pass over every experiment; its tables' digests are kept
        for the output checks."""
        start = time.perf_counter()
        for name in self.names:
            text = self._run_one(name)
            if text is not None:
                self.digests[name].add(table_digest(text))
        return time.perf_counter() - start

    def traced(self, profile, _seconds: float) -> dict[str, float]:
        """Pool pass (campaign report), then one in-process pass untraced
        and one under the profiler.  All three must print the same
        tables; the pool pass's cells are kept for the output checks."""
        engine = self.engine
        self.digests = {name: set() for name in self.names}
        engine.keep_cells = True
        before = engine.snapshot_totals()
        wall = self._one_pass()
        after = engine.snapshot_totals()
        tasks = after.total - before.total
        compute = after.compute_seconds - before.compute_seconds
        events = sum(
            int(result.extras.get("processed_events", 0))
            for _config, result in engine.scenario_cells
        )
        engine.keep_cells = False
        serial = BenchEngine(1, self.seed)
        set_default_engine(serial)
        try:
            untraced = self._one_pass()
            profile.call(self._one_pass)
        finally:
            set_default_engine(engine)
        for failure in engine.failures + serial.failures:
            self.state.fail(failure)
        self.state.attempted += engine.cells + serial.cells
        return {
            "sim.events": events,
            "experiments.campaign.tasks": tasks,
            "experiments.campaign.compute_s": compute,
            "experiments.campaign.idle_frac": max(
                0.0, 1.0 - compute / (self.nproc * wall)
            ),
            "untraced_wall_s": untraced,
        }
