"""Workloads ``population_fluid`` and ``population_analytic``.

Both run the same heterogeneous cell — a quarter congested VR sessions
at scheduler weight 4, three quarters cloud gaming on a weak radio,
telemetry on — through ``run_stealing_scenario`` on one warm
``StealingScheduler(nproc)``.  The fluid cell has fewer, heavier UEs
(the block data path); the analytic cell has ten times as many cheap
ones (per-UE build, CDR syncs, telemetry merges and dispatch), so the
fluid-versus-analytic comparison is same-cell by construction.
Each cell's times are scaled to the reference host speed
(``HostSpeed``); the metrics are medians over the cells of a run.
"""

from __future__ import annotations

import os
import tempfile
import time
import traceback
from pathlib import Path

from perfbench.common import (
    CpuSnapshot,
    HostSpeed,
    RunState,
    cpu_between,
    median,
    percentile,
    tree_peak_rss_mb,
)
from repro.experiments.scenario import (
    ChargingScheme,
    PopulationGroup,
    ScenarioConfig,
    charge_with_scheme,
    run_scenario,
)
from repro.experiments.scheduler import (
    StealingScheduler,
    run_chunk,
    run_stealing_scenario,
)

#: Cell seed at the benchmark's default workload seed (0).
BASE_SEED = 17
#: UEs per cell, per advancement mode.
CELL_UES = {"fluid": 200, "analytic": 2000}
#: Environment variable naming the file pool workers stamp each
#: chunk's landing time into (set before the pool is spawned).
LANDINGS_ENV = "PERFBENCH_LANDINGS"
#: Where that file lives: the checkout's build directory.
BUILD_DIR = Path(__file__).resolve().parent.parent / ".bench_build"


def cell_config(n_ues: int, mode: str, seed: int):
    """The heterogeneous cell: ¼ congested VR (weight 4), ¾ weak-radio
    gaming, 2 s cycles, telemetry on."""
    heavy = max(1, n_ues // 4)
    groups = [
        PopulationGroup(
            count=heavy, app="vridge", background_bps=120e6, weight=4.0
        )
    ]
    if n_ues > heavy:
        groups.append(
            PopulationGroup(count=n_ues - heavy, app="gaming", rss_dbm=-95.0)
        )
    return ScenarioConfig(
        app="vridge",
        seed=BASE_SEED + seed,
        cycle_duration=2.0,
        mode=mode,
        telemetry=True,
        n_ues=n_ues,
        population=tuple(groups),
    )


def merged_state(result) -> tuple:
    """What must be identical every time the same cell runs."""
    telemetry = result.extras.get("telemetry") or {}
    return (
        result.truth,
        result.edge_view,
        result.operator_view,
        result.legacy_charged,
        result.generated_bytes,
        result.extras.get("cdrs"),
        telemetry.get("metrics"),
        telemetry.get("accounting"),
    )


def settled_bytes(result) -> float:
    """Algorithm 1 settlement of the merged cell (TLC optimal)."""
    return charge_with_scheme(
        result, ChargingScheme.TLC_OPTIMAL, seed=result.config.seed
    ).charged


def timed_chunk(config, start: int, stop: int):
    """The scheduler's default chunk fold, stamping when the chunk
    landed on the system-wide monotonic clock (runs in pool workers)."""
    result = run_chunk(config, start, stop)
    path = os.environ.get(LANDINGS_ENV)
    if path:
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{time.monotonic()!r}\n")
    return result


class Population:
    """Set-up, timed window, output checks and traced pass."""

    def __init__(self, state: RunState, seed: int, nproc: int, mode: str,
                 n_ues: int | None = None) -> None:
        self.state = state
        self.seed = seed
        self.nproc = nproc
        self.mode = mode
        self.n_ues = n_ues or CELL_UES[mode]
        self.scheduler = None
        self.landings = None
        self.spawn_s = 0.0

    def setup(self, _profile=None) -> None:
        """Spawn and warm the pool.  Never profiled: a worker forked while
        the profiler is on keeps profiling for its whole life."""
        self.config = cell_config(self.n_ues, self.mode, self.seed)
        BUILD_DIR.mkdir(exist_ok=True)
        fd, self.landings = tempfile.mkstemp(
            prefix="landings-", dir=BUILD_DIR
        )
        os.close(fd)
        os.environ[LANDINGS_ENV] = self.landings
        start = time.perf_counter()
        self.scheduler = StealingScheduler(workers=self.nproc)
        self.scheduler.warm_up()
        self.spawn_s = time.perf_counter() - start

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None
        os.environ.pop(LANDINGS_ENV, None)
        if self.landings is not None:
            os.unlink(self.landings)
            self.landings = None

    def _run_cell(self):
        """One cell on the pool: (result, wall, parent cpu, worker cpu,
        each landed chunk's ms from the cell's start)."""
        self.state.attempted += 1
        open(self.landings, "w").close()
        before = CpuSnapshot.take()
        origin = time.monotonic()
        start = time.perf_counter()
        try:
            result = run_stealing_scenario(
                self.config, workers=self.nproc, scheduler=self.scheduler,
                runner=timed_chunk,
            )
        except Exception:  # noqa: BLE001 — counted as a failure
            self.state.fail(f"cell: {traceback.format_exc()}")
            return None, 0.0, 0.0, 0.0, []
        wall = time.perf_counter() - start
        parent, workers = cpu_between(before, CpuSnapshot.take())
        with open(self.landings, encoding="ascii") as fh:
            landed = [(float(line) - origin) * 1e3 for line in fh]
        return result, wall, parent, workers, landed

    def window(self, seconds: float) -> None:
        walls, cpus, latencies, raw_walls = [], [], [], []
        self.results = []
        with HostSpeed() as speed:
            start = time.perf_counter()
            while not walls or time.perf_counter() - start < seconds:
                begun = time.perf_counter()
                result, wall, parent, workers, landed = self._run_cell()
                scale = speed.scale(begun, time.perf_counter())
                if result is None:
                    if self.state.failed >= 3:
                        break
                    continue
                sharding = result.extras["sharding"]
                self.state.attempted += sharding["n_chunks"]
                self.state.failed += sharding["retries"]
                raw_walls.append(wall)
                walls.append(wall * scale)
                cpus.append((parent + workers) * scale)
                self.state.check(
                    len(landed) == sharding["n_chunks"],
                    f"{len(landed)} chunk landings for {sharding['n_chunks']} "
                    "chunks",
                )
                latencies.extend(ms * scale for ms in landed)
                self._keep(result)
        rss = tree_peak_rss_mb()
        if self.state.failed:
            return
        wall_s = median(walls)
        cpu_s = median(cpus)
        put = self.state.put
        put("wall_s", wall_s, "s")
        put("cpu_s", cpu_s, "s")
        put("ms_per_ue", wall_s * 1e3 / self.n_ues, "ms")
        put("cpu_ms_per_ue", cpu_s * 1e3 / self.n_ues, "ms")
        put("rss_peak_mb", rss, "MB")
        put("latency_ms", percentile(latencies, 50), "ms")
        put("throughput_per_hr", self.n_ues * 3600.0 / wall_s, "1/h")
        self.state.context.update(
            cells=len(walls), n_ues=self.n_ues, mode=self.mode,
            cell_seed=self.config.seed,
            latency_p95_ms=round(percentile(latencies, 95), 3),
            measured_wall_s=round(median(raw_walls), 4),
            cell_walls_s=[round(w, 4) for w in walls],
            measured_cell_walls_s=[round(w, 4) for w in raw_walls],
            **speed.context(),
        )

    def _keep(self, result) -> None:
        """Keep the first cell's result; of the others keep only what the
        checks need, so memory does not grow with the number of cells."""
        if not self.results:
            self.results = [result]
            self.reconciles = []
            self.same_as_first = []
        telemetry = result.extras.get("telemetry")
        self.reconciles.append(
            telemetry is not None
            and bool(telemetry["accounting"]["reconciles"])
        )
        self.same_as_first.append(
            merged_state(result) == merged_state(self.results[0])
        )

    def check(self) -> None:
        """Exact reconciliation and run-to-run identity."""
        self.state.check(
            all(self.reconciles),
            "merged population accounting does not reconcile",
        )
        self.state.check(
            all(self.same_as_first),
            "the same cell merged to different results within one run",
        )

    def outputs(self) -> dict:
        """What ``expected.json`` records: the cell's settled bytes."""
        return {"settled": settled_bytes(self.results[0])}

    # -- traced run ------------------------------------------------------

    def traced(self, profile, _seconds: float) -> dict[str, float]:
        """One pool cell (scheduler report, measured worker CPU), then a
        quarter-size cell of the same shape folded in-process, untraced
        and under the profiler."""
        result, wall, _parent, workers_cpu, _landed = self._run_cell()
        if result is None:
            return {}
        self.results = []
        self._keep(result)
        sharding = result.extras["sharding"]
        self.state.attempted += sharding["n_chunks"]
        self.state.failed += sharding["retries"]
        fold_s = sum(
            job["wall_s"] for job in sharding["jobs"]
            if job["status"] == "done"
        )
        small = cell_config(max(4, self.n_ues // 4), self.mode, self.seed)
        start = time.perf_counter()
        run_scenario(small)
        untraced = time.perf_counter() - start
        profile.call(lambda: run_scenario(small))
        return {
            "sim.events": int(result.extras.get("processed_events", 0)),
            "experiments.scheduler.chunks": sharding["n_chunks"],
            "experiments.scheduler.fold_s": fold_s,
            "experiments.scheduler.idle_frac": max(
                0.0, 1.0 - fold_s / (sharding["workers"] * wall)
            ),
            "experiments.scheduler.dispatch_bytes": sharding["dispatch_bytes"],
            "experiments.scheduler.retries": sharding["retries"],
            "experiments.scheduler.spawn_s": self.spawn_s,
            "experiments.scheduler.cpu_report_ratio": (
                sharding["compute_seconds"] / workers_cpu
                if workers_cpu > 0 else 0.0
            ),
            "untraced_wall_s": untraced,
        }
