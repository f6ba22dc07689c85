"""Population cells: one ScenarioConfig, many UEs, one exact merge.

One :class:`~repro.experiments.scenario.ScenarioConfig` with
``n_ues > 1`` models a cell-scale UE population behind a single
gateway/OFCS boundary.  This module defines how such a cell is
computed in pieces and merged *exactly*; the work-stealing pool in
:mod:`repro.experiments.scheduler` runs the pieces on worker processes:

- every UE ``u`` runs as its own sub-simulation whose root seed is
  ``derive_seed(config.seed, "ue", u)`` (the same SHA-256 substream
  derivation :class:`~repro.sim.rng.RngStreams` uses internally, so
  each UE's channel/congestion/workload streams — including the
  fluid-mode :class:`~repro.sim.sampling.ChunkedRandom` block draws —
  are independent of every other UE's);
- a contiguous UE range folds **streaming**: every UE publishes into
  one telemetry session owned by the fold, each finished UE's charging
  state is merged into the fold's accumulator, and the per-UE result
  is dropped, so fold memory stays bounded by one live scenario (use
  ``mode="fluid"`` to bound the live scenario's event count too) plus
  one session's series, whatever the population size;
- fold results (:class:`ShardResult`) merge through commutative
  monoids (:func:`repro.telemetry.merge.merge_snapshots`,
  :meth:`repro.telemetry.accounting.AccountingTable.merged`,
  :class:`repro.charging.merge.ChargingAggregate`), so the merged
  byte-accounting identity ``counted − Σ losses_by_layer == received``
  holds whenever the per-UE identities hold, and Algorithm 1
  settlement runs once, over the merged views.

**The merge-invariant contract** (locked down by
``tests/experiments/test_sharding.py`` and the ``shard-smoke`` CI
job): per-UE seeds depend only on ``(config.seed, ue index)``, never
on how the population is split, so for a fixed seed the merged result
— ground-truth pair, both parties' views, legacy charged volume,
metric snapshot, accounting table, and Algorithm 1 settlement — is
**byte-identical at every worker count and chunk size**, including the
in-process :func:`run_population` path that
:func:`~repro.experiments.scenario.run_scenario` delegates to.

Entry points::

    # fan a 100k-UE cell out over 8 worker processes
    result = run_stealing_scenario(
        ScenarioConfig(app="vridge", n_ues=100_000, mode="fluid",
                       telemetry=True),
        workers=8,
    )

    # CLI equivalent (the scaling-curve experiment):
    #   python -m repro run scale --ues 100000 --shards 8
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.charging.merge import ChargingAggregate
from repro import telemetry
from repro.experiments.scenario import (
    ChargingScheme,
    ScenarioConfig,
    ScenarioResult,
    _run_cycle,
    charge_with_scheme,
)
from repro.sim.events import EventLoop
from repro.sim.rng import derive_seed
from repro.telemetry.accounting import build_accounting
from repro.telemetry.merge import merge_snapshots


def max_rss_bytes() -> int:
    """This process's peak resident set size in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    import sys

    if sys.platform == "darwin":  # pragma: no cover
        return int(usage.ru_maxrss)
    return int(usage.ru_maxrss) * 1024


def per_ue_config(scenario: ScenarioConfig, index: int) -> ScenarioConfig:
    """UE ``index``'s sub-simulation config.

    The UE's root seed depends only on ``(scenario.seed, index)`` — not
    on the shard layout — which is the whole merge-invariant contract.
    A heterogeneous cell additionally applies the UE's population-group
    overrides (app/radio/load mix), which depend only on the index too,
    so the contract survives heterogeneity unchanged.  Live trace sinks
    are stripped: per-UE JSONL streams from many worker processes
    cannot interleave into one meaningful file (the in-memory metric
    snapshots are what merge).
    """
    return replace(
        scenario,
        seed=derive_seed(scenario.seed, "ue", index),
        n_ues=1,
        population=None,
        trace=False,
        trace_path=None,
        **scenario.ue_overrides(index),
    )


@dataclass
class ShardResult:
    """One shard's merged state — everything the parent needs, bounded.

    All numeric fields are monoidal sums over the shard's UEs (the
    same fold the parent then applies across shards), so a shard
    result's size is independent of how many UEs it covered.
    """

    ue_start: int
    ue_stop: int
    charging: ChargingAggregate
    duration: float
    #: Summed UE outage time in integer nanoseconds.  Quantizing once
    #: per UE makes the sum exact, so the merged total is independent
    #: of how UEs were grouped into chunks/workers — float-second sums
    #: would pick up ulp-level differences under the work-stealing
    #: scheduler's nondeterministic chunk-to-worker assignment.
    outage_ns: int = 0
    rlf_events: int = 0
    counter_checks: int = 0
    generated_bytes: int = 0
    processed_events: int = 0
    direction: str = "downlink"
    #: Merged per-UE metric snapshot (None when telemetry was off).
    metrics: dict | None = None
    #: Fold wall-clock and the fold process's CPU time (seconds), and
    #: worker peak RSS (bytes).
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_max_bytes: int = 0

    @property
    def outage_time(self) -> float:
        """Summed UE outage time in seconds."""
        return self.outage_ns / 1e9

    def merge(self, other: "ShardResult") -> "ShardResult":
        """Fold ``other`` into a combined result (associative)."""
        if self.direction != other.direction:
            raise ValueError(
                "cannot merge shards across directions: "
                f"{self.direction!r} vs {other.direction!r}"
            )
        metered = [m for m in (self.metrics, other.metrics) if m is not None]
        return ShardResult(
            ue_start=min(self.ue_start, other.ue_start),
            ue_stop=max(self.ue_stop, other.ue_stop),
            charging=self.charging.merge(other.charging),
            duration=max(self.duration, other.duration),
            outage_ns=self.outage_ns + other.outage_ns,
            rlf_events=self.rlf_events + other.rlf_events,
            counter_checks=self.counter_checks + other.counter_checks,
            generated_bytes=self.generated_bytes + other.generated_bytes,
            processed_events=(
                self.processed_events + other.processed_events
            ),
            direction=self.direction,
            metrics=merge_snapshots(metered) if metered else None,
            wall_s=self.wall_s + other.wall_s,
            cpu_s=self.cpu_s + other.cpu_s,
            rss_max_bytes=max(self.rss_max_bytes, other.rss_max_bytes),
        )


def _fold_ues(
    scenario: ScenarioConfig, ue_start: int, ue_stop: int
) -> ShardResult:
    """Run UEs ``[ue_start, ue_stop)`` serially, folding as they finish.

    The streaming fold is the memory bound: every UE publishes into one
    telemetry session owned by the fold (closed per UE by
    :meth:`~repro.telemetry.Telemetry.end_unit`), and its charging
    state is merged into plain accumulators and dropped, so peak memory
    is one live simulation plus one session's series regardless of the
    range size.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    charging = ChargingAggregate()
    session = telemetry.Telemetry() if scenario.telemetry else None
    outage_ns = 0
    rlf_events = 0
    counter_checks = 0
    generated_bytes = 0
    processed_events = 0
    with telemetry.activation(session):
        for index in range(ue_start, ue_stop):
            result = _run_cycle(per_ue_config(scenario, index), EventLoop())
            if session is not None:
                session.end_unit()
            charging = charging.merge(
                ChargingAggregate.of_views(
                    truth=result.truth,
                    edge_view=result.edge_view,
                    operator_view=result.operator_view,
                    legacy_charged=result.legacy_charged,
                    cdr_count=result.extras["cdrs"],
                    ue_count=1,
                )
            )
            outage_ns += round(result.outage_time * 1e9)
            rlf_events += result.rlf_events
            counter_checks += result.counter_checks
            generated_bytes += result.generated_bytes
            processed_events += result.extras["processed_events"]
    return ShardResult(
        ue_start=ue_start,
        ue_stop=ue_stop,
        charging=charging,
        duration=scenario.cycle_duration,
        outage_ns=outage_ns,
        rlf_events=rlf_events,
        counter_checks=counter_checks,
        generated_bytes=generated_bytes,
        processed_events=processed_events,
        direction=scenario.direction.value,
        metrics=session.registry.snapshot() if session else None,
        wall_s=time.perf_counter() - start,
        cpu_s=time.process_time() - cpu_start,
        rss_max_bytes=max_rss_bytes(),
    )


def _merged_scenario_result(
    config: ScenarioConfig,
    merged: ShardResult,
    per_shard: list[dict[str, Any]] | None = None,
    shards: int = 1,
    scheduler_info: dict[str, Any] | None = None,
) -> ScenarioResult:
    """Assemble the population-level :class:`ScenarioResult`."""
    extras: dict[str, Any] = {
        "cdrs": merged.charging.cdr_count,
        "processed_events": merged.processed_events,
        "sharding": {
            "shards": shards,
            "n_ues": config.n_ues,
            "rss_max_bytes": merged.rss_max_bytes,
            "compute_seconds": merged.cpu_s,
            "fold_wall_seconds": merged.wall_s,
            "per_shard": per_shard or [],
        },
    }
    if scheduler_info:
        extras["sharding"].update(scheduler_info)
    if merged.metrics is not None:
        extras["telemetry"] = {
            "direction": merged.direction,
            "metrics": merged.metrics,
            "accounting": build_accounting(
                merged.metrics, merged.direction
            ).as_dict(),
        }
    return ScenarioResult(
        config=config,
        truth=merged.charging.truth(),
        edge_view=merged.charging.edge_view(),
        operator_view=merged.charging.operator_view(),
        legacy_charged=merged.charging.legacy_charged,
        duration=merged.duration,
        outage_time=merged.outage_time,
        rlf_events=merged.rlf_events,
        counter_checks=merged.counter_checks,
        generated_bytes=merged.generated_bytes,
        extras=extras,
    )


def run_population(config: ScenarioConfig) -> ScenarioResult:
    """Run a population cell in-process (one fold over every UE).

    This is what :func:`repro.experiments.scenario.run_scenario`
    delegates to for ``n_ues > 1``, so a population config behaves
    like any other scenario inside a campaign worker.  By the
    merge-invariant contract its result is byte-identical to
    :func:`~repro.experiments.scheduler.run_stealing_scenario` at any
    worker count.
    """
    if config.trace or config.trace_path is not None:
        raise ValueError(
            "population runs merge metric snapshots, not trace streams; "
            "run with trace off (or trace a single-UE scenario)"
        )
    merged = _fold_ues(config, 0, config.n_ues)
    return _merged_scenario_result(config, merged)


# -- the scaling-curve experiment ---------------------------------------


@dataclass
class ScalingPoint:
    """One shard count's measurement of the same population cell."""

    shards: int
    n_ues: int
    wall_s: float
    events: int
    bytes: int
    rss_max_bytes: int
    reconciles: bool
    counted: float
    received: float
    total_losses: float
    settled: float
    legacy_charged: float
    #: Does this point's merged state equal the first point's?  (The
    #: shard-count-invariance check; always True for a correct build.)
    matches_first: bool = True
    #: Summed worker CPU seconds (Σ per-shard/per-chunk
    #: ``process_time``), the CPU cost the run would pay single-threaded.
    cpu_s: float = 0.0
    chunk_ues: int | None = None

    @property
    def events_per_sec(self) -> float:
        """Simulator event throughput at this shard count."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def bytes_per_sec(self) -> float:
        """Simulated app bytes per wall second at this shard count."""
        return self.bytes / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def per_ue_ms(self) -> float:
        """Wall-clock milliseconds per UE — what the operator waits.

        ``wall_s ÷ n_ues``, nothing normalized away: this is the number
        that must *fall* as shards go up for scaling to be real, and
        the quantity the million-UE headline extrapolates from.  (It
        used to report ``wall × shards ÷ n_ues``, i.e. summed per-core
        compute — a number that grows with shard count and hid the
        anti-scaling; that cost now lives in :attr:`cpu_per_ue_ms`.)
        """
        if self.n_ues <= 0:
            return 0.0
        return self.wall_s / self.n_ues * 1000.0

    @property
    def cpu_per_ue_ms(self) -> float:
        """Compute milliseconds per UE across all workers.

        ``cpu_s ÷ n_ues`` — how much total CPU one UE costs.  Flat
        across shard counts when fan-out overhead is low; the gap
        between this × shards and ``per_ue_ms`` × shards is the
        scheduler's overhead + idle time.
        """
        if self.n_ues <= 0:
            return 0.0
        return self.cpu_s / self.n_ues * 1000.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (what BENCH_perf.json records)."""
        return {
            "shards": self.shards,
            "n_ues": self.n_ues,
            "chunk_ues": self.chunk_ues,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "bytes": self.bytes,
            "bytes_per_sec": self.bytes_per_sec,
            "per_ue_ms": self.per_ue_ms,
            "cpu_per_ue_ms": self.cpu_per_ue_ms,
            "rss_max_bytes": self.rss_max_bytes,
            "reconciles": self.reconciles,
            "settled": self.settled,
            "matches_first": self.matches_first,
        }


def _scaling_state(result: ScenarioResult) -> tuple:
    """The merged quantities that must be shard-count invariant."""
    telemetry = result.extras.get("telemetry") or {}
    return (
        result.truth.sent,
        result.truth.received,
        result.edge_view.sent_estimate,
        result.edge_view.received_estimate,
        result.operator_view.sent_estimate,
        result.operator_view.received_estimate,
        result.legacy_charged,
        result.generated_bytes,
        result.extras.get("cdrs"),
        telemetry.get("metrics"),
        telemetry.get("accounting"),
    )


def scaling_curve(
    config: ScenarioConfig,
    shard_counts: Iterable[int],
    chunk_ues: int | None = None,
) -> list[ScalingPoint]:
    """Measure the same population cell at several worker counts.

    All points share one work-stealing pool sized to the widest count,
    spawned and warmed (process start + a ping round trip) *before*
    the first timed region — so the curve measures shard compute, not
    one-off pool setup, and stays monotone even at populations small
    enough that process spawning would otherwise dominate.  Each point
    times the whole run and records peak worker RSS plus the merged
    accounting identity.  Every point's merged charging state, metric
    snapshot, and Algorithm 1 settlement are compared byte-for-byte
    against the first point's (``matches_first``) — the worker-count
    invariance the ``shard-smoke`` CI job gates on.
    """
    from repro.experiments.scheduler import (
        StealingScheduler,
        run_stealing_scenario,
    )

    counts = list(shard_counts)
    points: list[ScalingPoint] = []
    if not counts:
        return points
    reference: tuple | None = None
    reference_settled: float | None = None
    with StealingScheduler(workers=max(counts)) as scheduler:
        scheduler.warm_up()
        for shards in counts:
            t0 = time.perf_counter()
            result = run_stealing_scenario(
                config, shards, chunk_ues=chunk_ues, scheduler=scheduler
            )
            wall = time.perf_counter() - t0
            settled = charge_with_scheme(
                result, ChargingScheme.TLC_OPTIMAL, seed=config.seed
            ).charged
            state = _scaling_state(result)
            if reference is None:
                reference = state
                reference_settled = settled
            telemetry = result.extras.get("telemetry")
            if telemetry is not None:
                reconciles = bool(telemetry["accounting"]["reconciles"])
                counted = telemetry["accounting"]["counted"]
                received = telemetry["accounting"]["received"]
                losses = telemetry["accounting"]["total_losses"]
            else:
                reconciles = False
                counted = received = losses = 0.0
            sharding = result.extras["sharding"]
            points.append(
                ScalingPoint(
                    shards=sharding["shards"],
                    n_ues=config.n_ues,
                    wall_s=wall,
                    events=int(
                        result.extras.get("processed_events", 0)
                    ),
                    bytes=result.generated_bytes,
                    rss_max_bytes=sharding["rss_max_bytes"],
                    reconciles=reconciles,
                    counted=counted,
                    received=received,
                    total_losses=losses,
                    settled=settled,
                    legacy_charged=result.legacy_charged,
                    matches_first=(
                        state == reference
                        and settled == reference_settled
                    ),
                    cpu_s=sharding["compute_seconds"],
                    chunk_ues=sharding["chunk_ues"],
                )
            )
    return points
