"""Representative hot-path workloads for the perf-regression harness.

Each workload is a module-level zero-argument function returning a
``WorkloadSample``: how long one execution took and how many simulator
"events" it pushed through (event-loop callbacks for scenario workloads,
protocol messages + signature checks for the negotiation workload).

The harness (:mod:`benchmarks.perf.test_perf`) warms each workload up
once, times several repetitions, keeps the median, and writes
``BENCH_perf.json`` at the repository root.  The committed baseline
lives in ``benchmarks/perf/baseline.json``; the comparison gate is
:mod:`benchmarks.perf.compare`.

Workload selection mirrors the paper's evaluation surface:

- ``congestion`` — Figure 3/13 territory: a loaded bottleneck, every
  packet paying the queue + channel + gateway path.
- ``fluid_congestion`` / ``fluid_intermittent`` — the same territory
  under ``mode="fluid"`` block advancement on the downlink VR
  archetype; the harness holds ``fluid_congestion`` at or above 5x the
  ``congestion`` bytes-per-wall-second.
- ``analytic_congestion`` — the same loaded VR cycle under
  ``mode="analytic"`` closed-form interval advancement: one aggregate
  update per stable interval instead of one event chain per frame.
  The harness holds it at or above 20x the ``congestion``
  bytes-per-wall-second
  (:data:`benchmarks.perf.test_perf.ANALYTIC_SPEEDUP_BOUND`).
- ``intermittent`` — Figure 4/14 territory: Gilbert–Elliott outages,
  buffer flushes, RLF detach/reattach.
- ``negotiation`` — Figure 16/17 territory: RSA-signed CDR/CDA/PoC
  exchanges plus Algorithm 2 verification.
- ``telemetry_on`` / ``telemetry_off`` — the metered vs. unmetered
  fast path of the same scenario; ``telemetry_on_traced`` adds a live
  buffered JSONL trace sink on top.  The harness holds the metered
  variants within 1.5x of ``telemetry_off``
  (:data:`benchmarks.perf.test_perf.TELEMETRY_OVERHEAD_BOUND`).
- ``service_throughput`` — the service tier (ISSUE 9): the async
  charging service multiplexing concurrent sessions, counting attested
  Merkle-batch claim leaves; the harness holds it at or above one
  million claims/hr
  (:data:`benchmarks.perf.test_perf.SERVICE_CLAIMS_PER_HOUR_BOUND`).
- ``million_ue`` — the population-cell class: many short metered UE
  cycles folded through the streaming shard merge
  (:mod:`repro.experiments.sharding`).  The timed unit is a small cell
  (``MILLION_UE_UES`` env, default 64 UEs) so the regression gate stays
  fast; the harness's separate **scaling** section
  (:func:`benchmarks.perf.harness.run_scaling`) runs the same class at
  campaign scale across shard counts and records events/s and peak
  shard RSS per count.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from repro.core.protocol import run_negotiation
from repro.core.verifier import PublicVerifier
from repro.experiments.poc_cost import _build_agents
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.crypto import keypair_for_seed

#: Seeds are fixed so every run times the identical instruction stream.
_SEED = 17


@dataclass(frozen=True)
class WorkloadSample:
    """One timed execution: simulator work units for the rate metrics.

    ``events`` feeds events/sec (the regression gate's rate); ``bytes``
    feeds bytes/sec, the mode-independent throughput measure — a fluid
    run pushes the same simulated bytes through ~10x fewer events, so
    events/sec would undercount its speedup.
    """

    events: int
    bytes: int = 0


def _scenario_events(config: ScenarioConfig) -> WorkloadSample:
    result = run_scenario(config)
    return WorkloadSample(
        events=result.extras["processed_events"],
        bytes=result.generated_bytes,
    )


def congestion() -> WorkloadSample:
    """A loaded uplink cycle: the Figure 3 hot path."""
    return _scenario_events(
        ScenarioConfig(
            app="webcam-udp",
            seed=_SEED,
            cycle_duration=30.0,
            background_bps=120e6,
        )
    )


def intermittent() -> WorkloadSample:
    """Gilbert–Elliott outages with buffer flushes and RLF events."""
    return _scenario_events(
        ScenarioConfig(
            app="webcam-udp",
            seed=_SEED,
            cycle_duration=30.0,
            disconnectivity_ratio=0.2,
        )
    )


def fluid_congestion() -> WorkloadSample:
    """The congested downlink VR cycle under fluid advancement.

    Same Figure 3 bottleneck territory as ``congestion``, on the
    archetype the block fast path exists for: ~20-packet VR frames that
    collapse into one block per hop (webcam frames are 1–2 packets —
    nothing to batch).  Compared against ``congestion`` on
    bytes-per-wall-second (:data:`benchmarks.perf.test_perf.FLUID_SPEEDUP_BOUND`).
    """
    return _scenario_events(
        ScenarioConfig(
            app="vridge",
            seed=_SEED,
            cycle_duration=30.0,
            background_bps=120e6,
            mode="fluid",
        )
    )


def analytic_congestion() -> WorkloadSample:
    """The congested downlink VR cycle under analytic advancement.

    The same scenario as ``fluid_congestion``, advanced by
    :class:`repro.lte.analytic.AnalyticDriver`: stable intervals settle
    in one closed-form step per layer, so the event loop carries only
    structural events (outage edges, CDR flushes, observation points).
    Compared against ``congestion`` on bytes-per-wall-second.
    """
    return _scenario_events(
        ScenarioConfig(
            app="vridge",
            seed=_SEED,
            cycle_duration=30.0,
            background_bps=120e6,
            mode="analytic",
        )
    )


def fluid_intermittent() -> WorkloadSample:
    """Gilbert–Elliott outages under fluid advancement: the block
    buffer/flush path (whole frames parked during outages) plus RLF
    detach/reattach at block granularity."""
    return _scenario_events(
        ScenarioConfig(
            app="vridge",
            seed=_SEED,
            cycle_duration=30.0,
            disconnectivity_ratio=0.2,
            mode="fluid",
        )
    )


def telemetry_off() -> WorkloadSample:
    """Downlink VR cycle with the telemetry fast path (no sink)."""
    return _scenario_events(
        ScenarioConfig(app="vridge", seed=_SEED, cycle_duration=20.0)
    )


def telemetry_on() -> WorkloadSample:
    """The same VR cycle with per-layer metrics collection enabled."""
    return _scenario_events(
        ScenarioConfig(
            app="vridge", seed=_SEED, cycle_duration=20.0, telemetry=True
        )
    )


def telemetry_on_traced() -> WorkloadSample:
    """The metered VR cycle streaming events to a live JSONL sink."""
    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="tlc-perf-trace-")
    os.close(fd)
    try:
        return _scenario_events(
            ScenarioConfig(
                app="vridge",
                seed=_SEED,
                cycle_duration=20.0,
                telemetry=True,
                trace_path=path,
            )
        )
    finally:
        os.unlink(path)


#: The population-cell scenario every ``million_ue`` measurement uses:
#: short metered webcam cycles under fluid advancement — the per-UE
#: shape a campaign-scale cell is made of.
def million_ue_config(n_ues: int) -> ScenarioConfig:
    return ScenarioConfig(
        app="webcam-udp",
        seed=_SEED,
        cycle_duration=2.0,
        mode="fluid",
        telemetry=True,
        n_ues=n_ues,
    )


def million_ue_hetero_config(n_ues: int) -> ScenarioConfig:
    """A **skewed heterogeneous** population cell: the load shape the
    work-stealing scheduler exists for.

    One quarter of the UEs are congested downlink VR sessions (heavy:
    a loaded bottleneck on ~20-packet frames, several times the
    compute of a clean cycle, ``weight=4``); the rest are cloud-gaming
    sessions on a weak radio (light).  Both apps are downlink, so the
    merged cell keeps a single charging direction.  One contiguous
    range per worker would put whole heavy stretches on single
    workers and stall on them; chunked stealing balances the same
    cell.  The merged result is still byte-identical at every worker
    count and chunk size.
    """
    from repro.experiments.scenario import PopulationGroup

    heavy = max(1, n_ues // 4)
    groups = [
        PopulationGroup(
            count=heavy, app="vridge", background_bps=120e6, weight=4.0
        )
    ]
    if n_ues > heavy:
        groups.append(
            PopulationGroup(
                count=n_ues - heavy, app="gaming", rss_dbm=-95.0
            )
        )
    return ScenarioConfig(
        app="vridge",
        seed=_SEED,
        cycle_duration=2.0,
        mode="fluid",
        telemetry=True,
        n_ues=n_ues,
        population=tuple(groups),
    )


def million_ue() -> WorkloadSample:
    """A population cell folded in-process through the shard merge.

    ``run_scenario`` on an ``n_ues > 1`` config delegates to
    :func:`repro.experiments.sharding.run_population`: per-UE
    sub-simulations seeded from the cell seed, telemetry snapshots and
    charging state merged streaming.  This times the per-UE cost of
    that class; scale-out across processes is measured by the scaling
    section, not the regression gate.
    """
    n_ues = int(os.environ.get("MILLION_UE_UES", "64"))
    return _scenario_events(million_ue_config(n_ues))


def negotiation() -> WorkloadSample:
    """Signed negotiations plus Algorithm 2 verification.

    Keys come from :func:`repro.crypto.keypair_for_seed` — the canonical
    way a scenario obtains its RSA material — so the workload times
    exactly what a campaign cell pays per negotiation round-trip.
    """
    rounds = 4
    edge_keys = keypair_for_seed(_SEED, bits=1024)
    operator_keys = keypair_for_seed(_SEED + 1, bits=1024)
    verifier = PublicVerifier()
    events = 0
    for i in range(rounds):
        edge, operator, plan = _build_agents(
            edge_keys, operator_keys, seed=_SEED + i
        )
        outcome = run_negotiation(operator, edge)
        assert outcome.poc is not None
        events += outcome.messages
        result = verifier.verify(
            outcome.poc, plan, edge_keys.public, operator_keys.public
        )
        assert result.ok, result.reason
        events += 3  # three signature layers checked by Algorithm 2
    return WorkloadSample(events=events)


def service_throughput() -> WorkloadSample:
    """The async charging service at attested-claim scale.

    Boots :class:`repro.service.ChargingService` on one event loop,
    drives concurrent synthetic sessions through the real ingest path,
    and counts **attested claims** — Merkle batch leaves (gateway CDRs
    plus negotiation-retained TLC claims) sealed under one RSA
    signature per batch — as the workload's events.  ``events_per_sec
    * 3600`` is therefore claims/hr, the Figure 17 service-scale axis;
    the gate in :mod:`benchmarks.perf.test_perf` holds it at or above
    one million claims/hr.  Every run also asserts the service tier's
    correctness verdicts: exact accounting reconciliation and
    settlement equivalence with a batch replay of the same events.
    """
    from repro.service import LoadProfile, ServiceConfig
    from repro.service.load import run_service_load

    profile = LoadProfile(
        sessions=24,
        events_per_session=160,
        event_interval=1.0,
        seed=_SEED,
    )
    config = ServiceConfig(
        seed=_SEED,
        cycle_duration=600.0,
        cdr_period=1.0,
        attest_batch=512,
    )
    report = run_service_load(profile, config)
    assert report.reconciles, "service accounting must reconcile exactly"
    assert report.batch_equivalent, "service must match the batch replay"
    assert report.batch_attested_pocs >= 1
    assert report.sign_ops == report.batches_sealed
    return WorkloadSample(
        events=report.claims_attested, bytes=report.bytes_offered
    )


WORKLOADS = {
    "analytic_congestion": analytic_congestion,
    "congestion": congestion,
    "fluid_congestion": fluid_congestion,
    "fluid_intermittent": fluid_intermittent,
    "intermittent": intermittent,
    "million_ue": million_ue,
    "negotiation": negotiation,
    "service_throughput": service_throughput,
    "telemetry_off": telemetry_off,
    "telemetry_on": telemetry_on,
    "telemetry_on_traced": telemetry_on_traced,
}

#: The workloads the smoke CI job runs (fast but representative): the
#: two scenario archetypes, the fluid and analytic fast paths, and the
#: telemetry-overhead trio.
SMOKE_WORKLOADS = (
    "analytic_congestion",
    "congestion",
    "fluid_congestion",
    "negotiation",
    "telemetry_off",
    "telemetry_on",
    "telemetry_on_traced",
)
