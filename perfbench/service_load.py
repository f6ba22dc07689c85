"""Workload ``service``: the async charging service under open-loop load.

Phase 1 (**open loop**): independent sessions arrive at a fixed rate,
each streaming ``generate_session_events``-shaped usage events on a
fixed wall-clock schedule and then closing; an auditor audits every
settled (session, cycle) once, ``AUDIT_DELAY_S`` after the settlement
is due (``VerifierService.get_poc``, ``get_cdrs`` → ``load_cdr``,
``ChargingService.session_status``, in turn), as the paper's
charge → attest → verify pipeline has each PoC checked by a third
party.  The generator never waits for the service, so a stall shows up
as latency: every time is taken from when the action was *due*.
Event latency ends when the charging core takes the event
(``ServiceHooks.on_event``); settlement latency runs from the due time
of the event or close that ended the cycle to ``ServiceHooks.on_settle``.

Phase 2 (**closed loop**): batches of the ``run_service_load`` shape,
each a fresh service driven by ``drive_load`` as fast as backpressure
allows, then shut down.  Claims/hr and per-batch wall and CPU come from
here.

Times are scaled to the reference host speed (``HostSpeed``): each
closed-loop batch by the readings taken while it ran, the open-loop
latencies by those taken over the whole phase.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

from perfbench.common import (
    HostSpeed,
    RunState,
    median,
    percentile,
    tree_peak_rss_mb,
)
from perfbench.tracing import CORE_PROCESS, VERIFIER_ACCEPT, VERIFIER_QUERIES
from repro.service import (
    ChargingService,
    LoadProfile,
    ServiceConfig,
    ServiceHooks,
    generate_session_events,
)
from repro.service.load import drive_load

#: Service seed at the benchmark's default workload seed (0).
BASE_SEED = 17
#: Open-loop nominal usage-event rate (events per wall second): about
#: a tenth of the closed-loop capacity on a 2-vCPU host, well below
#: saturation.
NOMINAL_RATE = 800.0
#: Usage events per open-loop session, and the wall span they cover.
#: The events keep their stream timestamps (~80 s, so two 60 s charging
#: cycles per session); only their wall schedule is compressed.  A
#: 0.5 s span keeps about ``NOMINAL_RATE * SESSION_WALL_S /
#: EVENTS_PER_SESSION`` = 10 sessions open at once, far below
#: ``ServiceConfig.max_sessions``, and lets a 10 s phase open and settle
#: ~200 sessions.  It is an assumption about load shape, not a trace.
EVENTS_PER_SESSION = 40
SESSION_WALL_S = 0.5
#: How close to an action's due time the generator stops sleeping and
#: starts yielding to the loop instead (seconds).
SPIN_S = 0.002
#: The latency limit the open loop is judged against (ms).
LATENCY_LIMIT_MS = 50.0
#: The auditor reads a settlement once it is this late (the limit).
AUDIT_DELAY_S = LATENCY_LIMIT_MS / 1e3
#: Closed-loop batch shape.
CLOSED_SESSIONS = 64
CLOSED_EVENTS = 40


def service_config():
    """The service under test.  Its own seed (RSA keys, nonces) is fixed:
    the workload seed varies the load it is fed, not its identity, so
    key generation costs the same in every run."""
    return ServiceConfig(seed=BASE_SEED)


def open_loop_plan(seed: int, seconds: float, cycle_duration: float,
                   rate: float = NOMINAL_RATE):
    """The deterministic open-loop schedule for one run.

    Returns ``(actions, settle_due)``: actions are ``(due_s, kind,
    payload)`` sorted by due time, kinds ``open``/``event``/
    ``close``/``read``; ``settle_due`` maps ``(session_id, cycle)`` to
    the due time of the action that ends that cycle.
    """
    sessions = max(1, math.ceil(rate * seconds / EVENTS_PER_SESSION))
    interarrival = EVENTS_PER_SESSION / rate
    profile = LoadProfile(
        sessions=sessions, events_per_session=EVENTS_PER_SESSION,
        seed=BASE_SEED + seed,
    )
    actions = []
    settle_due: dict[tuple[str, int], float] = {}
    specs = []
    for index in range(sessions):
        spec, events = generate_session_events(profile, index)
        specs.append(spec)
        start = index * interarrival
        scale = SESSION_WALL_S / max(events[-1].timestamp, 1e-9)
        actions.append((start, "open", spec))
        cycle = 0
        for event in events:
            due = start + event.timestamp * scale
            actions.append((due, "event", event))
            reached = int(event.timestamp // cycle_duration)
            while cycle < reached:
                settle_due[(spec.session_id, cycle)] = due
                cycle += 1
        close = start + SESSION_WALL_S + 1e-3
        actions.append((close, "close", spec))
        settle_due[(spec.session_id, cycle)] = close
    by_id = {spec.session_id: spec for spec in specs}
    audits = sorted(settle_due.items(), key=lambda item: (item[1], item[0]))
    for k, ((session_id, _cycle), due) in enumerate(audits):
        actions.append(
            (due + AUDIT_DELAY_S, "read", (k % 3, by_id[session_id]))
        )
    order = {"open": 0, "event": 1, "read": 2, "close": 3}
    actions.sort(key=lambda a: (a[0], order[a[1]]))
    return actions, settle_due


class OpenLoop:
    """Drives one service through an open-loop plan and times it."""

    def __init__(self, actions, settle_due) -> None:
        self.actions = actions
        self.settle_due = settle_due
        self.base = 0.0
        self.due_of: dict[int, float] = {}
        self.accepted_at: dict[int, float] = {}
        self.event_ms: list[float] = []
        self.queue_wait_ms: list[float] = []
        self.settle_ms: list[float] = []
        self.query_ms: list[float] = []
        self.lag_ms: list[float] = []
        self.submit_s = 0.0
        self.submits = 0
        self.refused = 0
        self.failed_reads = 0
        self.unmatched_settles = 0
        self.service = None
        #: Host-speed scale of the phase's latencies (set after it ran).
        self.scale = 1.0

    # ServiceHooks callbacks -------------------------------------------

    def on_event(self, _state, event) -> None:
        now = time.perf_counter()
        key = id(event)
        due = self.due_of.pop(key, None)
        if due is not None:
            self.event_ms.append((now - self.base - due) * 1e3)
        accepted = self.accepted_at.pop(key, None)
        if accepted is not None:
            self.queue_wait_ms.append((now - accepted) * 1e3)

    def on_settle(self, settlement) -> None:
        now = time.perf_counter() - self.base
        due = self.settle_due.get(
            (settlement.session_id, settlement.cycle.index)
        )
        if due is None:
            self.unmatched_settles += 1
            return
        self.settle_ms.append((now - due) * 1e3)

    # the generator -----------------------------------------------------

    def _read(self, kind: int, spec) -> bool:
        service = self.service
        if kind == 0:
            service.verifier.get_poc(spec.session_id)
            return True
        if kind == 1:
            page = service.verifier.get_cdrs(spec.app_id, limit=8)
            if not page.refs:
                return True
            loaded = service.verifier.load_cdr(
                spec.app_id, page.refs[0].sequence_number
            )
            return loaded is not None and loaded.proof_ok
        return bool(service.session_status(spec.session_id).get("known"))

    async def run(self, config) -> None:
        self.service = service = ChargingService(
            config,
            hooks=ServiceHooks(on_event=self.on_event, on_settle=self.on_settle),
        )
        closers = []
        clock = time.perf_counter
        self.base = base = clock()
        actions = self.actions
        i = 0
        while i < len(actions):
            now = clock() - base
            wait = actions[i][0] - now
            if wait > 0:
                # The loop's timer rounds sleeps up to whole milliseconds;
                # sleeping short of the due time and then yielding until
                # it arrives keeps that rounding out of every latency.
                await asyncio.sleep(wait - SPIN_S if wait > SPIN_S else 0)
                continue
            while i < len(actions) and actions[i][0] <= now:
                due, kind, payload = actions[i]
                i += 1
                started = clock()
                self.lag_ms.append((started - base - due) * 1e3)
                if kind == "event":
                    self.due_of[id(payload)] = due
                    admission = service.submit(payload)
                    done = clock()
                    self.submit_s += done - started
                    self.submits += 1
                    if admission:
                        self.accepted_at[id(payload)] = done
                    else:
                        self.due_of.pop(id(payload), None)
                        self.refused += 1
                elif kind == "read":
                    try:
                        ok = self._read(*payload)
                    except Exception:  # noqa: BLE001 — a failed read
                        ok = False
                    self.query_ms.append((clock() - base - due) * 1e3)
                    if not ok:
                        self.failed_reads += 1
                elif kind == "open":
                    if not service.open_session(payload):
                        self.refused += 1
                else:
                    closers.append(
                        asyncio.create_task(
                            service.close_session(payload.session_id)
                        )
                    )
            await asyncio.sleep(0)
        await asyncio.gather(*closers)
        self.wall_s = clock() - base
        await service.shutdown()


@dataclass
class Batch:
    """One closed-loop batch: its times, its host-speed scale and what
    the output checks need.  Only the first batch keeps its service, so
    memory does not grow with the number of batches."""

    wall: float
    cpu: float
    scale: float
    claims: int
    accepted: int
    reconciles: bool
    pocs_rejected: int
    settlements: dict
    batches_sealed: int
    sign_ops: int
    rejected: dict
    service: ChargingService | None

    @classmethod
    def of(cls, service, wall: float, cpu: float, scale: float,
           keep: bool) -> "Batch":
        return cls(
            wall=wall, cpu=cpu, scale=scale,
            claims=service.core.claims_attested,
            accepted=service.ingest.accepted_events,
            reconciles=service.accounting().reconciles,
            pocs_rejected=service.verifier.pocs_rejected,
            settlements=dict(service.settlements),
            batches_sealed=service.core.batches_sealed,
            sign_ops=service.core.sign_ops,
            rejected=dict(service.ingest.rejected_events),
            service=service if keep else None,
        )


async def closed_loop(config, seed: int, seconds: float | None,
                      speed: HostSpeed, batches: int | None = None):
    """Closed-loop batches until ``seconds`` pass (or ``batches`` ran)."""
    profile = LoadProfile(
        sessions=CLOSED_SESSIONS, events_per_session=CLOSED_EVENTS,
        seed=BASE_SEED + seed,
    )
    runs = []
    start = time.perf_counter()
    while True:
        if batches is not None and len(runs) >= batches:
            break
        if batches is None and runs and time.perf_counter() - start >= seconds:
            break
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        service = ChargingService(config)
        await drive_load(service, profile)
        await service.shutdown()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        scale = speed.scale(t0, t0 + wall)
        runs.append(Batch.of(service, wall, cpu, scale, not runs))
    return runs


class Service:
    """Set-up, timed window, output checks and traced pass."""

    def __init__(self, state: RunState, seed: int,
                 rate: float = NOMINAL_RATE) -> None:
        self.state = state
        self.seed = seed
        self.rate = rate

    def setup(self, profile=None) -> None:
        """Build both parties' RSA keys (cached process-wide after this),
        under ``profile`` when one is given."""
        self.config = service_config()
        if profile is not None:
            profile.call(lambda: ChargingService(self.config))
        else:
            ChargingService(self.config)

    def close(self) -> None:
        pass

    def _phases(self, open_s: float, closed_s: float | None,
                batches: int | None = None):
        actions, settle_due = open_loop_plan(
            self.seed, open_s, self.config.cycle_duration, self.rate
        )
        loop = OpenLoop(actions, settle_due)

        async def both(speed):
            await loop.run(self.config)
            loop.scale = speed.scale(loop.base, loop.base + loop.wall_s)
            return await closed_loop(self.config, self.seed, closed_s,
                                     speed, batches)

        with HostSpeed() as self.speed:
            runs = asyncio.run(both(self.speed))
        return loop, runs

    def _count(self, loop: OpenLoop, runs) -> None:
        state = self.state
        events = sum(1 for a in loop.actions if a[1] == "event")
        state.attempted += len(loop.actions)
        for batch in runs:
            state.attempted += CLOSED_SESSIONS * CLOSED_EVENTS
            missing = CLOSED_SESSIONS * CLOSED_EVENTS - batch.accepted
            if missing:
                state.fail(f"closed loop: {missing} events never accepted",
                           missing)
        if loop.refused:
            state.fail(f"open loop: {loop.refused} refused", loop.refused)
        if loop.failed_reads:
            state.fail(f"open loop: {loop.failed_reads} failed reads",
                       loop.failed_reads)
        if len(loop.event_ms) != events - loop.refused:
            state.fail("open loop: some events were never charged")

    def window(self, seconds: float) -> None:
        loop, runs = self._phases(seconds / 2, seconds / 2)
        rss = tree_peak_rss_mb()
        self.loop, self.runs = loop, runs
        self._count(loop, runs)
        if self.state.failed:
            return
        wall_s = median([b.wall * b.scale for b in runs])
        cpu_s = median([b.cpu * b.scale for b in runs])
        claims = median([b.claims * 3600.0 / (b.wall * b.scale) for b in runs])
        put = self.state.put
        put("wall_s", wall_s, "s")
        put("cpu_s", cpu_s, "s")
        put("ms_per_ue", wall_s * 1e3 / CLOSED_SESSIONS, "ms")
        put("cpu_ms_per_ue", cpu_s * 1e3 / CLOSED_SESSIONS, "ms")
        put("rss_peak_mb", rss, "MB")
        put("latency_ms", percentile(loop.settle_ms, 50) * loop.scale, "ms")
        put("throughput_per_hr", claims, "1/h")
        self.state.context.update(
            nominal_rate_per_s=self.rate,
            latency_limit_ms=LATENCY_LIMIT_MS,
            open_loop_events=len(loop.event_ms),
            open_loop_reads=len(loop.query_ms),
            open_loop_wall_s=round(loop.wall_s, 3),
            loadgen_lag_p99_ms=round(percentile(loop.lag_ms, 99), 3),
            latency_p95_ms=round(percentile(loop.settle_ms, 95), 3),
            event_p50_ms=round(percentile(loop.event_ms, 50), 4),
            event_p99_ms=round(percentile(loop.event_ms, 99), 3),
            over_latency_limit=sum(
                1 for v in loop.event_ms if v > LATENCY_LIMIT_MS
            ),
            closed_loop_batches=len(runs),
            closed_loop_shape=f"{CLOSED_SESSIONS}x{CLOSED_EVENTS}",
            measured_wall_s=round(median([b.wall for b in runs]), 4),
            measured_latency_ms=round(percentile(loop.settle_ms, 50), 4),
            **self.speed.context(),
        )

    def check(self) -> None:
        """Reconciliation, batch equivalence, no rejected PoC — run on
        every service after the timed window."""
        service = self.loop.service
        self.state.check(
            service.accounting().reconciles
            and all(b.reconciles for b in self.runs),
            "service accounting does not reconcile",
        )
        rejected = service.verifier.pocs_rejected + sum(
            b.pocs_rejected for b in self.runs
        )
        self.state.check(rejected == 0, f"{rejected} PoCs rejected")
        self.state.check(
            self.loop.unmatched_settles == 0,
            f"{self.loop.unmatched_settles} settlements had no due cycle end",
        )
        # Every closed-loop batch replays the same events, so one batch
        # replay plus batch-to-batch identity covers them all.
        for service in (service, self.runs[0].service):
            self.state.check(
                service.verify_batch_equivalence(),
                "service settlements differ from a batch replay",
            )
        reference = self.runs[0].settlements
        self.state.check(
            all(b.settlements == reference for b in self.runs),
            "identical closed-loop batches settled differently",
        )

    def outputs(self) -> dict:
        """What ``expected.json`` records: one closed-loop batch's total
        settled volume."""
        settlements = self.runs[0].settlements.values()
        return {
            "closed_loop_settled": sum(v for v in settlements if v is not None)
        }

    # -- traced run ------------------------------------------------------

    def traced(self, profile, seconds: float) -> dict[str, float]:
        """Untraced phases (service-tier metrics), then the same phases
        under the profiler."""
        batches = 8
        loop, runs = self._phases(seconds / 4, None, batches)
        self.loop, self.runs = loop, runs
        self._count(loop, runs)
        traced_runs = profile.call(
            lambda: self._phases(seconds / 4, None, batches)
        )[1]
        untraced = sum(b.wall for b in runs)
        cache = loop.service.verifier.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        metrics = {
            "trace.overhead_frac": (
                sum(b.wall for b in traced_runs) / untraced - 1.0
            ),
            "service.submit_us": loop.submit_s * 1e6 / max(1, loop.submits),
            "service.queue_wait_p99_ms": percentile(loop.queue_wait_ms, 99),
            "service.process_us": profile.cumtime(CORE_PROCESS) * 1e6
            / max(1, profile.calls(CORE_PROCESS)),
            "service.event_p50_ms": percentile(loop.event_ms, 50),
            "service.event_p99_ms": percentile(loop.event_ms, 99),
            "service.settle_p95_ms": percentile(loop.settle_ms, 95),
            "service.query_p99_ms": percentile(loop.query_ms, 99),
            "service.verifier.accept_s": profile.cumtime(VERIFIER_ACCEPT),
            "service.verifier.query_s": profile.cumtime(*VERIFIER_QUERIES),
            "service.verifier.cache_hit_ratio": (
                cache["hits"] / lookups if lookups else 0.0
            ),
            "service.attest.batches": loop.service.core.batches_sealed
            + sum(b.batches_sealed for b in runs),
            "service.attest.sign_ops": loop.service.core.sign_ops
            + sum(b.sign_ops for b in runs),
            "loadgen.lag_p99_ms": percentile(loop.lag_ms, 99),
        }
        rejected = [loop.service.ingest.rejected_events]
        for counts in rejected + [b.rejected for b in runs]:
            for reason, count in counts.items():
                key = f"service.refused.{reason}"
                metrics[key] = metrics.get(key, 0) + count
        return metrics
