"""The end-to-end scenario runner.

One scenario = one charging cycle of one edge application over the
simulated LTE testbed, with:

- the configured congestion level (background offered load),
- the configured radio conditions (RSS, intermittent disconnectivity),
- both parties snapshotting their monitors at the cycle boundaries *on
  their own NTP-disciplined clocks* (the Figure 18 error source),
- ground truth recorded on the side for gap computation.

The result carries everything downstream experiments need: the truth pair
(x̂e, x̂o), each party's :class:`~repro.core.records.UsageView`, and the
legacy gateway-charged volume.  :func:`charge_with_scheme` then applies a
charging scheme (legacy / TLC-optimal / TLC-random / honest TLC) and
returns the charged volume plus negotiation metadata.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass, field

from repro import telemetry
from repro.apps.gaming import GamingWorkload
from repro.apps.vr import VrGvspWorkload
from repro.apps.webcam import WebcamRtspWorkload, WebcamUdpWorkload
from repro.charging.cycle import ChargingCycle
from repro.charging.policy import ChargingPolicy
from repro.core.cancellation import NegotiationResult, negotiate
from repro.core.plan import DataPlan
from repro.core.records import GroundTruth, UsageView
from repro.core.strategies import (
    HonestStrategy,
    OptimalStrategy,
    RandomSelfishStrategy,
    Role,
)
from repro.lte.analytic import AnalyticDriver
from repro.lte.network import LteNetwork, LteNetworkConfig
from repro.monitors.device import DeviceApiMonitor
from repro.monitors.gateway import GatewayMonitor
from repro.monitors.rrc_counter import RrcCounterMonitor
from repro.monitors.server import ServerMonitor
from repro.monitors.tamper import UnderReportTamper
from repro.net.channel import ChannelConfig
from repro.net.congestion import CongestionConfig
from repro.net.packet import Direction
from repro.sim.events import EventLoop
from repro.sim.rng import RngStreams
from repro.telemetry.accounting import build_accounting
from repro.timesync.ntp import NtpModel

APP_BUILDERS = {
    "webcam-rtsp": WebcamRtspWorkload,
    "webcam-udp": WebcamUdpWorkload,
    "vridge": VrGvspWorkload,
    "gaming": GamingWorkload,
}

APP_DIRECTIONS = {
    "webcam-rtsp": Direction.UPLINK,
    "webcam-udp": Direction.UPLINK,
    "vridge": Direction.DOWNLINK,
    "gaming": Direction.DOWNLINK,
}

APP_QCI = {
    "webcam-rtsp": 9,
    "webcam-udp": 9,
    "vridge": 9,
    "gaming": 7,
}

# Residual loss of each UDP real-time stream at good radio with no
# background traffic, lumping the §3.1 causes the congestion/intermittency
# knobs do not model (RLC-UM air loss, handovers, SLA middlebox drops).
# Calibrated to §3.2's measured good-radio gaps: 8.3% (RTSP webcam),
# 6.7% (UDP webcam), 8.0% (GVSP VR), and the small QCI=7 gaming gap.
APP_BASE_LOSS = {
    "webcam-rtsp": 0.080,
    "webcam-udp": 0.065,
    "vridge": 0.078,
    "gaming": 0.055,
}


class ChargingScheme(enum.Enum):
    """The schemes compared in §7.1."""

    LEGACY = "legacy"
    TLC_OPTIMAL = "tlc-optimal"
    TLC_RANDOM = "tlc-random"
    TLC_HONEST = "tlc-honest"


@dataclass(frozen=True)
class PopulationGroup:
    """A contiguous slice of a heterogeneous UE population.

    ``ScenarioConfig(population=(g0, g1, ...))`` lays the groups out in
    order: group 0 covers UE indices ``[0, g0.count)``, group 1 the next
    ``g1.count`` indices, and so on.  Every ``None`` field inherits the
    cell-level value, so a group only states what makes it different —
    a congested app mix, a worse radio, a lossier workload.  All groups
    must share one traffic direction (the accounting tables and the
    gateway/OFCS boundary are per-direction).

    ``weight`` is the scheduler's relative per-UE cost hint: the
    work-stealing shard scheduler (:mod:`repro.experiments.scheduler`)
    dispatches expensive chunks first (longest-processing-time order),
    so a skewed population stops gating the run on whichever worker
    drew the heavy UEs last.  The weight never affects simulation
    results — per-UE seeds depend only on ``(cell seed, UE index)``.
    """

    count: int
    app: str | None = None
    rss_dbm: float | None = None
    background_bps: float | None = None
    disconnectivity_ratio: float | None = None
    app_loss_rate: float | None = None
    weight: float = 1.0

    #: The ScenarioConfig fields a group may override, in field order.
    OVERRIDE_FIELDS = (
        "app",
        "rss_dbm",
        "background_bps",
        "disconnectivity_ratio",
        "app_loss_rate",
    )

    def __post_init__(self) -> None:
        if (
            isinstance(self.count, bool)
            or not isinstance(self.count, int)
            or self.count < 1
        ):
            raise ValueError(
                f"population group count must be an int >= 1: "
                f"{self.count!r}"
            )
        if self.app is not None and self.app not in APP_BUILDERS:
            raise ValueError(
                f"unknown app {self.app!r} in population group; choose "
                f"from {sorted(APP_BUILDERS)}"
            )
        if not self.weight > 0:
            raise ValueError(
                f"population group weight must be > 0: {self.weight!r}"
            )

    def overrides(self) -> dict:
        """The non-``None`` ScenarioConfig field overrides."""
        return {
            name: getattr(self, name)
            for name in self.OVERRIDE_FIELDS
            if getattr(self, name) is not None
        }


#: Every data-plane granularity a scenario can run at, in order of
#: increasing aggregation (and decreasing event count):
#:
#: - ``"packet"``  — one event chain per packet (reference semantics);
#: - ``"fluid"``   — one :class:`~repro.net.block.PacketBlock` per video
#:   frame, bit-identical to packet mode under one seed;
#: - ``"analytic"``— one closed-form step per *stable interval*
#:   (see :mod:`repro.lte.analytic`), statistically equivalent to
#:   fluid/packet within the documented tolerance
#:   (:func:`repro.experiments.equivalence.derived_tolerance`).
MODES = ("packet", "fluid", "analytic")


@dataclass
class ScenarioConfig:
    """Parameters of one experiment round."""

    app: str = "webcam-udp"
    seed: int = 1
    cycle_duration: float = 60.0
    background_bps: float = 0.0
    rss_dbm: float = -90.0
    disconnectivity_ratio: float = 0.0
    mean_outage: float = 1.93
    loss_weight: float = 0.5
    device_profile: str = "EL20"
    # NTP residual offsets (s) for each party's cycle boundary.  ``None``
    # scales with the cycle duration (1.5% / 2.5% of it), which lands the
    # Figure 18 record errors on the paper's 1.2% (edge) / 2.0%
    # (operator) averages at any cycle length.
    edge_clock_std: float | None = None
    operator_clock_std: float | None = None
    counter_check_enabled: bool = True
    app_loss_rate: float | None = None  # None = per-app default
    # A selfish edge under-reporting its OS counters (§5.4 strawman 1
    # threat): the fraction of true bytes the tampered APIs report.
    # None = honest device.
    edge_tamper_fraction: float | None = None
    # Telemetry: collect per-layer metrics (and optionally trace events)
    # for this run.  Off by default so the hot path stays a no-op.
    telemetry: bool = False
    trace: bool = False
    # Stream trace events to a live JSONL file through a buffered
    # TraceSink as the run progresses (independent of ``trace``, which
    # buffers events in memory for the result record).  A plain string
    # so configs stay hashable/picklable for the campaign cache.
    trace_path: str | None = None
    # Data-plane granularity: "packet" pays one event chain per packet;
    # "fluid" moves one PacketBlock per video frame through the same
    # elements, falling back to packet granularity wherever an element
    # needs true packet semantics (see DESIGN.md §8).  Byte totals are
    # bit-identical across packet and fluid modes under one seed —
    # enforced by tests/equivalence.  "analytic" advances whole stable
    # intervals in one closed-form step per layer (expected losses with
    # integer reconciliation — see docs/architecture.md); it agrees with
    # fluid mode within a derived per-run byte tolerance, never
    # bit-exactly.  Runs with fault hooks fall back from analytic to
    # fluid advancement (faults are packet/block-level machinery).
    mode: str = "packet"
    # UE population of this cell.  1 is the classic single-session
    # scenario.  n_ues > 1 models a population of independent UE
    # sessions behind one gateway/OFCS boundary: each UE runs as its
    # own sub-simulation seeded from ``derive_seed(seed, "ue", index)``
    # and the results merge exactly (telemetry snapshots, accounting
    # tables, charging state) — see ``repro.experiments.sharding`` and
    # docs/architecture.md.  Merged totals depend only on (seed,
    # n_ues), never on how the population is sharded.
    n_ues: int = 1
    # Heterogeneous population: an ordered tuple of PopulationGroup
    # slices mixing apps / radio / load within one cell.  None is the
    # homogeneous cell (every UE inherits the cell-level fields).  When
    # set, the group counts must sum to ``n_ues`` (or ``n_ues`` may be
    # left at its default and is derived from the groups).  UE ``i``'s
    # sub-simulation config is the cell config plus its group's
    # overrides — the seed stays ``derive_seed(seed, "ue", i)``, so the
    # merge-invariant contract is unchanged: merged totals depend only
    # on (seed, population layout), never on sharding or scheduling.
    population: tuple | None = None

    EDGE_CLOCK_STD_FRACTION = 0.015
    OPERATOR_CLOCK_STD_FRACTION = 0.025

    @property
    def effective_edge_clock_std(self) -> float:
        """Edge boundary-offset std (s), resolved against the cycle."""
        if self.edge_clock_std is not None:
            return self.edge_clock_std
        return self.EDGE_CLOCK_STD_FRACTION * self.cycle_duration

    @property
    def effective_operator_clock_std(self) -> float:
        """Operator boundary-offset std (s), resolved against the cycle."""
        if self.operator_clock_std is not None:
            return self.operator_clock_std
        return self.OPERATOR_CLOCK_STD_FRACTION * self.cycle_duration

    def __post_init__(self) -> None:
        if self.app not in APP_BUILDERS:
            raise ValueError(
                f"unknown app {self.app!r}; choose from "
                f"{sorted(APP_BUILDERS)}"
            )
        if self.cycle_duration <= 0:
            raise ValueError("cycle duration must be positive")
        if self.mode not in MODES:
            choices = " | ".join(MODES)
            raise ValueError(
                f"unknown mode {self.mode!r}; choose one of {choices}"
            )
        if (
            isinstance(self.n_ues, bool)
            or not isinstance(self.n_ues, int)
            or self.n_ues < 1
        ):
            raise ValueError(
                f"n_ues must be an int >= 1: {self.n_ues!r}"
            )
        if self.population is not None:
            groups = []
            for entry in self.population:
                if isinstance(entry, PopulationGroup):
                    groups.append(entry)
                elif isinstance(entry, dict):
                    groups.append(PopulationGroup(**entry))
                else:
                    raise ValueError(
                        f"population entries must be PopulationGroup "
                        f"(or mappings of its fields): {entry!r}"
                    )
            if not groups:
                raise ValueError("population must name at least one group")
            total = sum(group.count for group in groups)
            if self.n_ues not in (1, total):
                raise ValueError(
                    f"population groups cover {total} UEs but "
                    f"n_ues={self.n_ues}; drop n_ues or make them agree"
                )
            directions = {
                APP_DIRECTIONS[group.app or self.app] for group in groups
            }
            if len(directions) != 1:
                raise ValueError(
                    "population groups mix traffic directions "
                    f"({sorted(d.value for d in directions)}); the "
                    "gateway/OFCS accounting boundary is per-direction, "
                    "so one cell must stay uplink-only or downlink-only"
                )
            self.population = tuple(groups)
            self.n_ues = total

    @property
    def direction(self) -> Direction:
        """The cell's traffic direction (groups never mix directions)."""
        if self.population:
            return APP_DIRECTIONS[self.population[0].app or self.app]
        return APP_DIRECTIONS[self.app]

    # -- heterogeneous-population resolution ----------------------------

    def group_for(self, index: int) -> PopulationGroup | None:
        """UE ``index``'s population group (None for homogeneous cells)."""
        if self.population is None:
            return None
        if not 0 <= index < self.n_ues:
            raise IndexError(
                f"UE index {index} outside population [0, {self.n_ues})"
            )
        start = 0
        for group in self.population:
            start += group.count
            if index < start:
                return group
        raise AssertionError("group counts no longer cover n_ues")

    def ue_overrides(self, index: int) -> dict:
        """The ScenarioConfig field overrides of UE ``index``."""
        group = self.group_for(index)
        return group.overrides() if group is not None else {}

    def weight_between(self, start: int, stop: int) -> float:
        """Scheduler cost estimate of UEs ``[start, stop)``.

        The sum of per-UE group weights over the range, computed from
        the group boundaries (never by expanding the population).  A
        homogeneous cell weighs every UE at 1.0.
        """
        if not 0 <= start <= stop <= self.n_ues:
            raise ValueError(
                f"UE range [{start}, {stop}) outside population "
                f"[0, {self.n_ues}]"
            )
        if self.population is None:
            return float(stop - start)
        total = 0.0
        cursor = 0
        for group in self.population:
            lo = max(start, cursor)
            hi = min(stop, cursor + group.count)
            if hi > lo:
                total += group.weight * (hi - lo)
            cursor += group.count
            if cursor >= stop:
                break
        return total


@dataclass
class ScenarioResult:
    """Everything one charging cycle produced."""

    config: ScenarioConfig
    truth: GroundTruth
    edge_view: UsageView
    operator_view: UsageView
    legacy_charged: float
    duration: float
    outage_time: float = 0.0
    rlf_events: int = 0
    counter_checks: int = 0
    generated_bytes: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def fair_volume(self) -> float:
        """x̂ under the configured plan."""
        return self.truth.fair_volume(self.config.loss_weight)

    @property
    def plan(self) -> DataPlan:
        """The data plan this cycle ran under."""
        cycle = ChargingCycle(
            index=0, start=0.0, end=self.config.cycle_duration
        )
        return DataPlan(cycle=cycle, loss_weight=self.config.loss_weight)


def _build_network(
    config: ScenarioConfig, loop: EventLoop, rngs: RngStreams
) -> LteNetwork:
    base_loss = (
        config.app_loss_rate
        if config.app_loss_rate is not None
        else APP_BASE_LOSS[config.app]
    )
    channel = ChannelConfig.for_disconnectivity_ratio(
        config.disconnectivity_ratio,
        mean_outage=config.mean_outage,
        rss_dbm=config.rss_dbm,
        base_loss_rate=base_loss,
    )
    congestion = CongestionConfig(background_bps=config.background_bps)
    net_config = LteNetworkConfig(
        channel=channel,
        congestion=congestion,
        policy=ChargingPolicy(loss_weight=config.loss_weight),
        qci=APP_QCI[config.app],
        device_profile=config.device_profile,
        counter_check_enabled=config.counter_check_enabled,
        # Several periodic CDRs per cycle, as a real gateway emits.
        cdr_period=min(10.0, config.cycle_duration / 6.0),
    )
    return LteNetwork(loop, net_config, rngs.fork("lte"))


class ScenarioHooks:
    """Extension points :func:`run_scenario` offers to fault injectors.

    The default implementation is a strict no-op: running with
    ``hooks=None`` (or this base class) is byte-identical to the
    pre-hook scenario path, which is what keeps fault-free campaign
    cache entries valid and the perf gate's zero-overhead claim honest.
    All methods are called inside the scenario's telemetry activation,
    so anything a hook does is traced like first-class scenario work.
    """

    def on_network(
        self,
        config: ScenarioConfig,
        loop: EventLoop,
        rngs: RngStreams,
        network: LteNetwork,
    ) -> None:
        """The testbed is wired; schedule fault events here."""

    def on_monitors(
        self,
        config: ScenarioConfig,
        loop: EventLoop,
        network: LteNetwork,
        monitors: dict,
    ) -> None:
        """Monitors are built; replace entries to wrap/corrupt them."""

    def boundary(
        self, party: str, cycle_end: float, residual_offset: float
    ) -> float:
        """When ``party`` ("edge"/"operator") snapshots ``cycle_end``."""
        return max(0.0, cycle_end - residual_offset)

    def finalize(
        self,
        config: ScenarioConfig,
        loop: EventLoop,
        network: LteNetwork,
    ) -> None:
        """The loop has drained; run end-of-cycle recovery actions."""


def run_scenario(
    config: ScenarioConfig, hooks: ScenarioHooks | None = None
) -> ScenarioResult:
    """Simulate one charging cycle and collect both parties' records.

    A population config (``n_ues > 1``) delegates to the sharding
    module's in-process population runner: every UE runs as its own
    seeded sub-simulation and the results merge exactly, so a campaign
    worker can execute a population cell like any other task.  Use
    :func:`repro.experiments.scheduler.run_stealing_scenario` to fan
    the population out over worker processes instead.
    """
    if config.n_ues != 1:
        if hooks is not None:
            raise ValueError(
                "fault hooks require a single-UE scenario; run the "
                "population through repro.experiments.sharding and "
                "inject faults per shard instead"
            )
        from repro.experiments.sharding import run_population

        return run_population(config)
    loop = EventLoop()
    sink = (
        telemetry.TraceSink(config.trace_path)
        if config.telemetry and config.trace_path is not None
        else None
    )
    session = (
        telemetry.Telemetry(
            clock=lambda: loop.now,
            capture_trace=config.trace,
            sink=sink,
        )
        if config.telemetry
        else None
    )
    # The ExitStack guarantees the live trace sink flushes complete
    # JSONL lines and closes even when the run raises mid-cycle.
    with contextlib.ExitStack() as stack:
        if sink is not None:
            stack.enter_context(sink)
        stack.enter_context(telemetry.activation(session))
        result = _run_cycle(config, loop, hooks)
    if session is not None:
        session.flush()
        metrics = session.registry.snapshot()
        direction = config.direction.value
        record: dict = {
            "direction": direction,
            "metrics": metrics,
            "accounting": build_accounting(metrics, direction).as_dict(),
        }
        if session.trace is not None:
            record["trace"] = session.trace.as_dicts()
        result.extras["telemetry"] = record
    return result


def _run_cycle(
    config: ScenarioConfig,
    loop: EventLoop,
    hooks: ScenarioHooks | None = None,
) -> ScenarioResult:
    """The simulation core of :func:`run_scenario` for one UE.

    Publishes into whatever telemetry session is active and returns
    the result without a telemetry record; a population fold calls it
    directly under one session shared by all of its UEs.
    """
    rngs = RngStreams(config.seed)
    network = _build_network(config, loop, rngs)

    direction = config.direction
    # Fault hooks are packet/block-level machinery, so an analytic
    # run with hooks drops to fluid advancement (still exact vs
    # packet mode) rather than refusing.
    mode = config.mode
    if mode == "analytic" and hooks is not None:
        mode = "fluid"
    fluid = mode == "fluid"
    analytic = mode == "analytic"
    if direction is Direction.UPLINK:
        send = network.send_uplink_block if fluid else network.send_uplink
    else:
        send = network.send_downlink_block if fluid else network.send_downlink
    workload = APP_BUILDERS[config.app](loop, send, rngs.stream("workload"))
    if fluid:
        workload.emit_blocks = True
    driver = None
    if analytic:
        driver = AnalyticDriver(loop, network, workload)

    if config.edge_tamper_fraction is not None:
        network.ue.os_stats.install_tamper(
            downlink=UnderReportTamper(config.edge_tamper_fraction)
        )

    if hooks is not None:
        hooks.on_network(config, loop, rngs, network)

    # Monitors for each party's two estimates.
    rrc_monitor = RrcCounterMonitor(network.enodeb, direction)
    gateway_monitor = GatewayMonitor(network.gateway, direction)
    device_monitor = DeviceApiMonitor(network.ue, direction)
    if direction is Direction.UPLINK:
        edge_sent_monitor = DeviceApiMonitor(network.ue, direction)
        edge_recv_read = lambda: network.server_received_bytes  # noqa: E731
    else:
        edge_sent_monitor = ServerMonitor(network, direction)
        edge_recv_read = (
            lambda: network.ue.os_stats.downlink_bytes  # noqa: E731
        )

    if hooks is not None:
        monitors = {
            "rrc": rrc_monitor,
            "gateway": gateway_monitor,
            "device": device_monitor,
            "edge_sent": edge_sent_monitor,
        }
        hooks.on_monitors(config, loop, network, monitors)
        rrc_monitor = monitors["rrc"]
        gateway_monitor = monitors["gateway"]
        device_monitor = monitors["device"]
        edge_sent_monitor = monitors["edge_sent"]

    # NTP-disciplined party clocks decide when each boundary snapshot
    # is actually taken.
    ntp = NtpModel(rngs.stream("ntp-edge"), config.effective_edge_clock_std)
    edge_offset = ntp.residual_offset()
    ntp_op = NtpModel(
        rngs.stream("ntp-op"), config.effective_operator_clock_std
    )
    operator_offset = ntp_op.residual_offset()

    edge_snapshot: dict[str, float] = {}
    operator_snapshot: dict[str, float] = {}

    def snap_edge() -> None:
        edge_snapshot["sent"] = float(edge_sent_monitor.read_bytes())
        edge_snapshot["received"] = float(edge_recv_read())

    def snap_operator(retries_left: int = 10) -> None:
        # The operator triggers an on-demand COUNTER CHECK at its
        # cycle boundary.  A disconnected radio cannot answer — the
        # operator retries once coverage is back (nothing is
        # delivered while the radio is down, so the late reading
        # stays close).
        if (
            not network.channel.connected
            and retries_left > 0
            and config.counter_check_enabled
        ):
            loop.schedule_in(
                0.5,
                lambda: snap_operator(retries_left - 1),
                label="operator-snapshot-retry",
            )
            return
        rrc_monitor.refresh()
        if config.counter_check_enabled:
            device_side = float(rrc_monitor.read_bytes())
        else:
            # COUNTER CHECK not activated: the operator rolls back to
            # the device APIs (§5.4 strawman 1) — accurate only while
            # the edge is honest.
            device_side = float(device_monitor.read_bytes())
        if direction is Direction.UPLINK:
            operator_snapshot["sent"] = device_side
            operator_snapshot["received"] = float(gateway_monitor.read_bytes())
        else:
            operator_snapshot["sent"] = float(gateway_monitor.read_bytes())
            operator_snapshot["received"] = device_side

    # Ground truth is what actually crossed each metering point
    # within the reference-time cycle; the parties' snapshots happen
    # on their own clocks while traffic keeps flowing (it is a live
    # network).
    truth_snapshot: dict[str, float] = {}

    def snap_truth() -> None:
        if direction is Direction.UPLINK:
            truth_snapshot["sent"] = float(network.true_uplink_sent())
            truth_snapshot["received"] = float(network.true_uplink_received())
        else:
            truth_snapshot["sent"] = float(network.true_downlink_sent())
            truth_snapshot["received"] = float(
                network.true_downlink_received()
            )
        truth_snapshot["legacy"] = float(network.legacy_charged(direction))

    if driver is not None:
        # Observation points are analytic discontinuities: settle
        # the pending interval before any monitor reads state, and
        # before the workload's cadence stops.  Rebinding the names
        # also routes snap_operator's coverage-retry reschedule
        # through the synced wrapper.
        sync = driver.sync
        base_snap_edge = snap_edge
        base_snap_operator = snap_operator
        base_snap_truth = snap_truth
        base_stop = workload.stop

        def snap_edge() -> None:
            sync()
            base_snap_edge()

        def snap_operator(retries_left: int = 10) -> None:
            sync()
            base_snap_operator(retries_left)

        def snap_truth() -> None:
            sync()
            base_snap_truth()

        def stop_workload() -> None:
            sync()
            base_stop()
    else:
        stop_workload = workload.stop

    cycle_end = config.cycle_duration
    if hooks is None:
        edge_boundary = max(0.0, cycle_end - edge_offset)
        operator_boundary = max(0.0, cycle_end - operator_offset)
    else:
        edge_boundary = hooks.boundary("edge", cycle_end, edge_offset)
        operator_boundary = hooks.boundary(
            "operator", cycle_end, operator_offset
        )

    workload.start()
    loop.schedule_at(edge_boundary, snap_edge, label="edge-snapshot")
    loop.schedule_at(
        operator_boundary, snap_operator, label="operator-snapshot"
    )
    loop.schedule_at(cycle_end, snap_truth, label="truth-snapshot")

    horizon = max(cycle_end, edge_boundary, operator_boundary) + 8.0
    loop.schedule_at(horizon - 0.5, stop_workload, label="workload-stop")
    loop.run(until=horizon)
    if hooks is not None:
        hooks.finalize(config, loop, network)

    truth = GroundTruth(
        sent=truth_snapshot.get("sent", 0.0),
        received=truth_snapshot.get("received", 0.0),
    )

    edge_view = UsageView(
        sent_estimate=edge_snapshot.get("sent", 0.0),
        received_estimate=edge_snapshot.get("received", 0.0),
    )
    operator_view = UsageView(
        sent_estimate=operator_snapshot.get("sent", 0.0),
        received_estimate=operator_snapshot.get("received", 0.0),
    )

    return ScenarioResult(
        config=config,
        truth=truth,
        edge_view=edge_view,
        operator_view=operator_view,
        legacy_charged=truth_snapshot.get("legacy", 0.0),
        duration=config.cycle_duration,
        outage_time=network.channel.total_outage_time,
        rlf_events=network.enodeb.rlf_events,
        counter_checks=network.enodeb.counter_check_messages,
        generated_bytes=workload.generated_bytes,
        extras={
            "cdrs": network.ofcs.received_cdrs,
            "processed_events": loop.processed_events,
        },
    )


@dataclass
class ChargingOutcome:
    """A scheme's charged volume for one cycle, with gap metrics."""

    scheme: ChargingScheme
    charged: float
    fair: float
    rounds: int
    converged: bool

    @property
    def absolute_gap(self) -> float:
        """∆ = |x − x̂|."""
        return abs(self.charged - self.fair)

    @property
    def gap_ratio(self) -> float:
        """ε = ∆ / x̂."""
        if self.fair == 0:
            return 0.0 if self.charged == 0 else float("inf")
        return self.absolute_gap / self.fair


def charge_with_scheme(
    result: ScenarioResult,
    scheme: ChargingScheme,
    seed: int = 0,
) -> ChargingOutcome:
    """Apply one charging scheme to a finished cycle."""
    fair = result.fair_volume
    if scheme is ChargingScheme.LEGACY:
        return ChargingOutcome(
            scheme=scheme,
            charged=result.legacy_charged,
            fair=fair,
            rounds=0,
            converged=True,
        )

    plan = result.plan
    rngs = RngStreams(seed)
    if scheme is ChargingScheme.TLC_OPTIMAL:
        edge = OptimalStrategy(Role.EDGE, result.edge_view)
        operator = OptimalStrategy(Role.OPERATOR, result.operator_view)
    elif scheme is ChargingScheme.TLC_HONEST:
        edge = HonestStrategy(Role.EDGE, result.edge_view)
        operator = HonestStrategy(Role.OPERATOR, result.operator_view)
    elif scheme is ChargingScheme.TLC_RANDOM:
        edge = RandomSelfishStrategy(
            Role.EDGE, result.edge_view, rngs.stream("edge")
        )
        operator = RandomSelfishStrategy(
            Role.OPERATOR, result.operator_view, rngs.stream("operator")
        )
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown scheme: {scheme}")

    negotiation: NegotiationResult = negotiate(edge, operator, plan)
    charged = (
        negotiation.volume if negotiation.volume is not None else 0.0
    )
    return ChargingOutcome(
        scheme=scheme,
        charged=charged,
        fair=fair,
        rounds=negotiation.rounds,
        converged=negotiation.converged,
    )
