"""Per-layer charging telemetry: metrics, tracing, byte accounting.

The paper's argument is about *where* bytes are counted versus where
they are lost (§3 gateway CDRs vs. device receipts, §5.4 RRC COUNTER
CHECK).  This package makes those counting points observable: every
metering/loss element publishes counters into a
:class:`~repro.telemetry.metrics.MetricsRegistry` and structured events
into a :class:`~repro.telemetry.trace.TraceBuffer` (or a live, buffered
:class:`~repro.telemetry.trace.TraceSink`), both scoped to one
:class:`Telemetry` session, and
:mod:`repro.telemetry.accounting` folds a session's metrics into a
per-layer byte-accounting table that must reconcile exactly:
``counted_at_sender − Σ losses_by_layer == counted_at_receiver``.

Activation model
----------------

Telemetry is *opt-in per scenario* and **free when off**:

- :func:`current` returns the active session or ``None``.  Instrumented
  components capture it once at construction time; their hot paths guard
  every telemetry call with ``if self._telemetry is not None`` — a single
  attribute load and identity check, so a run with no sink attached pays
  no measurable overhead (``benchmarks/test_telemetry_overhead.py``).
- :func:`activation` scopes a session to a ``with`` block; everything
  constructed inside it (networks, channels, monitors, agents) publishes
  into that session.  Scenario runs do this when
  ``ScenarioConfig.telemetry`` is set — which is what the CLI's
  ``--metrics-out``/``--trace`` flags and the campaign engine's
  ``telemetry=True`` turn on.

Write-path performance
----------------------

Metered runs stay on the hot path too (the perf gate holds
``telemetry_on`` within 1.5x of ``telemetry_off``):

- Components *bind* their instruments at construction time
  (:meth:`Telemetry.bind_counter` and friends): one canonicalizing
  lookup per site, then plain ``handle.inc(n)`` attribute increments
  per packet.  The kwarg-style :meth:`inc`/:meth:`set`/:meth:`observe`
  remain as a compatible slow path for cold or dynamic-label sites.
- High-frequency packet elements additionally *burst-aggregate*: they
  accumulate contiguous same-outcome byte runs in plain integers and
  fold them into their bound counters on :meth:`Telemetry.flush`
  (sums of non-negative integers, so snapshots are exactly equal to
  per-packet instrumentation).  :attr:`Telemetry.burst_aggregation`
  switches the mode; the equivalence suite runs both and compares.

>>> from repro import telemetry
>>> print(telemetry.current())
None
>>> session = telemetry.Telemetry()
>>> with telemetry.activation(session):
...     telemetry.current() is session
True
>>> session.inc("bytes_counted", 42, layer="gateway", direction="downlink")
>>> session.registry.value("bytes_counted", layer="gateway", direction="downlink")
42
>>> handle = session.bind_counter(
...     "bytes_counted", direction="downlink", layer="gateway"
... )
>>> handle.inc(8)
>>> session.registry.value("bytes_counted", layer="gateway", direction="downlink")
50
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.telemetry.metrics import (
    BoundCounter,
    BoundGauge,
    BoundHistogram,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunAccumulator,
    flush_all,
)
from repro.telemetry.merge import (
    SnapshotAccumulator,
    empty_snapshot,
    merge_snapshots,
)
from repro.telemetry.trace import (
    TraceBuffer,
    TraceEvent,
    TraceSink,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "BoundCounter",
    "BoundGauge",
    "BoundHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunAccumulator",
    "SnapshotAccumulator",
    "Telemetry",
    "TraceBuffer",
    "TraceEvent",
    "TraceSink",
    "activation",
    "current",
    "empty_snapshot",
    "flush_all",
    "merge_snapshots",
    "read_jsonl",
    "write_jsonl",
]


class Telemetry:
    """One telemetry session: a metrics registry plus a trace sink.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current *simulated* time;
        scenario runs bind it to their event loop.  Defaults to a clock
        stuck at 0.0 (metrics don't need time; traces do).
    capture_trace:
        When False (the default), trace events are not buffered in
        memory — metrics-only sessions stay lean.
    sink:
        Optional live :class:`~repro.telemetry.trace.TraceSink`: trace
        events stream through its buffered JSONL writer as they happen
        (independently of ``capture_trace``).  The caller owns the
        sink's lifecycle — use it as a context manager so it flushes
        and closes even when the run raises.
    burst_aggregation:
        Whether high-frequency packet elements may fold contiguous
        same-outcome byte runs into one counter update at flush time
        instead of incrementing per packet.  ``None`` (default) takes
        the class-level :attr:`BURST_AGGREGATION`; the equivalence
        suite pins it ``False`` to compare against per-packet
        instrumentation.
    """

    #: Default burst-aggregation mode for new sessions.
    BURST_AGGREGATION = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capture_trace: bool = False,
        sink: TraceSink | None = None,
        burst_aggregation: bool | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.trace: TraceBuffer | None = (
            TraceBuffer(clock) if capture_trace else None
        )
        self.sink = sink
        if sink is not None and sink.clock is None:
            sink.clock = clock
        self.burst_aggregation = (
            self.BURST_AGGREGATION
            if burst_aggregation is None
            else bool(burst_aggregation)
        )
        # Burst accumulators register a callback here; flush() folds
        # their pending integer runs into the registry before any read.
        self._flushers: list[Callable[[], None]] = []

    # -- metrics write path --------------------------------------------

    def bind_counter(self, name: str, **labels: Any) -> BoundCounter:
        """A pre-resolved counter handle (the hot-path write API),
        interned per series by the registry."""
        return self.registry.bind_counter(name, **labels)

    def bind_gauge(self, name: str, **labels: Any) -> BoundGauge:
        """A pre-resolved gauge handle."""
        return self.registry.bind_gauge(name, **labels)

    def bind_histogram(self, name: str, **labels: Any) -> BoundHistogram:
        """A pre-resolved histogram handle, interned per series."""
        return self.registry.bind_histogram(name, **labels)

    def inc(self, name: str, amount: int | float = 1, **labels: Any) -> None:
        """Increment the counter for (name, labels) — kwarg slow path."""
        self.registry.inc(name, amount, **labels)

    def set(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge for (name, labels) — kwarg slow path."""
        self.registry.set(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record a histogram sample for (name, labels) — kwarg slow path."""
        self.registry.observe(name, value, **labels)

    # -- burst aggregation ---------------------------------------------

    def on_flush(self, callback: Callable[[], None]) -> None:
        """Register a callback run by :meth:`flush` (burst accumulators)."""
        self._flushers.append(callback)

    def flush(self) -> None:
        """Fold every pending burst accumulation into the registry.

        Must run before reading the registry of a live run (snapshots
        do this automatically); flushing twice is harmless — the
        accumulators drain on flush.
        """
        for callback in self._flushers:
            callback()

    def end_unit(self) -> None:
        """Close one unit of a session shared by many (one UE of a
        population fold).

        Runs the unit's burst-accumulator flushers once and drops them,
        so the flusher list never grows across units, and retires the
        unit's gauges (:meth:`MetricsRegistry.retire_gauges`), so the
        session's snapshot equals the
        :class:`~repro.telemetry.merge.SnapshotAccumulator` merge of
        per-unit sessions.
        """
        self.flush()
        self._flushers.clear()
        self.registry.retire_gauges()

    # -- tracing --------------------------------------------------------

    def event(self, layer: str, event: str, **fields: Any) -> None:
        """Emit a structured trace event (no-op unless capturing)."""
        if self.trace is not None:
            self.trace.emit(layer, event, **fields)
        if self.sink is not None:
            self.sink.emit(layer, event, **fields)

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able dump: all metrics, plus trace events if captured."""
        self.flush()
        out: dict[str, Any] = {"metrics": self.registry.snapshot()}
        if self.trace is not None:
            out["trace"] = self.trace.as_dicts()
        return out


# The active session. ``None`` means telemetry is off and every
# instrumented component constructed now will skip its hooks entirely.
_current: Telemetry | None = None


def current() -> Telemetry | None:
    """The active telemetry session, or ``None`` when telemetry is off."""
    return _current


@contextmanager
def activation(session: Telemetry | None) -> Iterator[Telemetry | None]:
    """Scope ``session`` as the active one for the ``with`` block.

    Passing ``None`` is allowed and leaves telemetry off — callers can
    wrap unconditionally.  The previous session is restored on exit even
    if the block raises.
    """
    global _current
    previous = _current
    _current = session
    try:
        yield session
    finally:
        _current = previous
