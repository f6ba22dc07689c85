"""Metric instruments: counters, gauges, histograms with label sets.

Every counting point in the simulated stack publishes into a
:class:`MetricsRegistry` keyed by free-form labels — by convention
``layer`` (where on the packet path), ``direction`` (uplink/downlink),
``bearer`` (EPS bearer id) and ``cause`` (for drops).  The registry is
deliberately tiny and dependency-free: instruments are plain objects,
snapshots are plain JSON-able dicts, and nothing here touches the wall
clock (trace timestamps come from the simulated clock, see
:mod:`repro.telemetry.trace`).

Two write paths share one instrument namespace:

- **Bound handles** (:meth:`MetricsRegistry.bind_counter` and friends) —
  the hot path.  An instrumentation point resolves its label set once,
  at bind time (labels are canonicalized, and counter and histogram
  handles are interned per series, so re-binding is one dict hit);
  every subsequent ``handle.inc()`` is a plain attribute increment on
  the underlying instrument.  The instrument itself materializes on the
  *first write*, not at bind time, so a site that binds but never fires
  leaves no zero-valued series behind — snapshots stay identical to the
  kwarg path's.
- **Kwarg calls** (:meth:`MetricsRegistry.inc` / ``set`` / ``observe``)
  — the compatible slow path for cold or dynamic-label sites.  Repeated
  calls from the same site are served from an intern cache keyed by the
  labels *in call order*, so the canonicalizing sort runs once per
  distinct call shape, and ``inc(n, ue="a", bearer=1)`` and
  ``inc(n, bearer=1, ue="a")`` always land on the same series.

The performance contract lives one level up: when no telemetry session
is active, instrumented components hold ``None`` and never call into
this module (see :mod:`repro.telemetry`), so the no-sink fast path is a
single ``is not None`` check.

>>> registry = MetricsRegistry()
>>> registry.inc("bytes_counted", 1500, layer="gateway", direction="downlink")
>>> registry.value("bytes_counted", layer="gateway", direction="downlink")
1500
>>> handle = registry.bind_counter(
...     "bytes_counted", layer="gateway", direction="downlink"
... )
>>> handle.inc(500)
>>> registry.value("bytes_counted", direction="downlink", layer="gateway")
2000
"""

from __future__ import annotations

import math
from typing import Any, Iterator

Labels = tuple[tuple[str, Any], ...]


def _labels_key(labels: dict[str, Any]) -> Labels:
    """Canonical (sorted) tuple form of a label dict."""
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (bytes, packets, events)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments are non-negative: {amount}")
        self.value += amount


class Gauge:
    """A value that can move both ways (buffer depth, settled volume)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest observation."""
        self.value = value

    def add(self, delta: float) -> None:
        """Move the gauge by ``delta`` (either sign)."""
        self.value += delta


class Histogram:
    """A power-of-two bucketed distribution of observed values.

    Buckets are ``value <= 2**i`` for ``i`` in a fixed range, which is
    plenty for the quantities we histogram (packet sizes, CDR interval
    volumes, negotiation rounds) without any configuration surface.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "buckets")

    #: Upper bucket exponent: values above 2**30 land in the overflow.
    MAX_EXP = 30

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (self.MAX_EXP + 2)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0:
            index = 0
        else:
            index = min(self.MAX_EXP + 1, max(0, math.ceil(math.log2(value))))
        self.buckets[index] += 1

    @property
    def mean(self) -> float:
        """Average of all samples (0.0 before the first)."""
        return self.total / self.count if self.count else 0.0


Instrument = Counter | Gauge | Histogram

_KIND_FACTORY = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class BoundCounter:
    """A site-resolved counter handle: labels canonicalized at bind time.

    The underlying :class:`Counter` materializes in the registry on the
    first :meth:`inc`, keeping snapshots free of never-fired series.
    """

    __slots__ = ("_registry", "_name", "_labels", "_counter")

    def __init__(
        self, registry: "MetricsRegistry", name: str, labels: Labels
    ) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._counter: Counter | None = None

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (non-negative) to the bound counter."""
        counter = self._counter
        if counter is None:
            counter = self._counter = self._registry._materialize(
                "counter", self._name, self._labels
            )  # type: ignore[assignment]
        if amount < 0:
            raise ValueError(f"counter increments are non-negative: {amount}")
        counter.value += amount


class BoundGauge:
    """A site-resolved gauge handle (see :class:`BoundCounter`)."""

    __slots__ = ("_registry", "_name", "_labels", "_gauge")

    def __init__(
        self, registry: "MetricsRegistry", name: str, labels: Labels
    ) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._gauge: Gauge | None = None

    def _resolve(self) -> Gauge:
        gauge = self._gauge
        if gauge is None:
            gauge = self._gauge = self._registry._materialize(
                "gauge", self._name, self._labels
            )  # type: ignore[assignment]
        return gauge

    def set(self, value: float) -> None:
        """Overwrite the bound gauge with the latest observation."""
        self._resolve().value = value

    def add(self, delta: float) -> None:
        """Move the bound gauge by ``delta`` (either sign)."""
        self._resolve().value += delta


class BoundHistogram:
    """A site-resolved histogram handle (see :class:`BoundCounter`)."""

    __slots__ = ("_registry", "_name", "_labels", "_histogram")

    def __init__(
        self, registry: "MetricsRegistry", name: str, labels: Labels
    ) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._histogram: Histogram | None = None

    def observe(self, value: float) -> None:
        """Record one sample on the bound histogram."""
        histogram = self._histogram
        if histogram is None:
            histogram = self._histogram = self._registry._materialize(
                "histogram", self._name, self._labels
            )  # type: ignore[assignment]
        histogram.observe(value)


class RunAccumulator:
    """A burst accumulator feeding one bound counter.

    High-frequency packet elements add contiguous same-outcome byte
    runs here with two plain attribute increments per packet
    (``acc.bytes += size; acc.packets += 1``) and fold the run into the
    bound counter on :meth:`flush` — one counter update per run instead
    of one per packet.  Sums of non-negative integers commute, so the
    flushed totals are exactly the per-packet totals, and a counter is
    only materialized when at least one packet actually crossed the
    site (``packets`` guards zero-byte runs), keeping snapshots
    identical to unaggregated instrumentation.
    """

    __slots__ = ("handle", "bytes", "packets")

    def __init__(self, handle: BoundCounter) -> None:
        self.handle = handle
        self.bytes = 0
        self.packets = 0

    def add(self, size: int) -> None:
        """Accumulate one packet (call sites may inline the two adds)."""
        self.bytes += size
        self.packets += 1

    def flush(self) -> None:
        """Fold the pending run into the bound counter and drain."""
        if self.packets:
            self.handle.inc(self.bytes)
            self.bytes = 0
            self.packets = 0


def flush_all(accumulators: Iterable[RunAccumulator]) -> None:
    """Flush a collection of accumulators (session flush callback)."""
    for accumulator in accumulators:
        accumulator.flush()


class MetricsRegistry:
    """Get-or-create store of instruments keyed by (name, labels).

    The registry is what a telemetry session hands to every counting
    point; its :meth:`snapshot` is what campaign results persist next to
    their cached values.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, str, Labels], Instrument] = {}
        # Intern cache for the kwarg path: call-order label tuples mapped
        # to their (sort-canonicalized) instrument, so the sorting cost
        # is paid once per distinct call shape, not per call.
        self._interned: dict[tuple[str, str, Labels], Instrument] = {}
        # Intern cache for bound counter/histogram handles, keyed by
        # both the call-order and the canonical label tuple: re-binding
        # a series is one dict hit and yields the same handle.
        self._bound: dict[tuple[str, str, Labels], Any] = {}
        # Per-series gauge sums of the units closed by retire_gauges().
        self._retired_gauges: dict[tuple[str, str, Labels], int | float] = {}

    # -- instrument accessors ------------------------------------------

    def _materialize(self, kind: str, name: str, labels: Labels) -> Instrument:
        """Get-or-create the instrument for already-canonical labels."""
        key = (kind, name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = _KIND_FACTORY[kind](name, labels)
            self._instruments[key] = instrument
        return instrument

    def _get(self, kind: str, name: str, labels: dict[str, Any]) -> Instrument:
        key = (kind, name, tuple(labels.items()))
        instrument = self._interned.get(key)
        if instrument is None:
            instrument = self._materialize(kind, name, _labels_key(labels))
            self._interned[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for (name, labels), created on first use."""
        return self._get("counter", name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        return self._get("gauge", name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for (name, labels), created on first use."""
        return self._get("histogram", name, labels)  # type: ignore[return-value]

    # -- bound handles (the hot-path write API) ------------------------

    def _bind(self, kind: str, factory, name: str, labels: dict[str, Any]):
        """The interned handle of a series, keyed by call order first
        and by canonical labels on a miss."""
        key = (kind, name, tuple(labels.items()))
        handle = self._bound.get(key)
        if handle is None:
            canonical = (kind, name, _labels_key(labels))
            handle = self._bound.get(canonical)
            if handle is None:
                handle = self._bound[canonical] = factory(
                    self, name, canonical[2]
                )
            self._bound[key] = handle
        return handle

    def bind_counter(self, name: str, **labels: Any) -> BoundCounter:
        """The counter handle for (name, labels), interned per series.

        The first bind canonicalizes the labels; every later bind of
        the same series, in any kwarg order, is one dict hit returning
        the same handle, whose ``inc`` is a plain attribute increment.
        The series itself is created on the first increment, not at
        bind time.
        """
        return self._bind("counter", BoundCounter, name, labels)

    def bind_gauge(self, name: str, **labels: Any) -> BoundGauge:
        """A pre-resolved gauge handle for (name, labels).

        Not interned: a gauge handle caches its instrument, which
        :meth:`retire_gauges` replaces at every unit boundary.
        """
        return BoundGauge(self, name, _labels_key(labels))

    def bind_histogram(self, name: str, **labels: Any) -> BoundHistogram:
        """The histogram handle for (name, labels), interned per series
        (see :meth:`bind_counter`)."""
        return self._bind("histogram", BoundHistogram, name, labels)

    # -- units sharing one registry ------------------------------------

    def retire_gauges(self) -> None:
        """Close one unit of a registry shared by many (one UE of a
        population fold).

        Counters and histograms add up across units by themselves;
        a gauge is a per-unit reading, so each live gauge's value is
        added to its series' retired sum (the sum
        :class:`~repro.telemetry.merge.SnapshotAccumulator` would form
        from per-unit snapshots) and the gauge is dropped, so the next
        unit's writes start from a fresh instrument.
        """
        live = [key for key in self._instruments if key[0] == "gauge"]
        if not live:
            return
        retired = self._retired_gauges
        for key in live:
            gauge = self._instruments.pop(key)
            retired[key] = retired.get(key, 0) + gauge.value  # type: ignore[union-attr]
        self._interned = {
            key: inst
            for key, inst in self._interned.items()
            if key[0] != "gauge"
        }

    # -- convenience write paths ---------------------------------------

    def inc(self, name: str, amount: int | float = 1, **labels: Any) -> None:
        """Increment the counter for (name, labels)."""
        self.counter(name, **labels).inc(amount)

    def set(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge for (name, labels)."""
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record a histogram sample for (name, labels)."""
        self.histogram(name, **labels).observe(value)

    # -- read side ------------------------------------------------------

    def value(self, name: str, **labels: Any) -> int | float:
        """Current counter value (0 if never incremented)."""
        key = ("counter", name, _labels_key(labels))
        instrument = self._instruments.get(key)
        return instrument.value if instrument is not None else 0  # type: ignore[union-attr]

    def total(self, name: str, **label_filter: Any) -> int | float:
        """Sum of all counters named ``name`` matching the label filter.

        A filter key constrains that label to the given value; labels
        not named in the filter may take any value.
        """
        total: int | float = 0
        for counter in self.iter_counters(name, **label_filter):
            total += counter.value
        return total

    def iter_counters(
        self, name: str, **label_filter: Any
    ) -> Iterator[Counter]:
        """All counters named ``name`` whose labels match the filter."""
        wanted = label_filter.items()
        for (kind, iname, labels), instrument in self._instruments.items():
            if kind != "counter" or iname != name:
                continue
            have = dict(labels)
            if all(have.get(k) == v for k, v in wanted):
                yield instrument  # type: ignore[misc]

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """A plain-dict, JSON-able dump of every instrument.

        Gauges of retired units appear summed with any live gauge of
        the same series (see :meth:`retire_gauges`).
        """
        out: dict[str, list[dict[str, Any]]] = {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        retired = self._retired_gauges
        for key in sorted(self._instruments.keys() | retired.keys()):
            kind, name, labels = key
            inst = self._instruments.get(key)
            entry: dict[str, Any] = {"name": name, "labels": dict(labels)}
            if kind == "histogram":
                entry.update(
                    count=inst.count,  # type: ignore[union-attr]
                    total=inst.total,  # type: ignore[union-attr]
                    min=None if inst.count == 0 else inst.min,  # type: ignore[union-attr]
                    max=None if inst.count == 0 else inst.max,  # type: ignore[union-attr]
                    mean=inst.mean,  # type: ignore[union-attr]
                )
            elif inst is None:
                entry["value"] = retired[key]
            elif key in retired:
                entry["value"] = retired[key] + inst.value
            else:
                entry["value"] = inst.value
            out[kind + "s"].append(entry)
        return out
