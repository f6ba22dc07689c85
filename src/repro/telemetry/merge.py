"""Merging metric snapshots across shards: the telemetry monoid.

A sharded population run (see :mod:`repro.experiments.sharding`) slices
one scenario's UE population into sub-simulations whose telemetry must
recombine into the view a single simulation of the whole population
would have produced.  That recombination is a **commutative monoid**
over the plain-dict snapshots :meth:`repro.telemetry.metrics.MetricsRegistry.snapshot`
emits:

- **counters** — summed per ``(name, labels)`` series.  Byte counters
  are integers end to end, so sums are exact, associative, and
  order-independent; the merged accounting identity
  ``counted − Σ losses_by_layer == received`` follows from the per-UE
  identities by plain addition.
- **gauges** — summed per series.  Every gauge in this codebase is an
  additive byte quantity (e.g. ``settled_volume``), so the population
  total is the meaningful merged reading.
- **histograms** — ``count`` and ``total`` sum; ``min``/``max`` take
  the extremes; ``mean`` is recomputed from the merged count/total
  (never averaged from per-shard means).

The identity element is the empty snapshot
(:func:`empty_snapshot` / a fresh :class:`SnapshotAccumulator`), and
output series are emitted in a canonical sort order, so
``merge(merge(a, b), c)``, ``merge(a, merge(b, c))``, and any input
permutation produce byte-identical snapshots for integer-valued series
— the property :mod:`tests.telemetry.test_merge` locks down.

:class:`SnapshotAccumulator` is the streaming form, folding one
snapshot at a time.  Within one fold the UEs do not snapshot at all:
they share one session, closed per UE by
:meth:`repro.telemetry.Telemetry.end_unit`, whose registry snapshot is
exactly this monoid's merge of per-UE snapshots (gauges included), so
shard memory stays bounded by one live scenario plus one session's
series regardless of population size.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

#: A canonical series key: (name, sorted (label, value) tuple).
_SeriesKey = tuple[str, tuple[tuple[str, Any], ...]]


def _series_key(entry: Mapping[str, Any]) -> _SeriesKey:
    return (entry["name"], tuple(sorted(entry.get("labels", {}).items())))


def empty_snapshot() -> dict[str, list[dict[str, Any]]]:
    """The monoid identity: a snapshot with no series at all."""
    return {"counters": [], "gauges": [], "histograms": []}


class SnapshotAccumulator:
    """Fold metric snapshots one at a time; read the merged snapshot out.

    >>> acc = SnapshotAccumulator()
    >>> acc.add({"counters": [
    ...     {"name": "bytes_counted", "labels": {"layer": "gateway"},
    ...      "value": 100}], "gauges": [], "histograms": []})
    >>> acc.add({"counters": [
    ...     {"name": "bytes_counted", "labels": {"layer": "gateway"},
    ...      "value": 50}], "gauges": [], "histograms": []})
    >>> acc.snapshot()["counters"]
    [{'name': 'bytes_counted', 'labels': {'layer': 'gateway'}, 'value': 150}]
    """

    def __init__(self) -> None:
        self._counters: dict[_SeriesKey, int | float] = {}
        self._gauges: dict[_SeriesKey, int | float] = {}
        self._histograms: dict[_SeriesKey, dict[str, Any]] = {}
        self._folded = 0

    @property
    def folded(self) -> int:
        """How many snapshots have been folded in so far."""
        return self._folded

    def add(self, snapshot: Mapping[str, Any]) -> None:
        """Fold one snapshot into the accumulator."""
        for entry in snapshot.get("counters", ()):
            key = _series_key(entry)
            self._counters[key] = (
                self._counters.get(key, 0) + entry["value"]
            )
        for entry in snapshot.get("gauges", ()):
            key = _series_key(entry)
            self._gauges[key] = self._gauges.get(key, 0) + entry["value"]
        for entry in snapshot.get("histograms", ()):
            key = _series_key(entry)
            merged = self._histograms.get(key)
            if merged is None:
                merged = self._histograms[key] = {
                    "count": 0, "total": 0.0, "min": None, "max": None,
                }
            count = entry["count"]
            merged["count"] += count
            merged["total"] += entry["total"]
            if count:
                if merged["min"] is None or entry["min"] < merged["min"]:
                    merged["min"] = entry["min"]
                if merged["max"] is None or entry["max"] > merged["max"]:
                    merged["max"] = entry["max"]
        self._folded += 1

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """The merged snapshot, series in canonical sort order."""
        out = empty_snapshot()
        for key, value in sorted(self._counters.items()):
            out["counters"].append(
                {"name": key[0], "labels": dict(key[1]), "value": value}
            )
        for key, value in sorted(self._gauges.items()):
            out["gauges"].append(
                {"name": key[0], "labels": dict(key[1]), "value": value}
            )
        for key, stats in sorted(self._histograms.items()):
            count = stats["count"]
            out["histograms"].append(
                {
                    "name": key[0],
                    "labels": dict(key[1]),
                    "count": count,
                    "total": stats["total"],
                    "min": stats["min"],
                    "max": stats["max"],
                    "mean": stats["total"] / count if count else 0.0,
                }
            )
        return out


def merge_snapshots(
    snapshots: Iterable[Mapping[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Merge metric snapshots into one (the n-ary monoid operation).

    Accepts any iterable; an empty one yields the identity snapshot.
    """
    acc = SnapshotAccumulator()
    for snapshot in snapshots:
        acc.add(snapshot)
    return acc.snapshot()
