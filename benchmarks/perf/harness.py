"""Timing driver: run the perf workloads and emit ``BENCH_perf.json``.

The report schema (version 5)::

    {
      "version": 5,
      "workloads": {
        "<name>": {
          "wall_s": <median-repetition wall clock, seconds>,
          "events": <work units in one execution>,
          "events_per_sec": <events / wall_s>,
          "bytes": <simulated app bytes in one execution>,
          "bytes_per_sec": <bytes / wall_s>,
          "repeats": <repetitions timed>,
          "timings_s": [<per-round wall clocks, in round order>]
        },
        ...
      },
      "scaling": {              # optional: --scaling / run_scaling()
        "workload": "million_ue_hetero",
        "n_ues": <population size of the worker-count grid>,
        "chunk_ues": <pinned chunk size, or null for auto-sized>,
        "cpu_count": <os.cpu_count() of the measuring host>,
        "points": [             # one per worker count, same seed
          {"shards": N, "n_ues": ..., "chunk_ues": ...,
           "wall_s": ..., "cpu_s": <summed worker CPU seconds>,
           "events": ..., "events_per_sec": ..., "bytes": ...,
           "bytes_per_sec": ...,
           "per_ue_ms": <wall_s ÷ n_ues, in ms>,
           "cpu_per_ue_ms": <cpu_s ÷ n_ues, in ms>,
           "rss_max_bytes": <peak worker RSS>,
           "reconciles": true, "settled": <Algorithm 1 bytes>,
           "matches_first": true},
          ...,
          # with MILLION_UE_HEADLINE=<n>: one analytic-mode point at
          # that population, shards=1, tagged "mode": "analytic"
        ],
        "invariant": <all points reconcile and match their curve's
                      first point>
      }
    }

Version 3 added the optional ``scaling`` section: a population cell
measured at several worker counts through
:func:`repro.experiments.sharding.scaling_curve`.  ``invariant`` is the
merge contract — every worker count must produce the byte-identical
merged accounting table and Algorithm 1 settlement — so a report with
``"invariant": false`` is a correctness failure, not a perf number.

Version 4 added per-point ``n_ues`` and the optional **headline
point**: setting ``MILLION_UE_HEADLINE=<n_ues>`` appends one
analytic-mode population run at that size on a single shard — the
paper-scale million-UE measurement (``MILLION_UE_HEADLINE=1000000``).
The headline point must still reconcile exactly; it is its own curve,
so ``matches_first`` is trivially true and ``invariant`` still means
"every curve is internally consistent".

Version 5 splits per-UE cost in two.  ``per_ue_ms`` is **wall ÷ UEs**,
what the operator waits per UE (v4's ``per_ue_ms`` was wall × shards
÷ UEs).  ``cpu_per_ue_ms`` is ``cpu_s`` ÷ UEs, where ``cpu_s`` sums
each fold's ``time.process_time()`` delta over every shard or chunk.
The section also records ``chunk_ues`` and the host's ``cpu_count``:
on a one-core host the wall ratios measure scheduler overhead, not
speedup.  (Reports before the one-pool refactor also carry a
``schedule`` field; the work-stealing pool is now the only one.)

``wall_s`` is the **median** of ``repeats`` executions after one
untimed warmup.  The warmup absorbs one-time costs (imports, allocator
growth, cached key material) that used to land in whichever repetition
ran first; the median is robust to a single interference spike in
either direction, where the previous best-of-N systematically rewarded
the one lucky repetition and the mean let one descheduled run poison
the number.  Version 2 also records simulated bytes, so fluid-vs-packet
workloads (which process the same bytes through different event counts)
compare on bytes-per-wall-second instead of the mode-dependent
events/sec.

:func:`run_harness` times repetitions **round-robin** across the
selected workloads (A B C, A B C, ...) rather than exhausting one
workload before starting the next.  Consecutive repeats made every
ratio gate (telemetry overhead, fluid speedup) sensitive to load
*drift*: a spike during one workload's window skewed its median while
leaving its comparator untouched.  Interleaving spreads each
workload's sample across the whole harness run, so paired medians see
the same machine conditions and their ratio tracks the structural
difference, not the scheduler's mood.

The per-round wall clocks are preserved in ``timings_s`` (round order,
so index *i* of two workloads came from the same round).  Ratio gates
use them to take the **median of per-round ratios**: on virtualized
runners, host CPU steal arrives in multi-ms bursts that can poison
more than half the repeats of one workload; a per-round ratio pairs
measurements taken milliseconds apart, so a stolen round inflates both
sides together and the ratio stays near the structural value.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping

from benchmarks.perf.workloads import WORKLOADS, WorkloadSample

REPORT_VERSION = 5

#: Older reports the loader still accepts (v2 lacks the scaling
#: section, v3 lacks per-point ``per_ue_ms``/``n_ues``, v4 lacks the
#: schedule/``cpu_per_ue_ms`` split — and v4's ``per_ue_ms`` meant
#: summed per-core compute, not wall, so cross-version per-UE
#: comparisons are apples-to-oranges — but all are otherwise
#: schema-compatible, so a committed older baseline keeps gating
#: until regenerated).
COMPATIBLE_VERSIONS = (2, 3, 4, 5)

#: The canonical report location: the repository root.
REPORT_PATH = Path(__file__).resolve().parents[2] / "BENCH_perf.json"

#: The committed baseline the CI gate compares against.
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def time_workload(
    fn: Callable[[], WorkloadSample], repeats: int = 3
) -> dict:
    """Median-of-``repeats`` wall clock after one untimed warmup."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats}")
    sample = fn()  # warmup: one-time costs never pollute a timed run
    timings = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sample = fn()
        timings.append(time.perf_counter() - t0)
    wall = statistics.median(timings)
    return {
        "wall_s": wall,
        "events": sample.events,
        "events_per_sec": sample.events / wall if wall > 0 else 0.0,
        "bytes": sample.bytes,
        "bytes_per_sec": sample.bytes / wall if wall > 0 else 0.0,
        "repeats": repeats,
    }


def run_harness(
    names: Iterable[str] | None = None, repeats: int = 3
) -> dict:
    """Time the selected workloads (all by default).

    Repetitions are interleaved round-robin across workloads (see the
    module docstring) so paired medians sample the same load windows.
    """
    selected = list(names) if names is not None else sorted(WORKLOADS)
    unknown = [n for n in selected if n not in WORKLOADS]
    if unknown:
        raise KeyError(
            f"unknown workloads {unknown}; available: {sorted(WORKLOADS)}"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats}")
    samples: dict[str, WorkloadSample] = {}
    timings: dict[str, list[float]] = {name: [] for name in selected}
    for name in selected:  # warmup pass, untimed
        samples[name] = WORKLOADS[name]()
    for _ in range(repeats):
        for name in selected:
            fn = WORKLOADS[name]
            t0 = time.perf_counter()
            samples[name] = fn()
            timings[name].append(time.perf_counter() - t0)
    report = {"version": REPORT_VERSION, "workloads": {}}
    for name in selected:
        wall = statistics.median(timings[name])
        sample = samples[name]
        report["workloads"][name] = {
            "wall_s": wall,
            "events": sample.events,
            "events_per_sec": sample.events / wall if wall > 0 else 0.0,
            "bytes": sample.bytes,
            "bytes_per_sec": sample.bytes / wall if wall > 0 else 0.0,
            "repeats": repeats,
            "timings_s": timings[name],
        }
    return report


def paired_rate_ratio(
    num_row: Mapping, den_row: Mapping, field: str = "bytes"
) -> float:
    """Rate ratio ``num/den`` as the median of per-round ratios.

    Each round times both workloads back to back, so dividing their
    per-round rates cancels whatever the machine was doing during that
    round (host CPU steal on virtualized runners arrives in bursts long
    enough to poison an unpaired median).  Falls back to the ratio of
    the aggregate ``<field>_per_sec`` rates when either row lacks
    per-round walls or the round counts differ (reports written by an
    older harness).
    """
    num_walls = num_row.get("timings_s")
    den_walls = den_row.get("timings_s")
    if not num_walls or not den_walls or len(num_walls) != len(den_walls):
        return num_row[f"{field}_per_sec"] / den_row[f"{field}_per_sec"]
    scale = num_row[field] / den_row[field]
    return statistics.median(
        scale * dt / nt for nt, dt in zip(num_walls, den_walls)
    )


#: Default grid of the scaling section: population size and shard
#: counts, overridable via the environment (CI's ``shard-smoke`` job
#: runs a reduced grid; the committed BENCH_perf.json records a
#: campaign-scale one).
DEFAULT_SCALING_UES = 2000
DEFAULT_SCALING_SHARDS = (1, 2, 4, 8)


def run_scaling(
    ues: int | None = None,
    shard_counts: Iterable[int] | None = None,
    headline_ues: int | None = None,
    chunk_ues: int | None = None,
) -> dict:
    """Measure the ``million_ue`` cell across shard counts.

    Each point re-runs the same population (same seed) through
    :func:`repro.experiments.scheduler.run_stealing_scenario` on one
    shared warm work-stealing pool, on a **skewed heterogeneous**
    population (the load shape stealing exists for) — recording wall clock, summed worker CPU time
    (``cpu_s``), event/byte rates, peak worker RSS, the merged
    accounting identity, and whether the merged state is
    byte-identical to the first point's (``matches_first`` — the
    shard-count invariance, which must hold across chunk sizes too).
    ``MILLION_UE_SCALING_UES`` / ``MILLION_UE_SHARDS`` /
    ``MILLION_UE_CHUNK_UES`` override the grid (distinct from
    ``MILLION_UE_UES``, which sizes the small timed ``million_ue``
    workload of the regression gate).  The section records
    ``cpu_count`` so a reader can tell real parallel speedup from the
    time-slicing a one-core runner necessarily shows.

    ``MILLION_UE_HEADLINE=<n_ues>`` (``headline_ues`` here) appends
    the paper-scale point: the same cell at that population under
    ``mode="analytic"`` on a single shard.  It forms its own one-point
    curve — closed-form advancement produces statistically equivalent
    (not byte-identical) totals, so comparing it against the fluid
    grid's reference would be a category error — but it must still
    reconcile exactly, and its flat ``per_ue_ms`` / worker RSS are
    what make the million-UE headline honest.
    """
    from dataclasses import replace

    from benchmarks.perf.workloads import (
        million_ue_config,
        million_ue_hetero_config,
    )
    from repro.experiments.sharding import scaling_curve

    if ues is None:
        ues = int(
            os.environ.get("MILLION_UE_SCALING_UES", DEFAULT_SCALING_UES)
        )
    if shard_counts is None:
        raw = os.environ.get("MILLION_UE_SHARDS")
        shard_counts = (
            tuple(int(part) for part in raw.split(",") if part)
            if raw
            else DEFAULT_SCALING_SHARDS
        )
    if headline_ues is None:
        headline_ues = int(os.environ.get("MILLION_UE_HEADLINE", "0"))
    if chunk_ues is None:
        raw = os.environ.get("MILLION_UE_CHUNK_UES")
        chunk_ues = int(raw) if raw else None
    config = million_ue_hetero_config(ues)
    points = scaling_curve(config, shard_counts, chunk_ues=chunk_ues)
    rows = [point.as_dict() for point in points]
    invariant = all(
        point.matches_first and point.reconciles for point in points
    )
    if headline_ues:
        headline_config = replace(
            million_ue_config(headline_ues), mode="analytic"
        )
        headline = scaling_curve(headline_config, (1,))[0]
        row = headline.as_dict()
        row["mode"] = "analytic"
        rows.append(row)
        invariant = invariant and headline.reconciles
    return {
        "workload": "million_ue_hetero",
        "n_ues": ues,
        "chunk_ues": chunk_ues,
        "cpu_count": os.cpu_count(),
        "points": rows,
        "invariant": invariant,
    }


def write_report(report: Mapping, path: Path | None = None) -> Path:
    """Persist a harness report as pretty JSON; returns the path."""
    target = Path(path) if path is not None else REPORT_PATH
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


def load_report(path: Path) -> dict:
    """Read a harness report, validating the schema version."""
    data = json.loads(Path(path).read_text())
    if data.get("version") not in COMPATIBLE_VERSIONS:
        raise ValueError(
            f"unsupported report version {data.get('version')!r} in {path}"
        )
    if "workloads" not in data:
        raise ValueError(f"no workloads section in {path}")
    return data


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m benchmarks.perf.harness [workload ...]``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="*", help="subset to run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", default=None, help=f"report path (default {REPORT_PATH})"
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="also run the million_ue shard-count scaling curve "
        "(MILLION_UE_SCALING_UES / MILLION_UE_SHARDS set the grid)",
    )
    args = parser.parse_args(argv)
    report = run_harness(args.workloads or None, repeats=args.repeats)
    if args.scaling:
        report["scaling"] = run_scaling()
    path = write_report(report, args.out)
    for name, row in sorted(report["workloads"].items()):
        print(
            f"{name:>14}: {row['wall_s'] * 1e3:8.1f} ms  "
            f"{row['events_per_sec']:>12,.0f} events/s"
        )
    scaling = report.get("scaling")
    if scaling:
        print(f"scaling ({scaling['n_ues']:,} UEs per grid point):")
        for point in scaling["points"]:
            n_ues = point.get("n_ues", scaling["n_ues"])
            mode = point.get("mode")
            tag = f" [{mode}]" if mode else ""
            per_ue = point.get("per_ue_ms")
            per_ue_col = (
                f"{per_ue:8.3f} ms/UE  " if per_ue is not None else ""
            )
            print(
                f"  shards={point['shards']:>2} "
                f"ues={n_ues:>9,}: "
                f"{point['wall_s']:8.2f} s  "
                f"{per_ue_col}"
                f"{point['events_per_sec']:>12,.0f} events/s  "
                f"peak RSS {point['rss_max_bytes'] / 1e6:7.1f} MB"
                f"{tag}"
            )
        print(
            "  merge invariant: "
            + ("holds" if scaling["invariant"] else "VIOLATED")
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
