"""Pytest entry for the perf harness.

``pytest benchmarks/perf`` times every workload, writes ``BENCH_perf.json``
at the repository root, and compares against the committed baseline in
``benchmarks/perf/baseline.json``.

The gate mode comes from the ``PERF_GATE`` environment variable:

- ``report`` (default) — print the comparison, never fail.  Timing on
  shared runners and laptops is noisy; local runs should inform, not
  block.
- ``enforce`` — fail the test when any workload's events/sec drops more
  than 20% below baseline (trusted CI runners on main).
- ``off`` — skip the comparison entirely (still writes the report).

``PERF_WORKLOADS`` (comma-separated) restricts the set, e.g. the CI
smoke job runs ``PERF_WORKLOADS=congestion,negotiation``.

``PERF_SCALING=1`` additionally runs the ``million_ue`` shard-count
scaling curve (grid from ``MILLION_UE_SCALING_UES`` /
``MILLION_UE_SHARDS``)
and records it in the report's ``scaling`` section.  Unlike the timing
gates, the scaling test's *correctness* half — merged accounting
reconciles and is byte-identical at every shard count — always
enforces: a broken merge is a wrong answer, not a slow one.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.perf.compare import (
    DEFAULT_MAX_REGRESSION,
    compare_reports,
)
from benchmarks.perf.harness import (
    BASELINE_PATH,
    load_report,
    paired_rate_ratio,
    run_harness,
    run_scaling,
    write_report,
)


#: Metered runs must stay within this factor of the unmetered hot path
#: (the ISSUE 5 tentpole bound: bound handles + burst aggregation).
TELEMETRY_OVERHEAD_BOUND = 1.5

#: The fluid fast path must push at least this many times the
#: ``congestion`` workload's simulated bytes per wall second.
FLUID_SPEEDUP_BOUND = 5.0

#: The analytic fast path must push at least this many times the
#: ``congestion`` workload's simulated bytes per wall second (the
#: ISSUE 8 tentpole bound: closed-form interval advancement).
ANALYTIC_SPEEDUP_BOUND = 20.0

#: The async charging service must attest at least this many Merkle
#: batch leaves per hour — one RSA signature per batch — while keeping
#: exact accounting reconciliation and batch-replay equivalence (the
#: ISSUE 9 tentpole bound: charging as a service).
SERVICE_CLAIMS_PER_HOUR_BOUND = 1_000_000.0

#: The work-stealing scheduler must run the skewed heterogeneous cell
#: at the widest shard count at least this many times faster than one
#: worker — when the host actually has that many cores (the ISSUE 10
#: tentpole bound).  With fewer cores than shards the bound relaxes to
#: "strictly faster"; a single-core host cannot parallelize at all, so
#: there the test reports instead of gating.
STEAL_SPEEDUP_BOUND = 1.5


def _selected_workloads() -> list[str] | None:
    raw = os.environ.get("PERF_WORKLOADS", "").strip()
    if not raw:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


@pytest.fixture(scope="module")
def perf_report():
    """Time the workloads once for the whole module and persist."""
    repeats = int(os.environ.get("PERF_REPEATS", "3"))
    report = run_harness(_selected_workloads(), repeats=repeats)
    if os.environ.get("PERF_SCALING", "").strip() in ("1", "true", "yes"):
        report["scaling"] = run_scaling()
    path = write_report(report)
    print(f"\nwrote {path}")
    return report


def test_report_is_written_and_well_formed(perf_report):
    from benchmarks.perf.harness import REPORT_PATH

    persisted = load_report(REPORT_PATH)
    assert persisted["workloads"].keys() == perf_report["workloads"].keys()
    for name, row in persisted["workloads"].items():
        assert row["wall_s"] > 0, name
        assert row["events"] > 0, name
        assert row["events_per_sec"] > 0, name


def test_no_regression_against_baseline(perf_report):
    mode = os.environ.get("PERF_GATE", "report").lower()
    if mode == "off":
        pytest.skip("PERF_GATE=off")
    if not BASELINE_PATH.exists():
        pytest.skip(f"no committed baseline at {BASELINE_PATH}")
    baseline = load_report(BASELINE_PATH)
    rows, regressions = compare_reports(
        perf_report, baseline, DEFAULT_MAX_REGRESSION
    )
    print()
    for row in rows:
        print(row)
    if regressions and mode == "enforce":
        pytest.fail("; ".join(regressions))
    elif regressions:
        print("PERF_GATE=report: regressions reported, not enforced:")
        for message in regressions:
            print(f"  {message}")


def test_fluid_mode_speedup(perf_report):
    """``fluid_congestion`` sustains >= 5x ``congestion`` bytes/sec.

    Bytes-per-wall-second, not events/sec: both workloads simulate a
    congested cycle, but fluid advancement moves the same bytes through
    ~10x fewer events, so the byte rate is the mode-independent
    throughput measure.  The ratio is the median of per-round rate
    ratios (:func:`paired_rate_ratio`): both workloads are timed back
    to back every round, so machine speed — and burst interference on
    shared runners — cancels out.  Honors ``PERF_GATE``.
    """
    mode = os.environ.get("PERF_GATE", "report").lower()
    if mode == "off":
        pytest.skip("PERF_GATE=off")
    rows = perf_report["workloads"]
    if "congestion" not in rows or "fluid_congestion" not in rows:
        pytest.skip(
            "needs congestion and fluid_congestion in PERF_WORKLOADS"
        )
    packet_rate = rows["congestion"]["bytes_per_sec"]
    fluid_rate = rows["fluid_congestion"]["bytes_per_sec"]
    assert packet_rate > 0
    ratio = paired_rate_ratio(
        rows["fluid_congestion"], rows["congestion"], field="bytes"
    )
    print(
        f"\nfluid_congestion: {fluid_rate / 1e6:,.1f} MB/s vs "
        f"congestion {packet_rate / 1e6:,.1f} MB/s "
        f"(paired {ratio:.2f}x, bound {FLUID_SPEEDUP_BOUND:.1f}x)"
    )
    if ratio < FLUID_SPEEDUP_BOUND:
        message = (
            f"fluid_congestion is only {ratio:.2f}x of congestion "
            f"(required {FLUID_SPEEDUP_BOUND:.1f}x)"
        )
        if mode == "enforce":
            pytest.fail(message)
        print(f"PERF_GATE=report: {message}")


def test_analytic_mode_speedup(perf_report):
    """``analytic_congestion`` sustains >= 20x ``congestion`` bytes/sec.

    The same paired bytes-per-wall-second comparison as the fluid gate,
    with the tentpole bound: closed-form interval advancement settles a
    whole stable interval per layer in O(1), so the congested VR cycle
    must clear at least 20x the packet-mode byte rate.  Honors
    ``PERF_GATE``.
    """
    mode = os.environ.get("PERF_GATE", "report").lower()
    if mode == "off":
        pytest.skip("PERF_GATE=off")
    rows = perf_report["workloads"]
    if "congestion" not in rows or "analytic_congestion" not in rows:
        pytest.skip(
            "needs congestion and analytic_congestion in PERF_WORKLOADS"
        )
    packet_rate = rows["congestion"]["bytes_per_sec"]
    analytic_rate = rows["analytic_congestion"]["bytes_per_sec"]
    assert packet_rate > 0
    ratio = paired_rate_ratio(
        rows["analytic_congestion"], rows["congestion"], field="bytes"
    )
    print(
        f"\nanalytic_congestion: {analytic_rate / 1e6:,.1f} MB/s vs "
        f"congestion {packet_rate / 1e6:,.1f} MB/s "
        f"(paired {ratio:.2f}x, bound {ANALYTIC_SPEEDUP_BOUND:.1f}x)"
    )
    if ratio < ANALYTIC_SPEEDUP_BOUND:
        message = (
            f"analytic_congestion is only {ratio:.2f}x of congestion "
            f"(required {ANALYTIC_SPEEDUP_BOUND:.1f}x)"
        )
        if mode == "enforce":
            pytest.fail(message)
        print(f"PERF_GATE=report: {message}")


def test_telemetry_overhead_within_bound(perf_report):
    """Metered workloads run within 1.5x of the unmetered fast path.

    Compares events/sec of ``telemetry_on`` (and, when measured,
    ``telemetry_on_traced``) against ``telemetry_off`` from the same
    harness run — the median of per-round ratios, so machine speed and
    burst interference cancel out.  Honors ``PERF_GATE`` like the
    baseline comparison: ``report`` prints, ``enforce`` fails.
    """
    mode = os.environ.get("PERF_GATE", "report").lower()
    if mode == "off":
        pytest.skip("PERF_GATE=off")
    rows = perf_report["workloads"]
    if "telemetry_off" not in rows or "telemetry_on" not in rows:
        pytest.skip(
            "needs telemetry_off and telemetry_on in PERF_WORKLOADS"
        )
    violations = []
    print()
    for name in ("telemetry_on", "telemetry_on_traced"):
        if name not in rows:
            continue
        ratio = paired_rate_ratio(
            rows["telemetry_off"], rows[name], field="events"
        )
        print(
            f"{name}: {rows[name]['events_per_sec']:,.0f} events/s, "
            f"{ratio:.2f}x of telemetry_off "
            f"(bound {TELEMETRY_OVERHEAD_BOUND:.1f}x)"
        )
        if ratio > TELEMETRY_OVERHEAD_BOUND:
            violations.append(f"{name} is {ratio:.2f}x of telemetry_off")
    if violations and mode == "enforce":
        pytest.fail("; ".join(violations))
    elif violations:
        print("PERF_GATE=report: overhead reported, not enforced:")
        for message in violations:
            print(f"  {message}")


def test_service_claim_throughput(perf_report):
    """``service_throughput`` sustains >= 1M attested claims/hr.

    The workload's ``events`` are attested Merkle-batch leaves, so
    ``events_per_sec * 3600`` is claims per hour.  The workload itself
    already asserted the correctness half (exact reconciliation, batch
    equivalence, one sign op per batch) — failing those raises inside
    the harness regardless of gate mode.  The throughput half honors
    ``PERF_GATE`` like the other rate gates.
    """
    mode = os.environ.get("PERF_GATE", "report").lower()
    if mode == "off":
        pytest.skip("PERF_GATE=off")
    rows = perf_report["workloads"]
    if "service_throughput" not in rows:
        pytest.skip("needs service_throughput in PERF_WORKLOADS")
    claims_per_hr = rows["service_throughput"]["events_per_sec"] * 3600.0
    print(
        f"\nservice_throughput: {claims_per_hr:,.0f} attested claims/hr "
        f"(bound {SERVICE_CLAIMS_PER_HOUR_BOUND:,.0f}/hr)"
    )
    if claims_per_hr < SERVICE_CLAIMS_PER_HOUR_BOUND:
        message = (
            f"service_throughput sustains only {claims_per_hr:,.0f} "
            f"claims/hr (required "
            f"{SERVICE_CLAIMS_PER_HOUR_BOUND:,.0f}/hr)"
        )
        if mode == "enforce":
            pytest.fail(message)
        print(f"PERF_GATE=report: {message}")


def test_work_stealing_speedup(perf_report):
    """Adding workers makes the skewed cell *faster*, not slower.

    Reads the scaling section (``PERF_SCALING`` runs): the widest
    shard count's wall clock against the one-worker wall clock on the
    same warm work-stealing pool.  The bound adapts to the host: with
    at least as many CPUs as shards the full
    :data:`STEAL_SPEEDUP_BOUND` enforces; with fewer CPUs (but more
    than one) the widest point must merely be strictly faster than one
    worker; a single-CPU host cannot parallelize anything, so the test
    prints the measured curve and enforces nothing.  Honors
    ``PERF_GATE``.
    """
    mode = os.environ.get("PERF_GATE", "report").lower()
    scaling = perf_report.get("scaling")
    if scaling is None:
        pytest.skip("PERF_SCALING not set")
    points = [p for p in scaling["points"] if not p.get("mode")]
    if len(points) < 2:
        pytest.skip("needs at least two shard counts in the grid")
    narrow = min(points, key=lambda p: p["shards"])
    widest = max(points, key=lambda p: p["shards"])
    assert widest["wall_s"] > 0
    ratio = narrow["wall_s"] / widest["wall_s"]
    cpus = os.cpu_count() or 1
    bound = STEAL_SPEEDUP_BOUND if cpus >= widest["shards"] else 1.0
    print(
        f"\nwork-stealing: shards={narrow['shards']} "
        f"{narrow['wall_s']:.2f} s -> shards={widest['shards']} "
        f"{widest['wall_s']:.2f} s = {ratio:.2f}x speedup "
        f"(bound {bound:.2f}x, host has {cpus} CPUs)"
    )
    if cpus < 2:
        print(
            "single-CPU host: parallel speedup is not measurable here; "
            "reporting only"
        )
        return
    if mode == "off":
        pytest.skip("PERF_GATE=off")
    if ratio < bound:
        message = (
            f"work-stealing at shards={widest['shards']} is only "
            f"{ratio:.2f}x of shards={narrow['shards']} "
            f"(required {bound:.2f}x on a {cpus}-CPU host)"
        )
        if mode == "enforce":
            pytest.fail(message)
        print(f"PERF_GATE=report: {message}")


def test_million_ue_scaling_curve(perf_report):
    """The sharded population cell: exact at every shard count.

    Runs only when ``PERF_SCALING`` is set (CI's ``shard-smoke`` job;
    full-scale BENCH regenerations).  The correctness half enforces
    regardless of ``PERF_GATE``: every point must reconcile its merged
    byte accounting (``counted − Σ losses == received``) and match the
    first point's merged charging state and Algorithm 1 settlement
    byte for byte — shard count must never change an answer.
    """
    scaling = perf_report.get("scaling")
    if scaling is None:
        pytest.skip("PERF_SCALING not set")
    print(f"\nmillion_ue: {scaling['n_ues']:,} UEs per grid point")
    for point in scaling["points"]:
        n_ues = point.get("n_ues", scaling["n_ues"])
        tag = f" [{point['mode']}]" if point.get("mode") else ""
        print(
            f"  shards={point['shards']:>2} ues={n_ues:>9,}: "
            f"{point['wall_s']:8.2f} s  "
            f"{point.get('per_ue_ms', 0.0):8.3f} ms/UE  "
            f"{point['events_per_sec']:>12,.0f} events/s  "
            f"peak RSS {point['rss_max_bytes'] / 1e6:7.1f} MB"
            f"{tag}"
        )
        assert point["events"] > 0
        assert point["reconciles"], (
            f"merged accounting does not reconcile at "
            f"shards={point['shards']}"
        )
        assert point["matches_first"], (
            f"merged state diverges from the 1st point at "
            f"shards={point['shards']}: shard count changed the answer"
        )
    assert scaling["invariant"]
