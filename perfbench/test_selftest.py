"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

- a smoke-size run of every workload prints every metric that
  ``BENCHMARK.json`` names, with its unit, traced and untraced;
- a corrupted expectation (table digest, settled bytes) fails the run,
  traced and untraced;
- the open-loop generator times latency from each action's due time, so
  a stalled loop shows up as latency rather than vanishing.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)


def bench(*args: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         *args],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    code, result = bench("--workload", workload, "--trace", trace,
                         "--seed", "3")
    assert code == 0 and result["correct"], result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_spec_matches_benchmark_json():
    from perfbench.tracing import PER_LAYER

    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        PER_LAYER
    )


@pytest.mark.parametrize(
    "workload, key",
    [
        ("figures", "transport"),
        ("population_fluid", "settled"),
        ("service", "closed_loop_settled"),
    ],
)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_corrupted_expectation_fails_the_run(tmp_path, workload, key, trace):
    expected = json.loads((HERE / "expected.json").read_text())
    smoke = expected[workload]["smoke"]
    assert key in smoke
    smoke[key] = "0" * 64 if isinstance(smoke[key], str) else smoke[key] + 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    code, result = bench("--workload", workload, "--seed", "0",
                         "--trace", trace, "--expected", str(corrupted))
    assert code != 0
    assert result["correct"] is False and result["metrics"] == {}
    code, result = bench("--workload", workload, "--seed", "0",
                         "--trace", trace)
    assert code == 0 and result["correct"], result


def test_population_cell_matches_the_committed_scaling_workload():
    """``cell_config`` keeps the benchmark's own copy of
    ``million_ue_hetero_config`` so that a program change cannot
    silently change the benchmark's inputs; this flags any drift
    between the two while ``benchmarks/perf`` exists."""
    workloads = pytest.importorskip("benchmarks.perf.workloads")
    from dataclasses import replace

    from perfbench.population import BASE_SEED, cell_config

    for n_ues in (8, 200, 2000):
        committed = workloads.million_ue_hetero_config(n_ues)
        assert committed.seed == BASE_SEED
        for mode in ("fluid", "analytic"):
            assert cell_config(n_ues, mode, 0) == replace(committed, mode=mode)


def test_open_loop_latency_counts_from_due_time():
    from perfbench.service_load import OpenLoop, open_loop_plan, service_config

    config = service_config()
    actions, settle_due = open_loop_plan(0, 0.2, config.cycle_duration,
                                         rate=400.0)
    stall_s = 0.15

    class Stalling(OpenLoop):
        stalled = False

        def on_event(self, state, event):
            super().on_event(state, event)
            if not self.stalled:
                self.stalled = True
                time.sleep(stall_s)  # blocks the whole loop

    loop = Stalling(actions, settle_due)
    asyncio.run(loop.run(config))
    # Events due during the stall were submitted late, after it ended;
    # timed from their due time they carry the stall, timed from the
    # send they would not.
    assert max(loop.event_ms) >= stall_s * 1e3 * 0.8
    assert max(loop.lag_ms) >= stall_s * 1e3 * 0.5
    assert len(loop.event_ms) == sum(1 for a in actions if a[1] == "event")
