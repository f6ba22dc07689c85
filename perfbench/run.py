"""End-to-end benchmark of the TLC reproduction: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload service --seed 1 --seconds 20 --trace 1

Workloads: ``figures``, ``population_fluid``, ``population_analytic``,
``service`` (see ``perfbench/README.md``).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is the separate traced run that
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run's host and run context.  A run whose outputs fail
a check prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("figures", "population_fluid", "population_analytic", "service")
#: Set-up repetitions measured in fresh child processes, split between
#: before the timed window and after it, so that their median samples
#: the host over the whole run as the other metrics do.  Each is scaled
#: to the reference host speed by the readings taken while it ran.
SETUP_REPS = 7
#: The workload seed whose outputs ``expected.json`` records.
DEFAULT_SEED = 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one set-up sample (self-tests only)",
    )
    parser.add_argument(
        "--expected", default=str(HERE / "expected.json"),
        help="file of expected default-seed outputs",
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="write this run's default-seed outputs to --expected",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(args, state):
    """The workload object for ``args`` (set-up not yet run)."""
    from perfbench import figures, population, service_load

    if args.workload == "figures":
        only = ["transport", "rss", "fig14"] if args.smoke else None
        return figures.Figures(state, args.seed, nproc(), only)
    if args.workload.startswith("population_"):
        mode = args.workload.split("_", 1)[1]
        return population.Population(
            state, args.seed, nproc(), mode,
            n_ues=(8 if mode == "fluid" else 40) if args.smoke else None,
        )
    return service_load.Service(
        state, args.seed, **({"rate": 400.0} if args.smoke else {})
    )


def load_expected(args) -> dict:
    """All recorded default-seed outputs (``{}`` if none yet)."""
    try:
        with open(args.expected, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def expected_section(data: dict, args) -> dict:
    """This workload's recorded outputs (its smoke-size ones with --smoke)."""
    entry = data.setdefault(args.workload, {})
    return entry.setdefault("smoke", {}) if args.smoke else entry


def setup_probe(args) -> int:
    """Child mode: set up, report readiness, tear down, exit."""
    from perfbench.common import RunState

    workload = build(args, RunState())
    workload.setup()
    print("READY", flush=True)
    workload.close()
    return 0


def measure_setup(args, reps: int) -> list[tuple[float, float]]:
    """(measured, scaled) set-up seconds of ``reps`` fresh processes,
    start to ready."""
    from perfbench.common import HostSpeed

    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--expected", args.expected, "--setup-probe",
    ]
    if args.smoke:
        command.append("--smoke")
    samples = []
    with HostSpeed() as speed:
        for _ in range(reps):
            start = time.perf_counter()
            child = subprocess.Popen(
                command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                cwd=str(ROOT), text=True,
            )
            try:
                line = child.stdout.readline()
                ready = time.perf_counter() - start
                child.stdout.read()
                child.wait(timeout=60)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
            if line.strip() != "READY" or child.returncode != 0:
                raise RuntimeError(
                    f"set-up probe failed ({child.returncode})"
                )
            scale = speed.scale(start, start + ready)
            samples.append((ready, ready * scale))
    return samples


def context(args) -> dict:
    import multiprocessing

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a dependency
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def run(args) -> tuple[dict, int]:
    from perfbench.common import CheckFailed, RunState, median
    from perfbench import tracing

    state = RunState()
    reps = 0 if args.trace else 1 if args.smoke else SETUP_REPS
    setup_samples = measure_setup(args, reps - reps // 2)
    workload = build(args, state)
    state.context.update(context(args))
    profile = tracing.Profile() if args.trace else None
    setup_profile = tracing.Profile() if args.trace else None
    try:
        workload.setup(setup_profile)
        if args.trace:
            extra = workload.traced(profile, args.seconds)
            metrics = tracing.layer_metrics(
                profile, extra.pop("untraced_wall_s", 0.0)
            )
            metrics["crypto.keygen_s"] += setup_profile.cumtime(tracing.KEYGEN)
            metrics.update(extra)
            for name, unit in tracing.PER_LAYER:
                state.put(name, metrics.get(name, 0.0), unit)
        else:
            workload.window(args.seconds)
        if not state.failed:
            workload.check()
            check_outputs(args, state, workload.outputs())
    except CheckFailed:
        pass
    finally:
        workload.close()
    if reps:
        setup_samples += measure_setup(args, reps // 2)
        state.put("setup_s", median([s for _m, s in setup_samples]), "s")
        state.context["setup_samples_s"] = [
            round(m, 4) for m, _s in setup_samples
        ]
    correct = not state.errors and state.failed == 0
    for error in state.errors:
        print(f"[perfbench] {error}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(1, state.attempted),
        "failed": state.failed if correct else max(1, state.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in state.metrics.items()
        } if correct else {},
    }
    print(json.dumps({"context": state.context}, sort_keys=True))
    return result, 0 if correct else 1


def check_outputs(args, state, outputs: dict) -> None:
    """At the default seed, outputs must equal the recorded ones; with
    ``--record-expected`` they are recorded instead (after a change
    that is meant to alter them)."""
    if args.seed != DEFAULT_SEED:
        return
    data = load_expected(args)
    section = expected_section(data, args)
    if args.record_expected:
        smoke = section.get("smoke") if not args.smoke else None
        section.clear()
        section.update(outputs)
        if smoke is not None:
            section["smoke"] = smoke
        with open(args.expected, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    for key, want in section.items():
        if key == "smoke":
            continue
        got = outputs.get(key)
        state.check(
            got == want,
            f"{key}: output {got!r} != expected {want!r} at the default seed",
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.setup_probe:
        return setup_probe(args)
    if args.record_expected and args.seed != DEFAULT_SEED:
        print("--record-expected needs the default seed", file=sys.stderr)
        return 2
    result, code = run(args)
    print(json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
