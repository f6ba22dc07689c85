"""The traced pass: per-package self time from cProfile, plus exact counts.

Calls into ``sim``, ``net``, ``lte``, ``apps``, ``telemetry`` and
``charging`` are far too fine-grained to wrap one by one, so the traced
pass runs the workload's in-process work under :mod:`cProfile` and
rolls every function's self time up to the ``src/repro`` package that
defines it.  Time spent in code outside the program (builtins such as
RSA's ``pow``, ``heapq``, the standard library) is charged to the
nearest calling program function, split by the per-caller times the
profiler recorded; what reaches the benchmark's own frames or the top
of the stack (event-loop idling, the load generator) stays
unattributed.  A few public functions are also read by name for exact
call counts and cumulative times (RSA signatures, negotiations,
verifications, telemetry merges).
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import time
from typing import Any, Callable

#: Layers: the packages under ``src/repro`` plus the top-level CLI module.
LAYERS = (
    "apps", "charging", "cli", "core", "crypto", "economics",
    "experiments", "faults", "lte", "monitors", "multiop", "net",
    "service", "sim", "telemetry", "timesync",
)

#: Every per-layer metric the traced run prints, with its unit.  A
#: workload that bypasses a layer reports 0 for it.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("sim.events", "count"),
    ("telemetry.merge_s", "s"),
    ("core.negotiations", "count"),
    ("core.negotiate_s", "s"),
    ("core.verify_s", "s"),
    ("crypto.sign_ops", "count"),
    ("crypto.sign_s", "s"),
    ("crypto.keygen_s", "s"),
    ("experiments.campaign.tasks", "count"),
    ("experiments.campaign.compute_s", "s"),
    ("experiments.campaign.idle_frac", "ratio"),
    ("experiments.scheduler.chunks", "count"),
    ("experiments.scheduler.fold_s", "s"),
    ("experiments.scheduler.idle_frac", "ratio"),
    ("experiments.scheduler.dispatch_bytes", "bytes"),
    ("experiments.scheduler.retries", "count"),
    ("experiments.scheduler.spawn_s", "s"),
    ("experiments.scheduler.cpu_report_ratio", "ratio"),
    ("service.submit_us", "us"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.process_us", "us"),
    ("service.event_p50_ms", "ms"),
    ("service.event_p99_ms", "ms"),
    ("service.settle_p95_ms", "ms"),
    ("service.query_p99_ms", "ms"),
    *(
        (f"service.refused.{reason}", "count")
        for reason in (
            "session_limit", "unknown_session", "duplicate_session",
            "queue_full", "rate_limited", "session_degraded", "closed",
        )
    ),
    ("service.verifier.accept_s", "s"),
    ("service.verifier.query_s", "s"),
    ("service.verifier.cache_hit_ratio", "ratio"),
    ("service.attest.batches", "count"),
    ("service.attest.sign_ops", "count"),
    ("loadgen.lag_p99_ms", "ms"),
)

#: Public functions read by name: (path suffix, qualified name).
SIGN = ("repro/crypto/signing.py", "sign")
KEYGEN = ("repro/crypto/rsa.py", "generate_keypair")
NEGOTIATE = ("repro/core/protocol.py", "run_negotiation")
VERIFY = (
    ("repro/core/verifier.py", "PublicVerifier.verify"),
    ("repro/core/verifier.py", "PublicVerifier.verify_cdr_batch"),
)
MERGE = (
    ("repro/telemetry/merge.py", "SnapshotAccumulator.add"),
    ("repro/telemetry/merge.py", "SnapshotAccumulator.snapshot"),
)
CORE_PROCESS = ("repro/service/core.py", "ChargingCore.process")
VERIFIER_ACCEPT = ("repro/service/verifier.py", "VerifierService.accept")
VERIFIER_QUERIES = tuple(
    ("repro/service/verifier.py", f"VerifierService.{name}")
    for name in ("get_poc", "get_cdrs", "load_cdr", "session_status")
)


def layer_of(filename: str) -> str | None:
    """The program layer a source file belongs to (None: not program)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or "/perfbench/" in path:
        return None
    rest = path[at + len(marker):]
    if "/" not in rest:
        return "cli" if rest in ("cli.py", "__main__.py", "__init__.py") else None
    package = rest.split("/", 1)[0]
    return package if package in LAYERS else None


class Profile:
    """Accumulates cProfile stats over one or more profiled calls."""

    def __init__(self) -> None:
        self._stats: pstats.Stats | None = None
        self.wall_s = 0.0

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` under the profiler; its wall time adds up."""
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        try:
            return fn()
        finally:
            profiler.disable()
            self.wall_s += time.perf_counter() - start
            if self._stats is None:
                self._stats = pstats.Stats(profiler)
            else:
                self._stats.add(profiler)

    @property
    def raw(self) -> dict:
        return {} if self._stats is None else self._stats.stats

    def _matching(self, suffix: str, qualname: str):
        name = qualname.rsplit(".", 1)[-1]
        owner = qualname.rsplit(".", 1)[0] if "." in qualname else None
        for (filename, line, funcname), entry in self.raw.items():
            if funcname != name or not filename.replace("\\", "/").endswith(
                suffix
            ):
                continue
            if owner is not None and not _defined_in_class(
                filename, line, owner
            ):
                continue
            yield entry

    def calls(self, *functions: tuple[str, str]) -> int:
        """Total calls of the named functions."""
        return sum(
            entry[1] for fn in functions for entry in self._matching(*fn)
        )

    def cumtime(self, *functions: tuple[str, str]) -> float:
        """Cumulative seconds inside the named functions."""
        return sum(
            entry[3] for fn in functions for entry in self._matching(*fn)
        )

    def self_time_by_layer(self) -> dict[str, float]:
        """Self seconds per layer; foreign code charged to its callers."""
        stats = self.raw
        layers = {func: layer_of(func[0]) for func in stats}
        memo: dict[tuple, dict[str, float]] = {}

        def share(func: tuple, active: set) -> dict[str, float]:
            """How ``func``'s time splits over layers via its callers."""
            if func in memo:
                return memo[func]
            entry = stats.get(func)
            callers = entry[4] if entry is not None else {}
            total = sum(times[2] for times in callers.values())
            if not callers or total <= 0 or func in active:
                return {}
            active.add(func)
            split: dict[str, float] = {}
            for caller, times in callers.items():
                weight = times[2] / total
                layer = layers.get(caller)
                if layer is None and caller not in layers:
                    layer = layer_of(caller[0])
                if layer is not None:
                    split[layer] = split.get(layer, 0.0) + weight
                elif not _is_benchmark(caller[0]):
                    for name, part in share(caller, active).items():
                        split[name] = split.get(name, 0.0) + weight * part
            active.discard(func)
            memo[func] = split
            return split

        totals = {layer: 0.0 for layer in LAYERS}
        for func, entry in stats.items():
            own = entry[2]
            layer = layers[func]
            if layer is not None:
                totals[layer] += own
            elif not _is_benchmark(func[0]):
                for name, part in share(func, set()).items():
                    totals[name] += own * part
        return totals


def _is_benchmark(filename: str) -> bool:
    return "/perfbench/" in filename.replace("\\", "/")


def _defined_in_class(filename: str, line: int, owner: str) -> bool:
    """Whether the function at ``filename:line`` is a method of ``owner``."""
    return _enclosing_class(filename, line) == owner


@functools.lru_cache(maxsize=None)
def _enclosing_class(filename: str, line: int) -> str | None:
    """The top-level class whose body holds ``filename:line``, if any."""
    try:
        with open(filename, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return None
    for text in reversed(lines[: max(0, line - 1)]):
        if text.startswith("class "):
            return text[6:].split("(", 1)[0].split(":", 1)[0].strip()
        if text.startswith(("def ", "async def ")):
            return None
    return None


def layer_metrics(profile: Profile, untraced_wall_s: float) -> dict[str, float]:
    """The profile-derived per-layer metrics of one traced pass."""
    by_layer = profile.self_time_by_layer()
    metrics = {f"{layer}.self_s": seconds for layer, seconds in by_layer.items()}
    metrics["unattributed_s"] = max(
        0.0, profile.wall_s - sum(by_layer.values())
    )
    metrics["trace.wall_s"] = profile.wall_s
    metrics["trace.overhead_frac"] = (
        profile.wall_s / untraced_wall_s - 1.0 if untraced_wall_s > 0 else 0.0
    )
    metrics["telemetry.merge_s"] = profile.cumtime(*MERGE)
    metrics["core.negotiations"] = profile.calls(NEGOTIATE)
    metrics["core.negotiate_s"] = profile.cumtime(NEGOTIATE)
    metrics["core.verify_s"] = profile.cumtime(*VERIFY)
    metrics["crypto.sign_ops"] = profile.calls(SIGN)
    metrics["crypto.sign_s"] = profile.cumtime(SIGN)
    metrics["crypto.keygen_s"] = profile.cumtime(KEYGEN)
    return metrics
