"""Work-stealing chunk scheduler for sharded population runs.

The static schedule in :mod:`repro.experiments.sharding` hands each of
N workers one contiguous ``n_ues / N`` range.  That is simple and
cacheable, but a skewed population (heterogeneous
``ScenarioConfig.population`` mixes, or just unlucky seeds) leaves the
run gated on its slowest shard while the other workers idle, and every
:class:`~repro.experiments.sharding.ShardSpec` task re-pickles the full
scenario config.

This module replaces that with a **pull-based work-stealing pool**:

- the population splits into many small UE chunks (``chunk_ues`` per
  chunk, default ~8 chunks per worker), planned heaviest-first
  (longest-processing-time order, by population-group weight) so big
  chunks land early and the run's tail is made of small ones;
- **persistent warm workers** pull chunks from one shared priority
  queue — a fast worker that finishes its chunk simply requests the
  next one, so load balances itself without the parent guessing costs
  up front.  The queue lives parent-side: workers send tiny
  ``next``/``done`` requests and the parent answers each with the next
  ``(start, stop)`` descriptor, both over that worker's private duplex
  control pipe.  Two hard-won rules shape this transport: the parent
  records every assignment *before* dispatching it, so chunk
  accounting never depends on a worker staying alive to report what it
  took (a dying worker's queued messages are silently dropped by
  multiprocessing's feeder thread); and workers never share a results
  queue, because a worker that dies while its feeder thread holds the
  queue's write lock wedges every *other* worker's ``put`` forever.
  Per-worker pipes have one writer per direction, so a death can only
  corrupt that worker's own channel — which the parent observes
  directly as EOF;
- the base :class:`~repro.experiments.scenario.ScenarioConfig` ships
  **once per worker** at run start; after that each dispatch is a
  descriptor of a few dozen bytes (the :class:`SchedulerReport`
  records the measured dispatch-bytes drop versus the static
  one-``ShardSpec``-per-task encoding);
- each worker folds its chunks **streaming** into one per-worker
  accumulator (:func:`repro.experiments.sharding._fold_ues` per chunk,
  then one :meth:`~repro.experiments.sharding.ShardResult.merge` per
  chunk), and ships the accumulator to the parent exactly once, at
  drain time — one monoidal merge per worker lands parent-side, not
  one per chunk.

**Why the merge-invariant contract survives stealing**: per-UE seeds
are ``derive_seed(config.seed, "ue", i)`` — a function of the cell seed
and the UE index only — and every merged quantity is an exact
commutative monoid (integer byte counts, integer event counters,
integer-nanosecond outage, histogram count/total/min/max), so the
merged result is byte-identical no matter which worker ran which chunk
in which order.  Chunk-to-worker assignment is *nondeterministic by
design*; the merged settlement is deterministic by construction.

**Failure handling**: a chunk whose fold raises is re-queued and
retried (the raising worker keeps serving; its accumulator is
untouched because the failed fold never reached it).  A worker that
*dies* loses its accumulator, so every chunk it had folded — plus the
one in flight — is re-queued on a respawned worker, each counted as a
retry.  When any chunk exceeds ``max_retries`` the run raises
:class:`~repro.experiments.campaign.CampaignTaskError` carrying the
chunk's content-addressed config hash (the same hash the static path's
:class:`~repro.experiments.campaign.CampaignTask` would use), so a
poisoned UE range is reproducible from the error alone.

Entry points::

    # one-shot: spin up 8 workers, run, tear down
    result = run_stealing_scenario(config, workers=8)

    # reuse one warm pool across runs (what scaling_curve does)
    with StealingScheduler(workers=8) as sched:
        r1 = run_stealing_scenario(cfg_a, workers=8, scheduler=sched)
        r2 = run_stealing_scenario(cfg_b, workers=4, scheduler=sched)

    # CLI equivalent:
    #   python -m repro run scale --ues 100000 --shards 8 \
    #       --schedule steal --chunk-ues 64
"""

from __future__ import annotations

import heapq
import multiprocessing
import pickle
import time
import traceback
from multiprocessing import connection as mp_conn
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments.campaign import (
    CampaignTask,
    CampaignTaskError,
    TaskFailure,
)
from repro.experiments.scenario import ScenarioConfig, ScenarioResult
from repro.experiments.sharding import (
    ShardResult,
    ShardSpec,
    _fold_ues,
    _merged_scenario_result,
    run_shard,
)

#: Cap on the auto-sized chunk, so huge populations still get enough
#: chunks for stealing to balance (and per-chunk history stays useful).
MAX_CHUNK_UES = 256
#: Auto-sizing target: enough chunks that each worker pulls several,
#: letting fast workers absorb a straggler's backlog.
TARGET_CHUNKS_PER_WORKER = 8


def default_chunk_ues(n_ues: int, workers: int) -> int:
    """Auto-sized UEs per chunk: ~8 chunks per worker, clamped 1..256."""
    if n_ues < 1:
        raise ValueError(f"population must be >= 1 UE: {n_ues}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1: {workers}")
    target_chunks = workers * TARGET_CHUNKS_PER_WORKER
    return max(1, min(MAX_CHUNK_UES, -(-n_ues // target_chunks)))


@dataclass(frozen=True)
class ChunkSpec:
    """One schedulable chunk: UEs ``[start, stop)`` and its priority
    weight (population-group relative cost; plain UE count when the
    cell is homogeneous)."""

    start: int
    stop: int
    weight: float

    @property
    def ue_count(self) -> int:
        """How many UEs this chunk simulates."""
        return self.stop - self.start


def plan_chunks(config: ScenarioConfig, chunk_ues: int) -> list[ChunkSpec]:
    """Split ``[0, config.n_ues)`` into chunks, heaviest first.

    Chunks are contiguous ``chunk_ues``-sized ranges (the last one
    shorter), ordered by descending
    :meth:`~repro.experiments.scenario.ScenarioConfig.weight_between`
    (start index breaks ties) — the classic LPT heuristic: heavy
    chunks dispatch first so the run's tail is made of cheap ones.
    ``chunk_ues >= n_ues`` degenerates to a single chunk;
    ``chunk_ues=1`` yields one chunk per UE.
    """
    if chunk_ues < 1:
        raise ValueError(f"chunk size must be >= 1 UE: {chunk_ues}")
    if config.n_ues < 1:
        raise ValueError(f"population must be >= 1 UE: {config.n_ues}")
    chunks = []
    for start in range(0, config.n_ues, chunk_ues):
        stop = min(start + chunk_ues, config.n_ues)
        chunks.append(
            ChunkSpec(
                start=start,
                stop=stop,
                weight=config.weight_between(start, stop),
            )
        )
    chunks.sort(key=lambda c: (-c.weight, c.start))
    return chunks


@dataclass
class ChunkJob:
    """One chunk execution attempt, as the job history records it."""

    start: int
    stop: int
    worker: str       # "slot:generation" of the worker that ran it
    wall_s: float     # chunk fold wall-clock (0.0 for lost chunks)
    retries: int      # this chunk's retry count when the attempt ended
    #: "done" (folded into an accumulator that drained), "error" (the
    #: runner raised; re-queued), or "lost" (its worker died before
    #: draining; re-queued).
    status: str

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form."""
        return {
            "start": self.start,
            "stop": self.stop,
            "worker": self.worker,
            "wall_s": self.wall_s,
            "retries": self.retries,
            "status": self.status,
        }


@dataclass
class SchedulerReport:
    """Observability for one work-stealing run.

    ``dispatch_bytes`` is what this run actually shipped to workers
    (one config blob per engaged worker + one small descriptor per
    chunk); ``static_dispatch_bytes`` is what the same chunking would
    have cost under the static one-``ShardSpec``-per-task encoding
    (full config pickled into every task) — the dedupe satellite's
    measured drop.
    """

    workers: int
    chunk_ues: int
    n_chunks: int
    config_bytes: int
    dispatch_bytes: int
    static_dispatch_bytes: int
    retries: int
    rounds: int
    jobs: list[ChunkJob] = field(default_factory=list)
    per_worker: list[dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (lands in ``extras["sharding"]``)."""
        return {
            "workers": self.workers,
            "chunk_ues": self.chunk_ues,
            "n_chunks": self.n_chunks,
            "config_bytes": self.config_bytes,
            "dispatch_bytes": self.dispatch_bytes,
            "static_dispatch_bytes": self.static_dispatch_bytes,
            "retries": self.retries,
            "rounds": self.rounds,
            "jobs": [job.as_dict() for job in self.jobs],
        }


def run_chunk(
    config: ScenarioConfig, start: int, stop: int
) -> ShardResult:
    """The default chunk runner: fold UEs ``[start, stop)`` serially."""
    return _fold_ues(config, start, stop)


def _chunk_hash(config: ScenarioConfig, start: int, stop: int) -> str:
    """The chunk's content-addressed config hash — the same key the
    static path's ``CampaignTask(run_shard, ShardSpec(...))`` would
    use, so a failing chunk is reproducible either way."""
    spec = ShardSpec(scenario=config, ue_start=start, ue_stop=stop)
    return CampaignTask(fn=run_shard, config=spec).key()


# -- worker side ---------------------------------------------------------


def _serve_run(wid, run_id, blob, control) -> bool:
    """One run's worker loop: request chunks, fold, drain on command.

    Returns False when a "stop" arrived mid-run (worker should exit).
    All traffic rides the worker's private duplex ``control`` pipe —
    the worker is the only writer in its direction, so nothing it does
    (including dying) can wedge a sibling's channel.
    """
    config, runner = pickle.loads(blob)
    acc = None
    busy = 0.0
    control.send(("next", run_id, wid))
    while True:
        msg = control.recv()
        kind = msg[0]
        if kind == "stop":
            return False
        if kind == "ping":
            control.send(("pong", wid))
            continue
        if kind == "drain":
            if msg[1] != run_id:
                continue
            control.send(
                (
                    "drained",
                    run_id,
                    wid,
                    pickle.dumps(acc, protocol=pickle.HIGHEST_PROTOCOL),
                    busy,
                )
            )
            return True
        if kind != "chunk" or msg[1] != run_id:
            continue
        start, stop = msg[2], msg[3]
        t0 = time.perf_counter()
        try:
            part = runner(config, start, stop)
        except Exception as exc:
            failure = TaskFailure(
                error_type=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(),
            )
            control.send(
                ("chunk-error", run_id, wid, start, stop, failure)
            )
            continue
        wall = time.perf_counter() - t0
        busy += wall
        acc = part if acc is None else acc.merge(part)
        control.send(("done", run_id, wid, start, stop, wall))


def _worker_main(slot, gen, control) -> None:
    """Persistent worker: serve runs until told to stop (module-level,
    so it is picklable under any multiprocessing start method)."""
    wid = f"{slot}:{gen}"
    try:
        while True:
            msg = control.recv()
            kind = msg[0]
            if kind == "stop":
                return
            if kind == "ping":
                control.send(("pong", wid))
            elif kind == "run":
                if not _serve_run(wid, msg[1], msg[2], control):
                    return
    except (EOFError, OSError, KeyboardInterrupt):
        return


@dataclass
class _WorkerSlot:
    """Parent-side handle on one worker process."""

    process: Any
    conn: Any   # parent's end of the duplex control pipe
    gen: int    # spawn generation (stale-message guard after respawn)


# -- parent side ---------------------------------------------------------


class StealingScheduler:
    """A persistent pool of chunk-stealing workers.

    Construction is cheap; workers spawn lazily on first use (or
    eagerly via :meth:`warm_up`) and persist across :meth:`run` calls,
    so a scaling curve pays interpreter start + module imports once.
    ``max_retries`` bounds how often any one chunk may be re-queued
    (runner exceptions and worker deaths both count) before the run
    raises :class:`~repro.experiments.campaign.CampaignTaskError`.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(self, workers: int, max_retries: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1: {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {max_retries}")
        self.workers = workers
        self.max_retries = max_retries
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._slots: list[_WorkerSlot | None] = [None] * workers
        self._gen = [0] * workers
        self._run_counter = 0
        self._closed = False

    # -- pool lifecycle --------------------------------------------------

    def _spawn(self, slot: int) -> _WorkerSlot:
        stale = self._slots[slot]
        if stale is not None:
            try:
                stale.conn.close()
            except OSError:
                pass
        self._gen[slot] += 1
        parent_end, worker_end = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot, self._gen[slot], worker_end),
            daemon=True,
            name=f"steal-worker-{slot}",
        )
        process.start()
        worker_end.close()
        handle = _WorkerSlot(
            process=process, conn=parent_end, gen=self._gen[slot]
        )
        self._slots[slot] = handle
        return handle

    def _ensure(self, n: int) -> None:
        for slot in range(n):
            handle = self._slots[slot]
            if handle is None or not handle.process.is_alive():
                self._spawn(slot)

    def warm_up(self, timeout: float = 30.0) -> None:
        """Spawn every worker and wait for each to answer a ping, so
        the first :meth:`run` doesn't pay process start inside its
        timed region."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        self._ensure(self.workers)
        waiting: dict[Any, str] = {}
        for slot in range(self.workers):
            handle = self._slots[slot]
            handle.conn.send(("ping",))
            waiting[handle.conn] = f"{slot}:{handle.gen}"
        dead: list[str] = []
        deadline = time.monotonic() + timeout
        while waiting and time.monotonic() < deadline:
            for conn in mp_conn.wait(list(waiting), timeout=0.2):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    dead.append(waiting.pop(conn))
                    continue
                if msg[0] == "pong":
                    waiting.pop(conn, None)
        if waiting or dead:
            raise RuntimeError(
                f"workers failed to warm up within {timeout}s: "
                f"{sorted(list(waiting.values()) + dead)}"
            )

    def close(self) -> None:
        """Stop every worker and release the queue (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._slots:
            if handle is not None and handle.process.is_alive():
                try:
                    handle.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for handle in self._slots:
            if handle is None:
                continue
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "StealingScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- one run ---------------------------------------------------------

    def run(
        self,
        config: ScenarioConfig,
        workers: int | None = None,
        chunk_ues: int | None = None,
        runner: Callable[[ScenarioConfig, int, int], ShardResult]
        | None = None,
    ) -> tuple[ShardResult, SchedulerReport]:
        """Run one population cell over the pool; return the merged
        :class:`~repro.experiments.sharding.ShardResult` and the run's
        :class:`SchedulerReport`.

        ``workers`` engages only the first N pool slots (capped at the
        pool size) — what the scaling curve uses to measure several
        worker counts on one warm pool.  ``runner`` substitutes the
        chunk fold (module-level function of ``(config, start, stop)``;
        tests inject failing runners); it ships to workers by pickle
        reference inside the per-run config blob.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        engaged = self.workers if workers is None else workers
        if engaged < 1:
            raise ValueError(f"worker count must be >= 1: {engaged}")
        engaged = min(engaged, self.workers)
        if chunk_ues is None:
            chunk_ues = default_chunk_ues(config.n_ues, engaged)
        chunks = plan_chunks(config, chunk_ues)
        chunk_runner = run_chunk if runner is None else runner
        runner_id = (
            f"{chunk_runner.__module__}.{chunk_runner.__qualname__}"
        )
        self._run_counter += 1
        run_id = self._run_counter
        self._ensure(engaged)
        blob = pickle.dumps(
            (config, chunk_runner), protocol=pickle.HIGHEST_PROTOCOL
        )

        # Per-chunk state machine: queued -> assigned -> done, with
        # error/death transitions back to queued (retries += 1).  The
        # parent is the single source of truth for every transition —
        # a worker's own messages are never needed to re-queue its
        # work after it dies.
        state: dict[tuple[int, int], dict[str, Any]] = {
            (c.start, c.stop): {
                "status": "queued",
                "retries": 0,
                "index": i,
            }
            for i, c in enumerate(chunks)
        }
        #: Priority heap of queued chunks: heaviest first (LPT), start
        #: index breaking ties for determinism of dispatch *order*
        #: (assignment still races, by design).
        heap: list[tuple[float, int, int]] = [
            (-c.weight, c.start, c.stop) for c in chunks
        ]
        heapq.heapify(heap)
        jobs: list[ChunkJob] = []
        accs: list[ShardResult] = []
        per_worker: list[dict[str, Any]] = []
        #: wid -> chunk keys folded into that worker's accumulator
        #: (all lost if the worker dies before draining).
        folded: dict[str, set[tuple[int, int]]] = {}
        #: wid -> the chunk dispatched to it and not yet done/errored.
        in_flight: dict[str, tuple[int, int] | None] = {}
        active: dict[int, str] = {}
        pending = len(chunks)
        rounds = 0
        dispatched_descriptor_bytes = 0

        def engage(slot: int, handle: _WorkerSlot) -> None:
            handle.conn.send(("run", run_id, blob))
            wid = f"{slot}:{handle.gen}"
            active[slot] = wid
            folded[wid] = set()
            in_flight[wid] = None

        def dispatch_next(wid: str) -> None:
            """Answer a worker's next/done/error with a fresh chunk."""
            nonlocal dispatched_descriptor_bytes
            if not heap:
                return  # worker goes idle until drain (or more work)
            _, start, stop = heapq.heappop(heap)
            key = (start, stop)
            slot = int(wid.split(":", 1)[0])
            handle = self._slots[slot]
            message = ("chunk", run_id, start, stop)
            # Record the assignment BEFORE sending: if the worker is
            # already dead the death sweep re-queues it from here.
            state[key]["status"] = "assigned"
            in_flight[wid] = key
            dispatched_descriptor_bytes += len(
                pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            )
            try:
                handle.conn.send(message)
            except (BrokenPipeError, OSError):
                pass  # the death sweep will pick it up

        def requeue(key: tuple[int, int], wid: str, status: str,
                    failure: TaskFailure | None = None) -> None:
            """Send a chunk back to the heap, aborting past the retry
            budget."""
            nonlocal pending
            entry = state[key]
            if entry["status"] == "done":
                pending += 1
            entry["retries"] += 1
            entry["status"] = "queued"
            jobs.append(
                ChunkJob(
                    start=key[0],
                    stop=key[1],
                    worker=wid,
                    wall_s=0.0,
                    retries=entry["retries"],
                    status=status,
                )
            )
            if entry["retries"] > self.max_retries:
                if failure is None:
                    failure = TaskFailure(
                        error_type="WorkerDied",
                        message=(
                            f"worker {wid} died with chunk "
                            f"[{key[0]}, {key[1]}) folded; retry "
                            f"budget ({self.max_retries}) exhausted"
                        ),
                        traceback_text="",
                    )
                self._abort_run(run_id, active)
                raise CampaignTaskError(
                    index=entry["index"],
                    runner=runner_id,
                    config_hash=_chunk_hash(config, *key),
                    failure=failure,
                )
            heapq.heappush(
                heap, (-chunk_weight(key), key[0], key[1])
            )

        def chunk_weight(key: tuple[int, int]) -> float:
            return config.weight_between(key[0], key[1])

        def reap(slot: int, expecting: set | None = None) -> None:
            """Recover a dead worker: re-queue everything it had
            folded plus its in-flight chunk, respawn, re-engage."""
            wid = active.pop(slot, None)
            if wid is None:
                return
            if expecting is not None:
                expecting.discard(wid)
            lost = sorted(folded.pop(wid, set()))
            flying = in_flight.pop(wid, None)
            if flying is not None and flying not in lost:
                lost.append(flying)
            for key in lost:
                requeue(key, wid, "lost")
            replacement = self._spawn(slot)
            engage(slot, replacement)

        def check_deaths(expecting: set | None = None) -> None:
            for slot in list(active):
                if not self._slots[slot].process.is_alive():
                    reap(slot, expecting)

        def pump(
            timeout: float, expecting: set | None = None
        ) -> list[tuple]:
            """Collect every ready worker message.  EOF on a pipe is
            the authoritative death signal (the worker is its pipe's
            only writer) and reaps that worker on the spot."""
            conn_map = {
                self._slots[slot].conn: slot for slot in active
            }
            if not conn_map:
                return []
            msgs = []
            for conn in mp_conn.wait(list(conn_map), timeout=timeout):
                try:
                    msgs.append(conn.recv())
                except (EOFError, OSError):
                    reap(conn_map[conn], expecting)
            return msgs

        def handle_message(msg: tuple) -> None:
            nonlocal pending
            kind = msg[0]
            if kind == "pong":
                return
            if kind == "next":
                _rid, wid = msg[1], msg[2]
                if _rid != run_id or wid not in in_flight:
                    return
                dispatch_next(wid)
                return
            if kind == "done":
                _rid, wid, start, stop, wall = (
                    msg[1], msg[2], msg[3], msg[4], msg[5],
                )
                if _rid != run_id or wid not in in_flight:
                    return
                key = (start, stop)
                entry = state[key]
                entry["status"] = "done"
                pending -= 1
                folded[wid].add(key)
                if in_flight[wid] == key:
                    in_flight[wid] = None
                jobs.append(
                    ChunkJob(
                        start=start,
                        stop=stop,
                        worker=wid,
                        wall_s=wall,
                        retries=entry["retries"],
                        status="done",
                    )
                )
                dispatch_next(wid)
                return
            if kind == "chunk-error":
                _rid, wid, start, stop, failure = (
                    msg[1], msg[2], msg[3], msg[4], msg[5],
                )
                if _rid != run_id or wid not in in_flight:
                    return
                key = (start, stop)
                # The failed fold never reached the accumulator, so a
                # later death of this worker must not re-retry it.
                if in_flight[wid] == key:
                    in_flight[wid] = None
                requeue(key, wid, "error", failure=failure)
                dispatch_next(wid)
                return

        for slot in range(engaged):
            engage(slot, self._slots[slot])

        # Fold-and-drain rounds: normally exactly one, with extra
        # rounds only when a drain-phase death re-queued work (or left
        # a freshly respawned worker to drain).
        while pending > 0 or active:
            rounds += 1
            while pending > 0:
                msgs = pump(0.1)
                if not msgs:
                    check_deaths()
                    continue
                for msg in msgs:
                    handle_message(msg)
            # All chunks folded somewhere: drain every active worker.
            expecting = set(active.values())
            for slot in list(active):
                try:
                    self._slots[slot].conn.send(("drain", run_id))
                except (BrokenPipeError, OSError):
                    pass  # the death sweep below handles it
            while expecting:
                # A death here loses a finished-but-unsent
                # accumulator; reaping re-queues its chunks
                # (pending > 0 again) on a respawned worker.
                msgs = pump(0.1, expecting)
                if not msgs:
                    check_deaths(expecting)
                    continue
                for msg in msgs:
                    if msg[0] != "drained":
                        handle_message(msg)
                        continue
                    _rid, wid = msg[1], msg[2]
                    if _rid != run_id or wid not in expecting:
                        continue
                    expecting.discard(wid)
                    slot = int(wid.split(":", 1)[0])
                    active.pop(slot, None)
                    folded.pop(wid, None)
                    in_flight.pop(wid, None)
                    acc = pickle.loads(msg[3])
                    if acc is not None:
                        accs.append(acc)
                        per_worker.append(
                            {
                                "worker": wid,
                                "ue_start": acc.ue_start,
                                "ue_stop": acc.ue_stop,
                                "events": acc.processed_events,
                                "wall_s": acc.wall_s,
                                "cpu_s": acc.cpu_s,
                                "rss_max_bytes": acc.rss_max_bytes,
                            }
                        )

        merged = accs[0]
        for acc in accs[1:]:
            merged = merged.merge(acc)
        spec_bytes = len(
            pickle.dumps(
                ShardSpec(
                    scenario=config,
                    ue_start=chunks[0].start,
                    ue_stop=chunks[0].stop,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        report = SchedulerReport(
            workers=engaged,
            chunk_ues=chunk_ues,
            n_chunks=len(chunks),
            config_bytes=len(blob),
            dispatch_bytes=(
                len(blob) * engaged + dispatched_descriptor_bytes
            ),
            static_dispatch_bytes=spec_bytes * len(chunks),
            retries=sum(entry["retries"] for entry in state.values()),
            rounds=rounds,
            jobs=jobs,
            per_worker=per_worker,
        )
        return merged, report

    def _abort_run(self, run_id: int, active: dict[int, str]) -> None:
        """Best-effort cleanup before raising: drain (and discard) the
        still-running workers so the pool stays reusable.  A worker
        mid-chunk finishes it, sees the drain, and goes idle; its
        stale messages are dropped by the next run's run-id guard."""
        expecting: dict[Any, str] = {}
        for slot, wid in list(active.items()):
            handle = self._slots[slot]
            if not handle.process.is_alive():
                continue
            try:
                handle.conn.send(("drain", run_id))
                expecting[handle.conn] = wid
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 10.0
        while expecting and time.monotonic() < deadline:
            for conn in mp_conn.wait(list(expecting), timeout=0.2):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    expecting.pop(conn, None)
                    continue
                if msg[0] == "drained" and msg[1] == run_id:
                    expecting.pop(conn, None)
        active.clear()


def run_stealing_scenario(
    config: ScenarioConfig,
    workers: int,
    chunk_ues: int | None = None,
    scheduler: StealingScheduler | None = None,
    runner: Callable[[ScenarioConfig, int, int], ShardResult]
    | None = None,
    max_retries: int | None = None,
) -> ScenarioResult:
    """Run a population cell through the work-stealing scheduler.

    With ``scheduler=None`` a one-shot pool of ``workers`` processes is
    created and torn down around the run; pass an existing
    :class:`StealingScheduler` to reuse its warm pool (then ``workers``
    engages that many of its slots and ``max_retries`` is the pool's).
    The merged result is byte-identical to
    :func:`repro.experiments.sharding.run_population` and to the static
    schedule at any shard count — the merge-invariant contract.
    """
    if config.trace or config.trace_path is not None:
        raise ValueError(
            "population runs merge metric snapshots, not trace streams; "
            "run with trace off (or trace a single-UE scenario)"
        )
    owns = scheduler is None
    if owns:
        scheduler = StealingScheduler(
            workers=workers,
            max_retries=2 if max_retries is None else max_retries,
        )
    try:
        merged, report = scheduler.run(
            config, workers=workers, chunk_ues=chunk_ues, runner=runner
        )
    finally:
        if owns:
            scheduler.close()
    return _merged_scenario_result(
        config,
        merged,
        per_shard=report.per_worker,
        shards=report.workers,
        schedule="steal",
        scheduler_info=report.as_dict(),
    )
