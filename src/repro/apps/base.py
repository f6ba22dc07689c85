"""Workload base: frame models, packetization, and the send loop.

Video-style workloads generate *frames* on a fixed cadence; each frame is
packetized into MTU-sized UDP packets and handed to a send function (the
scenario wires that to the uplink or downlink entry of the simulated LTE
network).  Frame sizes follow a lognormal around the codec's per-frame
budget with periodic intra-frame (I-frame) spikes, which reproduces the
bursty loss exposure of real H.264/GVSP streams.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.net.block import PacketBlock
from repro.net.interval import IntervalFlow, stochastic_round
from repro.net.packet import Direction, Packet
from repro.sim.events import EventLoop

SendFn = Callable[[Packet], object]

MTU_PAYLOAD = 1400  # bytes of app payload per packet
PACKET_OVERHEAD = 40  # IP + UDP + RTP-ish headers


@dataclass(frozen=True)
class FrameModel:
    """Statistical model of a frame stream.

    Attributes
    ----------
    bitrate_bps:
        Long-run average bitrate (application bytes).
    fps:
        Frames per second.
    iframe_interval:
        Every n-th frame is an I-frame (0 disables the GOP structure).
    iframe_scale:
        I-frame size relative to the average frame.
    jitter_sigma:
        Lognormal sigma of per-frame size variation.
    """

    bitrate_bps: float
    fps: float
    iframe_interval: int = 30
    iframe_scale: float = 4.0
    jitter_sigma: float = 0.25

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0 or self.fps <= 0:
            raise ValueError("bitrate and fps must be positive")
        if self.iframe_interval < 0:
            raise ValueError("iframe interval must be >= 0")
        # The lognormal location depends only on model constants, so the
        # two possible values (I-frame / P-frame) are computed once here
        # instead of re-deriving scale and log per frame on the cadence
        # hot path.  P-frames are scaled down so the GOP average stays
        # on budget.
        mean = self.mean_frame_bytes
        if self.iframe_interval > 0:
            n = self.iframe_interval
            p_scale = (n - self.iframe_scale) / (n - 1) if n > 1 else 1.0
            p_scale = max(p_scale, 0.1)
            mu_iframe = math.log(max(mean * self.iframe_scale, 1.0))
            mu_pframe = math.log(max(mean * p_scale, 1.0))
        else:
            mu_iframe = mu_pframe = math.log(max(mean, 1.0))
        object.__setattr__(self, "_mu_iframe", mu_iframe)
        object.__setattr__(self, "_mu_pframe", mu_pframe)
        # E[frame payload] per frame type, the closed form analytic
        # advancement sums on every interval.
        object.__setattr__(
            self,
            "_expected_bytes",
            (
                math.exp(mu_pframe + self.jitter_sigma**2 / 2.0),
                math.exp(mu_iframe + self.jitter_sigma**2 / 2.0),
            ),
        )

    @property
    def mean_frame_bytes(self) -> float:
        """Average frame size implied by bitrate and fps."""
        return self.bitrate_bps / 8.0 / self.fps

    def expected_frame_bytes(self, iframe: bool) -> float:
        """E[frame payload] of one frame type under the lognormal model.

        ``exp(μ + σ²/2)`` — the closed form analytic advancement sums
        per frame instead of drawing per frame.  The ``max(1, int(·))``
        clipping of :meth:`frame_size` shifts the true mean by well
        under a byte at realistic frame sizes; that residue is part of
        the documented analytic-vs-fluid tolerance, not of this value.
        """
        pframe_bytes, iframe_bytes = self._expected_bytes
        return iframe_bytes if iframe else pframe_bytes

    def frame_size(self, frame_index: int, rng: random.Random) -> int:
        """Draw one frame's size in bytes."""
        interval = self.iframe_interval
        mu = (
            self._mu_iframe
            if interval > 0 and frame_index % interval == 0
            else self._mu_pframe
        )
        size = rng.lognormvariate(mu, self.jitter_sigma)
        return max(1, int(size))


def packetize(frame_bytes: int, mtu_payload: int = MTU_PAYLOAD) -> list[int]:
    """Split a frame into on-the-wire packet sizes (overhead included)."""
    if frame_bytes <= 0:
        raise ValueError(f"frame must have positive size: {frame_bytes}")
    sizes = []
    remaining = frame_bytes
    while remaining > 0:
        payload = min(remaining, mtu_payload)
        sizes.append(payload + PACKET_OVERHEAD)
        remaining -= payload
    return sizes


def packetize_array(
    frame_bytes: int, mtu_payload: int = MTU_PAYLOAD
) -> np.ndarray:
    """Vectorized :func:`packetize`: the same sizes as an ``int64`` array.

    ``k`` full-MTU packets followed by one carrying the remainder —
    element-for-element identical to the scalar loop, built without a
    per-packet Python iteration (the fluid emit path's hot spot).
    """
    if frame_bytes <= 0:
        raise ValueError(f"frame must have positive size: {frame_bytes}")
    full, tail = divmod(frame_bytes, mtu_payload)
    sizes = np.empty(full + (1 if tail else 0), dtype=np.int64)
    sizes[:] = mtu_payload + PACKET_OVERHEAD
    if tail:
        sizes[-1] = tail + PACKET_OVERHEAD
    return sizes


class Workload:
    """A frame-cadence traffic generator bound to a send function."""

    def __init__(
        self,
        loop: EventLoop,
        send: SendFn,
        model: FrameModel,
        rng: random.Random,
        flow: str,
        direction: Direction,
        qci: int = 9,
    ) -> None:
        self.loop = loop
        self.send = send
        self.model = model
        self.rng = rng
        self.flow = flow
        self.direction = direction
        self.qci = qci
        self._running = False
        self._frame_index = 0
        self._seq = 0
        # Fluid mode: emit each frame as one PacketBlock instead of
        # per-packet sends.  The scenario runner flips this and rebinds
        # ``send`` to the network's block entry point.
        self.emit_blocks = False
        # Analytic mode: no cadence ticks at all — the AnalyticDriver
        # pulls aggregate traffic via interval_traffic().  start() still
        # draws the phase offset so the cadence is seed-stable.
        self.analytic = False
        self._first_at = 0.0
        self._emitted = 0
        # Per-tick constants, hoisted off the frame cadence hot path.
        self._frame_period = 1.0 / model.fps
        self._frame_label = f"{flow}-frame"
        # The clock object itself: reading ``_clock._now`` per frame
        # skips the EventLoop.now property hop (see DESIGN.md §8).
        self._clock = loop.clock
        self.generated_frames = 0
        self.generated_packets = 0
        self.generated_bytes = 0

    def start(self) -> None:
        """Begin generating frames on the event loop."""
        if self._running:
            return
        self._running = True
        offset = self.rng.uniform(0, self._frame_period)
        if self.analytic:
            # Same first draw as the event-driven modes (keeps every
            # later stream position seed-stable), but no ticks: the
            # driver advances the cadence in closed form.
            self._first_at = self.loop.now + offset
            self._emitted = 0
            return
        self.loop.schedule_in(offset, self._tick, label=self._frame_label)

    def stop(self) -> None:
        """Stop generating (already-scheduled frames still fire)."""
        self._running = False

    def interval_traffic(self, t0: float, t1: float) -> IntervalFlow:
        """Aggregate traffic of the stable interval ``(t0, t1]``.

        Analytic mode's emit path: counts the cadence instants that fall
        in the interval (O(1) index arithmetic — no per-frame work, no
        float accumulation drift), splits them into I/P frames by GOP
        position, and carries the *expected* payload of each type,
        integerized by one :func:`~repro.net.interval.stochastic_round`
        draw from the workload's own stream per non-empty interval.
        Intervals must be advanced in order (``t0`` is trusted to be the
        previous call's ``t1``); a stopped workload contributes nothing.
        """
        if not self._running:
            return IntervalFlow.empty(self.flow, self.direction, self.qci)
        period = self._frame_period
        next_at = self._first_at + self._emitted * period
        if next_at > t1:
            return IntervalFlow.empty(self.flow, self.direction, self.qci)
        frames = int((t1 - next_at) / period) + 1
        start_index = self._frame_index
        interval = self.model.iframe_interval
        if interval > 0:
            # I-frames below index n: ceil(n / interval).
            n_iframes = (start_index + frames + interval - 1) // interval - (
                start_index + interval - 1
            ) // interval
        else:
            n_iframes = 0
        n_pframes = frames - n_iframes
        pframe_bytes, iframe_bytes = self.model._expected_bytes
        expected_payload = n_iframes * iframe_bytes + n_pframes * pframe_bytes
        payload = stochastic_round(expected_payload, self.rng.random())
        packets = n_iframes * math.ceil(
            iframe_bytes / MTU_PAYLOAD
        ) + n_pframes * math.ceil(pframe_bytes / MTU_PAYLOAD)
        packets = max(packets, frames)  # every frame is >= 1 packet
        payload = max(payload, packets)  # >= 1 payload byte per packet
        wire_bytes = payload + packets * PACKET_OVERHEAD
        self._emitted += frames
        self._frame_index += frames
        self._seq += packets
        self.generated_frames += frames
        self.generated_packets += packets
        self.generated_bytes += wire_bytes
        return IntervalFlow(
            packets=packets,
            bytes=wire_bytes,
            flow=self.flow,
            direction=self.direction,
            qci=self.qci,
        )

    def _tick(self) -> None:
        if not self._running:
            return
        self._emit_frame()
        # The cadence tick is never cancelled (stop() flips _running and
        # the next tick no-ops), so use the fire-and-forget fast path.
        self.loop.call_in(self._frame_period, self._tick)

    def _emit_frame(self) -> None:
        size = self.model.frame_size(self._frame_index, self.rng)
        self._frame_index += 1
        self.generated_frames += 1
        # All packets of a frame share the emission instant; hoist the
        # clock read and the send callable out of the packetization loop.
        now = self._clock._now
        if self.emit_blocks:
            sizes = packetize_array(size)
            count = int(sizes.size)
            # Wire bytes = payload + per-packet overhead; no need to
            # re-sum the array the packetizer just built.
            wire_bytes = size + count * PACKET_OVERHEAD
            block = PacketBlock._raw(
                sizes,
                self.flow,
                self.direction,
                self.qci,
                now,
                self._seq,
                wire_bytes,
                count,
            )
            self._seq += count
            self.generated_packets += count
            self.generated_bytes += wire_bytes
            self.send(block)
            return
        send = self.send
        flow = self.flow
        direction = self.direction
        qci = self.qci
        seq = self._seq
        packets = 0
        frame_bytes = 0
        for packet_size in packetize(size):
            packet = Packet(
                size=packet_size,
                flow=flow,
                direction=direction,
                qci=qci,
                created_at=now,
                seq=seq,
            )
            seq += 1
            packets += 1
            frame_bytes += packet_size
            send(packet)
        self._seq = seq
        self.generated_packets += packets
        self.generated_bytes += frame_bytes

    @property
    def average_bitrate(self) -> float:
        """Generated bits/s since the loop origin (diagnostics)."""
        if self.loop.now <= 0:
            return 0.0
        return self.generated_bytes * 8.0 / self.loop.now
