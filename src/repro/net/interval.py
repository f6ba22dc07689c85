"""Closed-form interval advancement primitives.

Analytic mode (``ScenarioConfig(mode="analytic")``) advances whole
*stable intervals* — stretches of simulated time in which no
discontinuity fires (no channel-state transition, no session change, no
quota crossing, no snapshot or CDR boundary) — in one step per network
layer instead of one event per packet or frame.  The unit of work is an
:class:`IntervalFlow`: the aggregate of every packet a flow would have
emitted in the interval, carried as two integers (packet count and wire
bytes) plus the shared metadata a :class:`~repro.net.block.PacketBlock`
would carry.

Loss layers act on an interval flow through the **rounding contract**
every analytic element follows (documented in docs/architecture.md and
enforced by ``tests/net/test_interval.py``):

- the *expected* loss of the interval is ``n × rate`` packets;
- it is integerized by :func:`stochastic_round` against **one** uniform
  draw from the layer's own :class:`~repro.sim.sampling.ChunkedRandom`
  stream, consumed only when the layer's rate and the interval's packet
  count are both nonzero, in pipeline order — so the draw sequence is a
  pure, seed-stable function of the interval sequence;
- lost bytes are apportioned by :func:`split_loss_bytes` (round-nearest
  of the pro-rata share, clamped so both the lost and surviving parts
  stay consistent with their packet counts), so
  ``lost_bytes + survivor_bytes == bytes`` holds *exactly* and the
  telemetry accounting identity ``counted − Σ losses_by_layer ==
  received`` closes on integers, never on expectations.

:func:`stochastic_round` is unbiased (``E[round(x, U)] = x`` for
``U ~ Uniform[0,1)``), which is what keeps analytic byte totals within
the derived tolerance of the fluid run they replace
(:func:`repro.experiments.equivalence.derived_tolerance`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.net.packet import Direction


def stochastic_round(value: float, u: float) -> int:
    """Integerize ``value`` against one uniform draw ``u`` in [0, 1).

    Returns ``floor(value) + 1`` when ``u`` falls below the fractional
    part, else ``floor(value)`` — the unbiased rounding every analytic
    loss layer and the analytic workload use.  Negative values are
    rejected (byte and packet expectations are never negative).
    """
    if value < 0:
        raise ValueError(f"cannot round a negative expectation: {value}")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform draw outside [0, 1): {u}")
    base = math.floor(value)
    return int(base) + (1 if u < value - base else 0)


def split_loss_bytes(packets: int, size: int, lost_packets: int) -> int:
    """Bytes charged to ``lost_packets`` of an interval's ``packets``.

    The pro-rata share ``size × lost / packets`` rounded to nearest
    (half away from zero via the ``(2·size·lost + packets) // (2·packets)``
    integer form), clamped so the lost part carries at least one byte
    per lost packet and the surviving part at least one byte per
    survivor — the same positivity invariant real packet sizes obey.
    """
    if packets <= 0:
        raise ValueError(f"interval must have packets to lose: {packets}")
    if not 0 <= lost_packets <= packets:
        raise ValueError(
            f"lost packets outside [0, {packets}]: {lost_packets}"
        )
    if lost_packets == 0:
        return 0
    if lost_packets == packets:
        return size
    share = (2 * size * lost_packets + packets) // (2 * packets)
    return max(lost_packets, min(share, size - (packets - lost_packets)))


@dataclass(frozen=True)
class IntervalFlow:
    """One stable interval's traffic aggregate for one flow.

    The analytic counterpart of a :class:`~repro.net.block.PacketBlock`:
    ``packets`` and ``bytes`` are what every counting point on the LTE
    chain adds where the block path would add ``block.count`` /
    ``block.size``; the metadata mirrors the block's shared tuple.
    A zero-packet flow (``IntervalFlow.empty``) is the identity every
    element passes through untouched.
    """

    packets: int
    bytes: int
    flow: str
    direction: Direction
    qci: int = 9

    def __post_init__(self) -> None:
        if self.packets < 0 or self.bytes < 0:
            raise ValueError(
                f"negative interval aggregate: packets={self.packets} "
                f"bytes={self.bytes}"
            )
        if self.packets == 0 and self.bytes != 0:
            raise ValueError(
                f"{self.bytes} bytes with zero packets"
            )
        if self.packets > 0 and self.bytes < self.packets:
            raise ValueError(
                f"{self.packets} packets need >= 1 byte each, got "
                f"{self.bytes}"
            )

    @classmethod
    def empty(cls, flow: str, direction: Direction, qci: int = 9):
        """The zero aggregate (identity of :meth:`merge`)."""
        return cls(
            packets=0, bytes=0, flow=flow, direction=direction, qci=qci
        )

    @property
    def is_empty(self) -> bool:
        """True when the interval carried no traffic."""
        return self.packets == 0

    def merge(self, other: "IntervalFlow") -> "IntervalFlow":
        """Fold two aggregates of the same flow (associative)."""
        if (
            other.flow != self.flow
            or other.direction is not self.direction
            or other.qci != self.qci
        ):
            raise ValueError("cannot merge aggregates of different flows")
        return IntervalFlow(
            self.packets + other.packets,
            self.bytes + other.bytes,
            self.flow,
            self.direction,
            self.qci,
        )

    def drop(self, lost_packets: int) -> tuple["IntervalFlow", int]:
        """(survivors, lost_bytes) after losing ``lost_packets``.

        Lost bytes follow :func:`split_loss_bytes`; the survivor
        aggregate carries exactly ``bytes − lost_bytes``, so byte
        conservation is structural.
        """
        if self.is_empty and lost_packets == 0:
            return self, 0
        lost_bytes = split_loss_bytes(self.packets, self.bytes, lost_packets)
        survivors = IntervalFlow(
            self.packets - lost_packets,
            self.bytes - lost_bytes,
            self.flow,
            self.direction,
            self.qci,
        )
        return survivors, lost_bytes

    def expected_drop(
        self, rate: float, u: float
    ) -> tuple["IntervalFlow", int, int]:
        """Apply an i.i.d. loss ``rate``: (survivors, lost_packets,
        lost_bytes), integerized by :func:`stochastic_round` against
        ``u``.  Callers must follow the draw contract: consume ``u``
        from the layer's own stream only when ``rate > 0`` and the
        interval is non-empty.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate outside [0, 1]: {rate}")
        lost = min(self.packets, stochastic_round(self.packets * rate, u))
        survivors, lost_bytes = self.drop(lost)
        return survivors, lost, lost_bytes

    def take(self, head_packets: int) -> tuple["IntervalFlow", "IntervalFlow"]:
        """(first ``head_packets``, the rest) — the analytic analogue of
        :meth:`~repro.net.block.PacketBlock.split`, used by the channel's
        outage buffer to admit up to its capacity.
        """
        head_packets = max(0, min(head_packets, self.packets))
        rest, head_bytes = self.drop(head_packets)
        head = IntervalFlow(
            head_packets, head_bytes, self.flow, self.direction, self.qci
        )
        return head, rest
