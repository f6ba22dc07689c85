"""The packet record shared by every substrate.

Packets carry enough metadata for charging (size, owning flow, direction,
QCI) without any payload bytes — the evaluation only ever uses volume and
timing statistics, never content.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class Direction(enum.Enum):
    """Traffic direction relative to the edge device."""

    UPLINK = "uplink"      # device -> server
    DOWNLINK = "downlink"  # server -> device

    # Members are singletons (pickling resolves them by value), so the
    # identity hash is consistent with equality and keeps per-packet
    # and per-interval ``Direction``-keyed dict lookups in C instead of
    # ``Enum.__hash__``'s Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """A simulated IP packet.

    ``slots=True`` because millions of these are created per campaign:
    slotted instances allocate no per-object ``__dict__`` and make the
    attribute reads on every hop of the LTE chain measurably cheaper.

    Attributes
    ----------
    size:
        Total on-the-wire bytes (headers included) — the unit the charging
        gateway meters.
    flow:
        Name of the owning application flow (e.g. ``"webcam-rtsp"``).
    direction:
        Uplink or downlink relative to the device.
    qci:
        LTE QoS Class Identifier of the bearer carrying this packet;
        QCI=7 marks the accelerated gaming traffic, QCI=9 best-effort.
    created_at:
        Simulated send timestamp (set by the sender).
    seq:
        Per-flow sequence number (used by TCP-like retransmission).
    retransmission:
        True when this packet is a retransmitted copy (spurious
        retransmissions are one of the §3.1 gap causes).
    """

    size: int
    flow: str
    direction: Direction
    qci: int = 9
    created_at: float = 0.0
    seq: int = 0
    retransmission: bool = False
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive: {self.size}")

    def copy_for_retransmission(self) -> "Packet":
        """A fresh packet object carrying the same flow bytes again."""
        return Packet(
            size=self.size,
            flow=self.flow,
            direction=self.direction,
            qci=self.qci,
            created_at=self.created_at,
            seq=self.seq,
            retransmission=True,
        )
