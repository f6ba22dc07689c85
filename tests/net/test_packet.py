"""Packet record semantics."""

import pytest

from repro.net.packet import Direction, Packet


class TestPacket:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            Packet(size=0, flow="f", direction=Direction.UPLINK)

    def test_ids_are_unique(self):
        a = Packet(size=10, flow="f", direction=Direction.UPLINK)
        b = Packet(size=10, flow="f", direction=Direction.UPLINK)
        assert a.packet_id != b.packet_id

    def test_defaults(self):
        packet = Packet(size=100, flow="f", direction=Direction.DOWNLINK)
        assert packet.qci == 9
        assert packet.retransmission is False

    def test_retransmission_copy_preserves_flow_bytes(self):
        original = Packet(
            size=500, flow="tcp", direction=Direction.UPLINK, seq=7
        )
        copy = original.copy_for_retransmission()
        assert copy.size == original.size
        assert copy.seq == original.seq
        assert copy.flow == original.flow
        assert copy.retransmission is True
        assert copy.packet_id != original.packet_id

    def test_direction_str(self):
        assert str(Direction.UPLINK) == "uplink"
        assert str(Direction.DOWNLINK) == "downlink"


class TestDirectionHash:
    def test_identity_hash(self):
        for direction in Direction:
            assert hash(direction) == object.__hash__(direction)

    def test_direction_keyed_dict_survives_pickle(self):
        import pickle

        table = {Direction.UPLINK: "up", Direction.DOWNLINK: "down"}
        copy = pickle.loads(pickle.dumps(table))
        assert copy[Direction.UPLINK] == "up"
        assert copy[Direction.DOWNLINK] == "down"
        for direction in pickle.loads(pickle.dumps(list(Direction))):
            assert direction is Direction(direction.value)
            assert table[direction] == copy[direction]
