"""Tests for flits and packet segmentation."""

import pytest

from repro.network.stats import LatencySample
from repro.router.flit import Flit, FlitType, Packet


def flit_of(ftype):
    return Flit(ftype, 0, 0, 1)


class TestFlitType:
    def test_head_flags(self):
        assert flit_of(FlitType.HEAD).is_head
        assert flit_of(FlitType.HEAD_TAIL).is_head
        assert not flit_of(FlitType.BODY).is_head
        assert not flit_of(FlitType.TAIL).is_head

    def test_tail_flags(self):
        assert flit_of(FlitType.TAIL).is_tail
        assert flit_of(FlitType.HEAD_TAIL).is_tail
        assert not flit_of(FlitType.HEAD).is_tail
        assert not flit_of(FlitType.BODY).is_tail


class TestPacketSegmentation:
    def test_single_flit_packet_is_head_tail(self):
        pkt = Packet(src=0, dest=1, size_flits=1)
        flits = list(pkt.flits())
        assert len(flits) == 1
        assert flits[0].ftype == FlitType.HEAD_TAIL

    def test_two_flit_packet(self):
        pkt = Packet(src=0, dest=1, size_flits=2)
        kinds = [f.ftype for f in pkt.flits()]
        assert kinds == [FlitType.HEAD, FlitType.TAIL]

    def test_five_flit_packet(self):
        pkt = Packet(src=0, dest=1, size_flits=5)
        kinds = [f.ftype for f in pkt.flits()]
        assert kinds == [
            FlitType.HEAD,
            FlitType.BODY,
            FlitType.BODY,
            FlitType.BODY,
            FlitType.TAIL,
        ]

    def test_flit_indices_and_lengths(self):
        pkt = Packet(src=2, dest=9, size_flits=4)
        flits = list(pkt.flits())
        assert [f.flit_index for f in flits] == [0, 1, 2, 3]
        assert all(f.packet_len == 4 for f in flits)
        assert all(f.packet_id == pkt.packet_id for f in flits)
        assert all(f.src == 2 and f.dest == 9 for f in flits)

    def test_payload_travels_on_head_only(self):
        pkt = Packet(src=0, dest=1, size_flits=3, payload={"addr": 0x40})
        flits = list(pkt.flits())
        assert flits[0].payload == {"addr": 0x40}
        assert flits[1].payload is None
        assert flits[2].payload is None

    def test_packet_ids_are_unique(self):
        a = Packet(src=0, dest=1, size_flits=1)
        b = Packet(src=0, dest=1, size_flits=1)
        assert a.packet_id != b.packet_id

    def test_rejects_empty_packet(self):
        with pytest.raises(ValueError):
            Packet(src=0, dest=1, size_flits=0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Packet(src=3, dest=3, size_flits=1)

    def test_vnet_propagates(self):
        pkt = Packet(src=0, dest=1, size_flits=2, vnet=1)
        assert all(f.vnet == 1 for f in pkt.flits())


class TestFlitLatency:
    def test_latency_computation(self):
        """A packet's latencies are read off the sample its tail's
        ejection records, not off the flit."""
        s = LatencySample(
            packet_id=0, src=0, dest=1, vnet=0, size_flits=1,
            creation_cycle=5, injection_cycle=10, ejection_cycle=35, hops=1,
        )
        assert s.network_latency == 25
        assert s.total_latency == 30
