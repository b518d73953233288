"""Tests for virtual-channel state machines and buffers."""

import pytest

from repro.router.flit import Packet
from repro.router.vc import VCState, VirtualChannel


def flits_of(src=0, dest=1, n=3, **kw):
    return list(Packet(src=src, dest=dest, size_flits=n, **kw).flits())


class TestBuffer:
    def test_starts_idle_and_empty(self):
        vc = VirtualChannel(0, 0, 4)
        assert vc.state == VCState.IDLE
        assert vc.is_empty
        assert vc.free_slots == 4

    def test_enqueue_dequeue_fifo(self):
        vc = VirtualChannel(0, 0, 4)
        fl = flits_of(n=3)
        for f in fl:
            vc.enqueue(f)
        assert vc.occupancy == 3
        assert [vc.dequeue() for _ in range(3)] == fl

    def test_overflow_raises(self):
        vc = VirtualChannel(0, 0, 2)
        fl = flits_of(n=3)
        vc.enqueue(fl[0])
        vc.enqueue(fl[1])
        with pytest.raises(OverflowError):
            vc.enqueue(fl[2])

    def test_dequeue_empty_raises(self):
        vc = VirtualChannel(0, 0, 4)
        with pytest.raises(IndexError):
            vc.dequeue()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            VirtualChannel(0, 0, 0)


class TestStateMachine:
    def test_head_arrival_starts_routing(self):
        vc = VirtualChannel(0, 0, 4)
        vc.enqueue(flits_of(n=2)[0])
        assert vc.state == VCState.ROUTING
        assert vc.packet_id is not None

    def test_body_at_idle_vc_asserts(self):
        vc = VirtualChannel(0, 0, 4)
        body = flits_of(n=3)[1]
        with pytest.raises(AssertionError):
            vc.enqueue(body)

    def test_tail_departure_resets(self):
        vc = VirtualChannel(0, 0, 4)
        for f in flits_of(n=2):
            vc.enqueue(f)
        vc.state = VCState.ACTIVE
        vc.route = 2
        vc.out_vc = 1
        vc.dequeue()  # head
        assert vc.state == VCState.ACTIVE  # mid-packet
        vc.dequeue()  # tail
        assert vc.state == VCState.IDLE
        assert vc.route is None
        assert vc.out_vc is None
        assert vc.packet_id is None

    def test_back_to_back_packets_restart_pipeline(self):
        """A second packet queued behind the first starts ROUTING when the
        first one's tail leaves."""
        vc = VirtualChannel(0, 0, 8)
        p1 = flits_of(n=2)
        p2 = flits_of(n=2, dest=2)
        for f in p1 + p2:
            vc.enqueue(f)
        vc.state = VCState.ACTIVE
        vc.dequeue()
        vc.dequeue()  # tail of p1
        assert vc.state == VCState.ROUTING
        assert vc.packet_id == p2[0].packet_id

    def test_single_flit_packet_lifecycle(self):
        vc = VirtualChannel(0, 0, 4)
        [f] = flits_of(n=1)
        vc.enqueue(f)
        assert vc.state == VCState.ROUTING
        vc.state = VCState.ACTIVE
        vc.dequeue()
        assert vc.state == VCState.IDLE


class TestFTFields:
    def test_va_excluded_cleared_between_packets(self):
        vc = VirtualChannel(0, 0, 4)
        vc.enqueue(flits_of(n=1)[0])
        vc.va_excluded = {1, 2}
        vc.state = VCState.ACTIVE
        vc.dequeue()
        assert vc.va_excluded is None
