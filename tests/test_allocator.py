"""Direct unit tests of the two-stage separable VA and SA allocators."""

import pytest

from repro.config import PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST
from repro.faults.sites import FaultSite, FaultUnit
from repro.router.flit import Packet
from repro.router.vc import VCState

from conftest import SingleRouterHarness


def waiting_vc(h, port, wire, dest=5):
    """Put a head flit into (port, wire) and advance it to WAITING_VA."""
    h.inject(port, wire, Packet(src=3, dest=dest, size_flits=1))
    vc = h.router.in_ports[port].by_wire(wire)
    vc.state = VCState.WAITING_VA
    vc.route = h.router.routing.output_port(h.router.node, dest)
    return vc


class TestVAUnit:
    def test_single_requester_granted(self, harness):
        vc = waiting_vc(harness, PORT_WEST, 0)
        harness.router.va_unit.allocate(0)
        assert harness.router.stats.va_grants == 1
        assert vc.state == VCState.ACTIVE
        assert harness.router.out_ports[PORT_EAST].allocated[vc.out_vc] == vc.packet_id

    def test_conflicting_requests_one_winner(self, harness):
        """Two VCs proposing the same downstream VC: stage 2 picks one."""
        a = waiting_vc(harness, PORT_WEST, 0)
        b = waiting_vc(harness, PORT_NORTH, 0)
        harness.router.va_unit.allocate(0)
        # both target EAST; their stage-1 arbiters both start at dvc 0
        assert harness.router.stats.va_grants == 1
        states = {a.state, b.state}
        assert states == {VCState.ACTIVE, VCState.WAITING_VA}

    def test_loser_retries_next_cycle(self, harness):
        a = waiting_vc(harness, PORT_WEST, 0)
        b = waiting_vc(harness, PORT_NORTH, 0)
        harness.router.va_unit.allocate(0)
        harness.router.va_unit.allocate(1)
        assert harness.router.stats.va_grants == 2
        assert a.state == VCState.ACTIVE and b.state == VCState.ACTIVE
        assert a.out_vc != b.out_vc

    def test_no_free_downstream_vc_blocks(self, harness):
        out = harness.router.out_ports[PORT_EAST]
        for d in range(4):
            out.allocated[d] = 999  # all downstream VCs taken
        vc = waiting_vc(harness, PORT_WEST, 0)
        harness.router.va_unit.allocate(0)
        assert vc.state == VCState.WAITING_VA and vc.out_vc is None
        assert harness.router.stats.va_grants == 0
        assert harness.router.stats.va_no_free_vc_cycles == 1

    def test_vnet_partition_respected(self):
        h = SingleRouterHarness(num_vcs=4, num_vnets=2)
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1, vnet=0))
        vc = h.router.in_ports[PORT_WEST].by_wire(0)
        vc.state = VCState.WAITING_VA
        vc.route = PORT_EAST
        h.router.va_unit.allocate(0)
        assert vc.out_vc in (0, 1)  # vnet 0's downstream VCs only

    def test_faulty_stage1_blocks_in_baseline(self, harness):
        harness.router.inject_fault(
            FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, 0)
        )
        vc = waiting_vc(harness, PORT_WEST, 0)
        harness.router.va_unit.allocate(0)
        assert vc.state == VCState.WAITING_VA and vc.out_vc is None
        assert harness.router.stats.va_grants == 0
        assert harness.router.stats.va_blocked_cycles == 1


class TestSAUnit:
    def _active_vc(self, h, port, wire, route=PORT_EAST, out_vc=0):
        h.inject(port, wire, Packet(src=3, dest=5, size_flits=1))
        vc = h.router.in_ports[port].by_wire(wire)
        vc.state = VCState.ACTIVE
        vc.route = route
        vc.out_vc = out_vc
        return vc

    def test_single_active_vc_granted(self, harness):
        vc = self._active_vc(harness, PORT_WEST, 0)
        grants = harness.router.sa_unit.allocate(0)
        assert len(grants) == 1
        assert grants[0].vc is vc
        assert harness.router.out_ports[PORT_EAST].credits[0] == 3

    def test_no_credit_no_grant(self, harness):
        vc = self._active_vc(harness, PORT_WEST, 0)
        harness.router.out_ports[PORT_EAST].credits[0] = 0
        assert harness.router.sa_unit.allocate(0) == []
        del vc

    def test_empty_buffer_no_grant(self, harness):
        vc = self._active_vc(harness, PORT_WEST, 0)
        vc.buffer.clear()
        assert harness.router.sa_unit.allocate(0) == []

    def test_output_port_conflict_one_winner(self, harness):
        self._active_vc(harness, PORT_WEST, 0, out_vc=0)
        self._active_vc(harness, PORT_NORTH, 0, out_vc=1)
        grants = harness.router.sa_unit.allocate(0)
        assert len(grants) == 1  # both want EAST's mux

    def test_distinct_outputs_parallel_grants(self, harness):
        self._active_vc(harness, PORT_WEST, 0, route=PORT_EAST)
        self._active_vc(harness, PORT_EAST, 0, route=PORT_WEST)
        grants = harness.router.sa_unit.allocate(0)
        assert len(grants) == 2

    def test_one_grant_per_input_port(self, harness):
        self._active_vc(harness, PORT_WEST, 0, route=PORT_EAST, out_vc=0)
        self._active_vc(harness, PORT_WEST, 1, route=PORT_SOUTH, out_vc=0)
        grants = harness.router.sa_unit.allocate(0)
        assert len(grants) == 1  # stage 1 picks one VC per port

    def test_round_robin_across_ports(self, harness):
        a = self._active_vc(harness, PORT_WEST, 0, out_vc=0)
        b = self._active_vc(harness, PORT_NORTH, 0, out_vc=1)
        w1 = harness.router.sa_unit.allocate(0)[0].in_port
        # refill what the grant consumed so both stay eligible
        harness.router.out_ports[PORT_EAST].credits = [4, 4, 4, 4]
        w2 = harness.router.sa_unit.allocate(1)[0].in_port
        assert {w1, w2} == {PORT_WEST, PORT_NORTH}
        del a, b

    def test_faulty_stage1_blocks_port_in_baseline(self, harness):
        self._active_vc(harness, PORT_WEST, 0)
        harness.router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST))
        assert harness.router.sa_unit.allocate(0) == []
        assert harness.router.stats.sa_blocked_cycles == 1

    def test_unreachable_route_not_ready(self, harness):
        self._active_vc(harness, PORT_WEST, 0, route=PORT_EAST)
        harness.router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_EAST))
        assert harness.router.sa_unit.allocate(0) == []
