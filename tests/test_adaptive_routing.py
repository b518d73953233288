"""Tests for the west-first adaptive routing extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    NetworkConfig,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
)
from repro.faults.sites import FaultSite, FaultUnit
from repro.router.routing import WestFirstRouting, XYRouting, make_routing

from conftest import hop_count, make_network_config, make_sim, permanent_faults
from oracles import neighbour


@pytest.fixture
def net():
    return NetworkConfig(width=8, height=8)


class TestWestFirstTurnModel:
    def test_west_destinations_forced_west(self, net):
        r = WestFirstRouting(net)
        centre = net.node_id(4, 4)
        # destination to the north-west: must go west first, no choice
        assert r.candidate_ports(centre, net.node_id(2, 2)) == [PORT_WEST]

    def test_eastward_destinations_adaptive(self, net):
        r = WestFirstRouting(net)
        centre = net.node_id(4, 4)
        cands = r.candidate_ports(centre, net.node_id(6, 6))
        assert sorted(cands) == sorted([PORT_EAST, PORT_SOUTH])

    def test_straight_line_single_candidate(self, net):
        r = WestFirstRouting(net)
        centre = net.node_id(4, 4)
        assert r.candidate_ports(centre, net.node_id(6, 4)) == [PORT_EAST]
        assert r.candidate_ports(centre, net.node_id(4, 2)) == [PORT_NORTH]

    def test_local_delivery(self, net):
        r = WestFirstRouting(net)
        assert r.candidate_ports(5, 5) == [PORT_LOCAL]

    def test_factory(self, net):
        assert isinstance(make_routing(net, "west_first"), WestFirstRouting)
        assert make_routing(net, "west_first").adaptive
        assert not make_routing(net, "xy").adaptive

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_candidates_always_productive(self, src, dst):
        """Every candidate strictly reduces Manhattan distance, so any
        adaptive choice still delivers in minimal hops."""
        net = NetworkConfig(width=8, height=8)
        r = WestFirstRouting(net)
        if src == dst:
            return

        def manhattan(a, b):
            ax, ay = net.coords(a)
            bx, by = net.coords(b)
            return abs(ax - bx) + abs(ay - by)

        for port in r.candidate_ports(src, dst):
            nxt = neighbour(net, src, port)
            assert manhattan(nxt, dst) == manhattan(src, dst) - 1

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_no_turns_into_west(self, src, dst):
        """The west-first invariant that guarantees deadlock freedom:
        once a non-west move is made, west never reappears."""
        net = NetworkConfig(width=8, height=8)
        r = WestFirstRouting(net)
        cur, moved_non_west = src, False
        for _ in range(20):
            cands = r.candidate_ports(cur, dst)
            if cands == [PORT_LOCAL]:
                break
            if moved_non_west:
                assert PORT_WEST not in cands
            port = cands[-1]  # stress the least-preferred choice
            if port != PORT_WEST:
                moved_non_west = True
            cur = neighbour(net, cur, port)
        assert cur == dst

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_minimal_hop_count_matches_xy(self, src, dst):
        net = NetworkConfig(width=8, height=8)
        if src == dst:
            return
        assert (
            hop_count(WestFirstRouting(net), src, dst)
            == hop_count(XYRouting(net), src, dst)
        )


class TestAdaptiveSimulation:
    def test_network_delivers_with_west_first(self):
        net = make_network_config(4, 4)
        sim = make_sim(net, injection_rate=0.08, measure=1200,
                       routing_kind="west_first")
        res = sim.run()
        assert res.drained and not res.blocked
        assert res.stats.packets_ejected == res.stats.packets_created

    def test_protected_west_first_under_faults(self):
        net = make_network_config(4, 4)
        from repro.faults.injector import RandomFaultSchedule

        inj = RandomFaultSchedule(
            net.router, net.num_nodes, mean_interval=20, num_faults=12,
            rng=3, first_fault_at=0, avoid_failure=True,
        )
        sim = make_sim(net, protected=True, injection_rate=0.08,
                       measure=1500, routing_kind="west_first",
                       fault_schedule=inj)
        res = sim.run()
        assert res.drained and not res.blocked

    def test_adaptive_routes_around_dead_output(self):
        """Fault-aware routing: with XY a dead east output on the path
        strands south-east-bound packets; west-first detours south."""
        net = make_network_config(4, 4)
        victim = net.node_id(1, 1)
        # kill the east output entirely: normal mux + secondary circuitry
        faults = [
            (0, FaultSite(victim, FaultUnit.XB_MUX, PORT_EAST)),
            (0, FaultSite(victim, FaultUnit.XB_SECONDARY, PORT_EAST)),
        ]
        from repro.router.flit import Packet
        from repro.traffic.generator import TraceTraffic

        # packets from (0,1) to (3,2): XY would cross the victim eastward
        pkts = [
            Packet(src=net.node_id(0, 1), dest=net.node_id(3, 2),
                   size_flits=1, creation_cycle=10 + i)
            for i in range(20)
        ]

        def run(kind):
            sim = make_sim(
                net, protected=True, traffic=TraceTraffic(list(pkts)),
                warmup=0, measure=400, drain=3000, watchdog=1000,
                fault_schedule=permanent_faults(faults),
                routing_kind=kind,
            )
            return sim.run()

        import repro.router.flit as flit_mod

        xy = run("xy")
        # re-create identical packets (ids differ, timing identical)
        pkts = [
            Packet(src=net.node_id(0, 1), dest=net.node_id(3, 2),
                   size_flits=1, creation_cycle=10 + i)
            for i in range(20)
        ]
        wf = run("west_first")
        # XY strands the packets at the dead output
        assert xy.blocked or xy.stats.packets_ejected < xy.stats.packets_created
        # west-first delivers them all by detouring
        assert not wf.blocked
        assert wf.stats.packets_ejected == wf.stats.packets_created
        del flit_mod

    def test_adaptive_prefers_credit_rich_outputs(self):
        """Direct unit check: with equal plans, the RC unit picks the
        candidate with more downstream credits."""
        from conftest import SingleRouterHarness
        from repro.router.flit import Flit, FlitType

        h = SingleRouterHarness(protected=True)
        h.router.routing = WestFirstRouting(h.net)
        # dest south-east of node 4 (centre of 3x3): candidates E and S
        dest = 8  # (2,2)
        flit = Flit(FlitType.HEAD_TAIL, 0, 4, dest)
        # drain east credits so south looks better
        for d in range(h.net.router.num_vcs):
            h.router.out_ports[PORT_EAST].credits[d] = 0
        assert h.router.rc_unit.select_route(flit) == PORT_SOUTH
