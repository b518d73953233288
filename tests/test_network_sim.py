"""End-to-end network simulation tests: delivery, latency, conservation."""

import pytest

from repro.faults.injector import RandomFaultSchedule
from repro.faults.sites import FaultSite, FaultUnit
from repro.network.simulator import NoCSimulator
from repro.router.flit import Packet
from repro.traffic.generator import (
    COHERENCE_MIX,
    SyntheticTraffic,
    TraceTraffic,
)
from repro.traffic.patterns import Transpose

from conftest import make_network_config, make_sim, permanent_faults


class TestBasicDelivery:
    def test_every_packet_delivered(self):
        net = make_network_config(4, 4)
        sim = make_sim(net, injection_rate=0.05, measure=1000)
        res = sim.run()
        assert res.drained and not res.blocked
        assert res.stats.packets_ejected == res.stats.packets_created
        sim.check_invariants()

    def test_single_packet_zero_load_latency(self):
        """One 1-flit packet, one router-to-router hop: each hop costs the
        4 pipeline stages + 1 link cycle, and the final link delivers into
        the destination NIC — 2 routers x 5 cycles = 10."""
        net = make_network_config(4, 4)
        pkt = Packet(src=0, dest=1, size_flits=1, creation_cycle=10)
        sim = make_sim(net, traffic=TraceTraffic([pkt]), warmup=0, measure=50)
        res = sim.run()
        assert res.stats.measured_packets == 1
        assert res.stats.avg_network_latency == 10.0

    def test_multi_flit_serialisation_latency(self):
        """A packet that fits in one VC buffer serialises at 1 flit/cycle:
        the 4-flit tail trails the head by exactly 3 cycles."""
        net = make_network_config(4, 4)
        p1 = Packet(src=0, dest=1, size_flits=1, creation_cycle=10)
        sim1 = make_sim(net, traffic=TraceTraffic([p1]), warmup=0, measure=50)
        lat1 = sim1.run().stats.avg_network_latency
        p4 = Packet(src=0, dest=1, size_flits=4, creation_cycle=10)
        sim4 = make_sim(net, traffic=TraceTraffic([p4]), warmup=0, measure=50)
        lat4 = sim4.run().stats.avg_network_latency
        assert lat4 == lat1 + 3

    def test_packet_longer_than_buffer_pays_credit_stall(self):
        """A 5-flit packet in 4-deep VCs: the 5th flit waits for the credit
        round trip (XB + 1-cycle credit link), adding 2 cycles beyond pure
        serialisation."""
        net = make_network_config(4, 4)
        p1 = Packet(src=0, dest=1, size_flits=1, creation_cycle=10)
        lat1 = make_sim(net, traffic=TraceTraffic([p1]), warmup=0,
                        measure=50).run().stats.avg_network_latency
        p5 = Packet(src=0, dest=1, size_flits=5, creation_cycle=10)
        lat5 = make_sim(net, traffic=TraceTraffic([p5]), warmup=0,
                        measure=50).run().stats.avg_network_latency
        assert lat5 == lat1 + 4 + 2

    def test_latency_grows_with_distance(self):
        net = make_network_config(8, 8)
        lats = []
        for dest in (1, 9, 63):  # 1, 2, 14 hops
            pkt = Packet(src=0, dest=dest, size_flits=1, creation_cycle=0)
            sim = make_sim(net, traffic=TraceTraffic([pkt]), warmup=0, measure=10)
            lats.append(sim.run().stats.avg_network_latency)
        assert lats[0] < lats[1] < lats[2]
        # 5 cycles per router traversed: 14 hops -> 15 routers on the path
        assert lats[2] == 15 * 5

    def test_hops_match_manhattan_distance(self):
        net = make_network_config(6, 6)
        pkt = Packet(src=0, dest=35, size_flits=1, creation_cycle=0)
        sim = make_sim(net, traffic=TraceTraffic([pkt]), warmup=0, measure=10,
                       keep_samples=True)
        res = sim.run()
        # ``hops`` counts router (crossbar) traversals: Manhattan distance
        # (10 links) + the destination router = 11
        assert res.stats.samples[0].hops == 11


class TestLoadBehaviour:
    def test_latency_increases_with_load(self):
        net = make_network_config(4, 4)
        lat = []
        for rate in (0.02, 0.20):
            sim = make_sim(net, injection_rate=rate, measure=1500, seed=3)
            res = sim.run()
            assert not res.blocked
            lat.append(res.stats.avg_network_latency)
        assert lat[1] > lat[0]

    def test_throughput_matches_offered_load_below_saturation(self):
        net = make_network_config(4, 4)
        sim = make_sim(net, injection_rate=0.1, measure=3000, drain=4000, seed=5)
        res = sim.run()
        measured_cycles = 3000
        thr = res.stats.flits_ejected / (measured_cycles * net.num_nodes)
        assert thr == pytest.approx(0.1, rel=0.15)

    def test_coherence_mix_two_vnets(self):
        net = make_network_config(4, 4, num_vcs=4, num_vnets=2)
        traffic = SyntheticTraffic(
            net, injection_rate=0.08, mix=COHERENCE_MIX, rng=9
        )
        sim = make_sim(net, traffic=traffic, measure=1500)
        res = sim.run()
        assert res.drained and not res.blocked
        assert res.stats.packets_ejected == res.stats.packets_created

    def test_transpose_pattern_delivers(self):
        net = make_network_config(4, 4)
        traffic = SyntheticTraffic(
            net, injection_rate=0.05, pattern=Transpose(net), rng=2
        )
        sim = make_sim(net, traffic=traffic, measure=1000)
        res = sim.run()
        assert res.drained
        assert res.stats.packets_ejected == res.stats.packets_created

    def test_bursty_traffic_delivers(self):
        net = make_network_config(4, 4)
        traffic = SyntheticTraffic(
            net, injection_rate=0.05, rng=2, burstiness=0.6
        )
        sim = make_sim(net, traffic=traffic, measure=1500)
        res = sim.run()
        assert res.drained
        assert res.stats.packets_ejected == res.stats.packets_created


class TestProtectedNetwork:
    def test_protected_matches_baseline_when_fault_free(self):
        """Cycle-identical behaviour without faults (Section V-D)."""
        net = make_network_config(4, 4)
        r1 = make_sim(net, protected=False, measure=1200, seed=11).run()
        r2 = make_sim(net, protected=True, measure=1200, seed=11).run()
        assert r1.stats.avg_network_latency == r2.stats.avg_network_latency
        assert r1.stats.packets_ejected == r2.stats.packets_ejected

    def test_network_survives_scattered_faults(self):
        net = make_network_config(4, 4)
        inj = RandomFaultSchedule(
            net.router, net.num_nodes, mean_interval=200, num_faults=10,
            rng=4, first_fault_at=100, avoid_failure=True,
        )
        sim = make_sim(net, protected=True, fault_schedule=inj, measure=2000,
                       drain=4000)
        res = sim.run()
        assert res.faults_injected == 10
        assert not res.blocked
        assert res.stats.packets_ejected == res.stats.packets_created

    def test_faulty_latency_not_less_than_fault_free(self):
        net = make_network_config(4, 4)
        base = make_sim(net, protected=True, measure=2500, seed=21,
                        injection_rate=0.1).run()
        inj = RandomFaultSchedule(
            net.router, net.num_nodes, mean_interval=100, num_faults=12,
            rng=8, first_fault_at=50, avoid_failure=True,
        )
        faulty = make_sim(net, protected=True, fault_schedule=inj,
                          measure=2500, seed=21, injection_rate=0.1).run()
        assert (
            faulty.stats.avg_network_latency
            >= base.stats.avg_network_latency * 0.99
        )


class TestBaselineUnderFaults:
    def test_baseline_blocks_on_sa_fault(self):
        """An unprotected router with a faulty SA arbiter blocks traffic;
        the watchdog detects the stall."""
        net = make_network_config(4, 4)
        # SA arbiter of the west input port of a central router
        inj = permanent_faults(
            [(50, FaultSite(5, FaultUnit.SA1_ARBITER, 4))]
        )
        sim = make_sim(
            net, protected=False, fault_schedule=inj,
            injection_rate=0.1, measure=2000, drain=1500, watchdog=800,
        )
        res = sim.run()
        assert res.blocked or not res.drained

    def test_protected_survives_same_fault(self):
        net = make_network_config(4, 4)
        inj = permanent_faults(
            [(50, FaultSite(5, FaultUnit.SA1_ARBITER, 4))]
        )
        sim = make_sim(
            net, protected=True, fault_schedule=inj,
            injection_rate=0.1, measure=2000, drain=3000, watchdog=800,
        )
        res = sim.run()
        assert res.drained and not res.blocked


class TestWatchdogAndEdges:
    def test_empty_traffic_finishes_immediately(self):
        from repro.traffic.generator import NullTraffic

        net = make_network_config(3, 3)
        sim = make_sim(net, traffic=NullTraffic(), warmup=0, measure=100,
                       drain=100)
        res = sim.run()
        assert res.drained
        assert res.stats.packets_created == 0

    def test_rectangular_mesh_runs(self):
        net = make_network_config(6, 2)
        sim = make_sim(net, injection_rate=0.05, measure=800)
        res = sim.run()
        assert res.drained
        assert res.stats.packets_ejected == res.stats.packets_created

    def test_small_buffers_and_vcs(self):
        net = make_network_config(3, 3, num_vcs=2, buffer_depth=2)
        sim = make_sim(net, injection_rate=0.05, measure=800)
        res = sim.run()
        assert res.drained
        assert res.stats.packets_ejected == res.stats.packets_created
