"""Edge-case tests for the simulator: watchdog, drain budget, hooks,
event-scheduler internals, and per-vnet statistics."""

import pytest

from repro.config import NetworkConfig, PORT_WEST, RouterConfig, SimulationConfig
from repro.faults.sites import FaultSite, FaultUnit
from repro.network.simulator import NoCSimulator
from repro.router.flit import Packet
from repro.traffic.generator import COHERENCE_MIX, SyntheticTraffic, TraceTraffic

from conftest import make_network_config, make_sim, permanent_faults


class TestWatchdog:
    def test_watchdog_trips_on_wedged_baseline(self):
        net = make_network_config(3, 3)
        inj = permanent_faults(
            [(10, FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST))]
        )
        sim = make_sim(
            net, protected=False, injection_rate=0.15, measure=3000,
            drain=500, watchdog=400, fault_schedule=inj,
        )
        res = sim.run()
        assert res.blocked
        # the run never exceeds its cycle budget
        assert res.cycles <= 100 + 3000 + 500 + 1

    def test_watchdog_does_not_trip_on_healthy_network(self):
        net = make_network_config(3, 3)
        sim = make_sim(net, injection_rate=0.08, measure=1500, watchdog=300)
        res = sim.run()
        assert not res.blocked

    def test_hop_progress_counts_even_without_ejections(self):
        """Regression: a live packet forwarding hop-by-hop must not be
        flagged as blocked just because no flit ejects within the
        watchdog window.  A corner-to-corner packet on a 4x4 mesh takes
        ~35 cycles before its first ejection; with a 10-cycle watchdog
        the link deliveries along the way are the only progress signal."""
        net = make_network_config(4, 4)
        pkt = Packet(src=0, dest=15, size_flits=1, creation_cycle=0)
        sim = make_sim(
            net, traffic=TraceTraffic([pkt]), warmup=0, measure=5,
            drain=200, watchdog=10,
        )
        res = sim.run()
        assert not res.blocked
        assert res.drained
        assert res.stats.packets_ejected == 1


class TestDrain:
    def test_drain_budget_exhaustion_reported(self):
        """A wedged packet with a drain budget too small to notice via
        watchdog: drained=False, blocked may also flag."""
        net = make_network_config(3, 3)
        inj = permanent_faults([
            (0, FaultSite(4, FaultUnit.RC_PRIMARY, PORT_WEST)),
        ])
        pkt = Packet(src=3, dest=5, size_flits=1, creation_cycle=10)
        sim = make_sim(
            net, protected=False, traffic=TraceTraffic([pkt]), warmup=0,
            measure=100, drain=50, watchdog=10_000,
            fault_schedule=inj,
        )
        res = sim.run()
        assert not res.drained

    def test_zero_drain_budget(self):
        net = make_network_config(3, 3)
        pkt = Packet(src=0, dest=1, size_flits=1, creation_cycle=5)
        sim = make_sim(net, traffic=TraceTraffic([pkt]), warmup=0,
                       measure=100, drain=0)
        res = sim.run()
        # measurement window was long enough: everything already done
        assert res.drained

    def test_drain_deadline_checks_nic_queues(self):
        """Regression: at the drain deadline a run must not report
        drained=True while packets still wait in NIC source queues, even
        with zero flits in flight.  NIC 0 holds no credit on any wire VC,
        so its queued packet can never inject a flit."""
        net = make_network_config(3, 3)
        pkt = Packet(src=0, dest=1, size_flits=1, creation_cycle=0)
        sim = make_sim(net, traffic=TraceTraffic([pkt]), warmup=0,
                       measure=5, drain=30)
        nic = sim.nics[0]
        nic.credits = [0] * len(nic.credits)
        res = sim.run()
        assert nic.queued_packets == 1
        assert not res.drained
        assert not res.blocked  # nothing in flight: not a wedge either


class TestHooks:
    def test_on_eject_sees_every_flit(self):
        net = make_network_config(3, 3)
        seen = []
        sim = make_sim(
            net, injection_rate=0.08, measure=600,
            on_eject=lambda flit, cycle: seen.append(flit.packet_id),
        )
        res = sim.run()
        assert len(seen) == res.stats.flits_ejected


class TestEventScheduler:
    def test_pending_flits_counts_only_flit_events(self):
        net = make_network_config(3, 3)
        sim = make_sim(net, injection_rate=0.1, measure=300)
        sim._step(0, inject_traffic=True)
        for c in range(1, 8):
            sim._step(c, inject_traffic=True)
            assert sim.scheduler.pending_flits() <= sim.scheduler.pending_events
        sim.check_invariants()

    def test_unconnected_edge_send_asserts(self):
        """A routing bug that sends a flit off the mesh edge is caught."""
        net = make_network_config(3, 3)
        sim = make_sim(net, injection_rate=0.0, measure=10)
        sim.scheduler.cycle = 0
        from repro.config import PORT_NORTH
        from repro.router.flit import Flit, FlitType

        with pytest.raises(AssertionError, match="mesh edge"):
            sim.scheduler.deliver_flit(
                0, PORT_NORTH, 0, Flit(FlitType.HEAD_TAIL, 0, 0, 1)
            )


class TestVnetBreakdown:
    def test_breakdown_separates_classes(self):
        net = NetworkConfig(
            width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2)
        )
        traffic = SyntheticTraffic(
            net, injection_rate=0.1, mix=COHERENCE_MIX, rng=3
        )
        sim = make_sim(net, traffic=traffic, measure=1500)
        res = sim.run()
        bd = res.stats.vnet_breakdown()
        assert set(bd) == {0, 1}
        assert bd[0]["packets"] + bd[1]["packets"] == res.stats.measured_packets
        # 5-flit replies (vnet 1) serialise: higher latency than requests
        assert bd[1]["avg_network_latency"] > bd[0]["avg_network_latency"]

    def test_empty_breakdown(self):
        from repro.network.stats import NetworkStats

        assert NetworkStats().vnet_breakdown() == {}
