"""Unit tests for the network interface and the statistics module."""

import math

import pytest

from repro.config import NetworkConfig, PORT_LOCAL, RouterConfig
from repro.network.nic import NetworkInterface
from repro.network.stats import LatencySample, NetworkStats
from repro.router.flit import Packet
from repro.router.router import BaselineRouter
from repro.router.routing import XYRouting


class _NullSched:
    def __init__(self):
        self.nic_credits = []

    def return_nic_credit(self, node, wire_vc):
        self.nic_credits.append((node, wire_vc))


def make_nic(num_vcs=4, num_vnets=1):
    net = NetworkConfig(
        width=3, height=3, router=RouterConfig(num_vcs=num_vcs, num_vnets=num_vnets)
    )
    stats = NetworkStats()
    router = BaselineRouter(4, net.router, XYRouting(net))
    nic = NetworkInterface(4, router, net.router, stats)
    return nic, router, stats


class TestInjection:
    def test_rejects_foreign_packet(self):
        nic, _, _ = make_nic()
        with pytest.raises(ValueError):
            nic.enqueue(Packet(src=0, dest=1, size_flits=1))

    def test_rejects_bad_vnet(self):
        nic, _, _ = make_nic(num_vnets=1)
        with pytest.raises(ValueError):
            nic.enqueue(Packet(src=4, dest=1, size_flits=1, vnet=3))

    def test_one_flit_per_cycle(self):
        nic, router, stats = make_nic()
        nic.enqueue(Packet(src=4, dest=1, size_flits=3))
        nic.step(0)
        assert stats.flits_injected == 1
        nic.step(1)
        nic.step(2)
        assert stats.flits_injected == 3
        assert router.in_ports[PORT_LOCAL].by_wire(0).occupancy == 3

    def test_vc_allocated_per_packet_released_on_tail(self):
        nic, _, _ = make_nic()
        nic.enqueue(Packet(src=4, dest=1, size_flits=2))
        nic.step(0)
        assert nic.active[0] is not None and nic.active[0].wire_vc == 0
        nic.step(1)  # tail leaves the NIC
        assert nic.active[0] is None

    def test_credit_limits_injection(self):
        nic, router, stats = make_nic()
        nic.enqueue(Packet(src=4, dest=1, size_flits=8))
        for c in range(10):
            nic.step(c)
        # buffer depth 4: only 4 flits can enter without credits back
        assert stats.flits_injected == 4
        # a flit leaves the router buffer -> slot frees -> credit to NIC
        router.in_ports[PORT_LOCAL].by_wire(0).dequeue()
        nic.receive_credit(0)
        nic.step(11)
        assert stats.flits_injected == 5

    def test_credit_overflow_detected(self):
        nic, _, _ = make_nic()
        with pytest.raises(AssertionError):
            nic.receive_credit(0)

    def test_two_vnet_round_robin(self):
        nic, router, stats = make_nic(num_vcs=4, num_vnets=2)
        nic.enqueue(Packet(src=4, dest=1, size_flits=2, vnet=0))
        nic.enqueue(Packet(src=4, dest=2, size_flits=2, vnet=1))
        for c in range(4):
            nic.step(c)
        assert stats.flits_injected == 4
        # vnet 0 lands in VCs 0-1, vnet 1 in VCs 2-3
        assert router.in_ports[PORT_LOCAL].by_wire(0).occupancy == 2
        assert router.in_ports[PORT_LOCAL].by_wire(2).occupancy == 2

    def test_packets_injected_requires_head_entering_router(self):
        """Regression: under zero-credit backpressure a packet may win
        NIC-side VC allocation long before its head flit enters the
        router; ``packets_injected`` must count the latter event."""
        nic, router, stats = make_nic(num_vcs=1)
        # packet A consumes all 4 credits of the single wire VC; its tail
        # frees the VC so packet B gets allocated with zero credits left
        nic.enqueue(Packet(src=4, dest=1, size_flits=4))
        nic.enqueue(Packet(src=4, dest=1, size_flits=1))
        for c in range(6):
            nic.step(c)
        assert stats.flits_injected == 4
        assert stats.packets_injected == 1  # B has not entered the router
        # a slot frees downstream -> credit -> B's head really injects
        router.in_ports[PORT_LOCAL].by_wire(0).dequeue()
        nic.receive_credit(0)
        nic.step(6)
        assert stats.flits_injected == 5
        assert stats.packets_injected == 2

    def test_queued_packets_counts_active(self):
        nic, _, _ = make_nic()
        nic.enqueue(Packet(src=4, dest=1, size_flits=3))
        nic.enqueue(Packet(src=4, dest=2, size_flits=1))
        assert nic.queued_packets == 2
        nic.step(0)
        assert nic.queued_packets == 2  # one active, one waiting
        for c in range(1, 6):
            nic.step(c)
        assert nic.queued_packets == 0


class TestEjection:
    def test_misroute_asserts(self):
        nic, _, _ = make_nic()
        flit = next(Packet(src=0, dest=5, size_flits=1).flits())
        with pytest.raises(AssertionError):
            nic.eject(flit, 0, 10, _NullSched())

    def test_ejection_returns_credit_and_records(self):
        nic, _, stats = make_nic()
        sched = _NullSched()
        pkt = Packet(src=0, dest=4, size_flits=2, creation_cycle=0)
        flits = list(pkt.flits())
        for i, f in enumerate(flits):
            f.injection_cycle = 1
            f.hops = 3
            nic.eject(f, 1, 20 + i, sched)
        assert sched.nic_credits == [(4, 1), (4, 1)]
        assert stats.packets_ejected == 1
        assert stats.flits_ejected == 2


class TestNetworkStats:
    def sample(self, create=0, inject=2, eject=30, **kw):
        return LatencySample(
            packet_id=kw.get("pid", 1),
            src=0,
            dest=5,
            vnet=0,
            size_flits=1,
            creation_cycle=create,
            injection_cycle=inject,
            ejection_cycle=eject,
            hops=4,
        )

    def test_window_filtering(self):
        st = NetworkStats()
        st.set_window(100, 200)
        st.record_packet(self.sample(create=50))
        st.record_packet(self.sample(create=150))
        st.record_packet(self.sample(create=250))
        assert st.packets_ejected == 3
        assert st.measured_packets == 1

    def test_latency_aggregates(self):
        st = NetworkStats()
        st.record_packet(self.sample(create=0, inject=2, eject=30))
        st.record_packet(self.sample(create=0, inject=4, eject=20))
        assert st.avg_network_latency == pytest.approx((28 + 16) / 2)
        assert st.avg_total_latency == pytest.approx((30 + 20) / 2)
        assert st.max_network_latency == 28
        assert st.avg_hops == 4

    def test_empty_stats_are_nan(self):
        st = NetworkStats()
        assert math.isnan(st.avg_network_latency)
        assert math.isnan(st.avg_total_latency)

    def test_percentiles_require_samples(self):
        st = NetworkStats()
        with pytest.raises(ValueError):
            st.latency_percentile(99)
        st2 = NetworkStats(keep_samples=True)
        st2.record_packet(self.sample())
        assert st2.latency_percentile(50) == 28

    def test_throughput(self):
        st = NetworkStats()
        st.flits_ejected = 640
        assert st.throughput(100, 64) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            st.throughput(0, 64)

    def test_summary_keys(self):
        st = NetworkStats()
        s = st.summary()
        assert "avg_network_latency" in s and "measured_packets" in s
