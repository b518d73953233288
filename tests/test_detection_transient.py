"""Tests for online fault detection (``RecoveryMonitor``) and the
transient-fault extension."""

import pytest

from repro.config import PORT_EAST, PORT_WEST, RouterConfig
from repro.faults.recovery import RecoveryMonitor, watch_counters
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import FaultTimeline, TimelineEvent, random_transients
from repro.router.flit import Packet

from conftest import SingleRouterHarness, make_network_config, make_sim


class TestOnlineDetector:
    """Detection at one router: a fault lands, the monitor polls."""

    def _landed(self, unit, port):
        h = SingleRouterHarness(protected=True)
        mon = RecoveryMonitor()
        site = FaultSite(4, unit, port)
        h.router.inject_fault(site)
        mon.fault_landed(h.router, site, 0)
        return h, mon, mon.records[0]

    def test_rc_fault_detected_when_exercised(self):
        h, mon, rec = self._landed(FaultUnit.RC_PRIMARY, PORT_WEST)
        mon.poll(0)
        assert rec.detected_at is None  # latent until traffic arrives
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(2)
        mon.poll(h.cycle)
        assert rec.detected_at == h.cycle
        assert rec.detection_latency >= 1

    def test_latent_spare_faults_not_observable(self):
        h, mon, rec = self._landed(FaultUnit.RC_DUPLICATE, PORT_WEST)
        assert rec.latent
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(6)
        mon.poll(h.cycle)
        assert rec.detected_at is None

    def test_xb_fault_detected_via_secondary_path(self):
        h, mon, _ = self._landed(FaultUnit.XB_MUX, PORT_EAST)
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(6)
        mon.poll(h.cycle)
        assert h.router.stats.secondary_path_grants > 0
        assert mon.summary()["detected"] == 1
        assert mon.summary()["mean_detection_latency"] >= 1

    def test_no_events_without_faults(self):
        h = SingleRouterHarness(protected=True)
        mon = RecoveryMonitor()
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(6)
        mon.poll(h.cycle)
        assert mon.summary()["events"] == 0
        assert mon.summary()["mean_detection_latency"] is None


def test_watch_counters_for_every_unit():
    """Mechanism counter first, then symptoms, whatever the router kind;
    correction circuitry has none and stays latent."""
    assert {unit: watch_counters(unit) for unit in FaultUnit} == {
        FaultUnit.RC_PRIMARY: ("rc_duplicate_computations", "rc_blocked_cycles"),
        FaultUnit.RC_DUPLICATE: (),
        FaultUnit.VA1_ARBITER_SET: (
            "va_borrowed_grants", "va_blocked_cycles", "va_no_free_vc_cycles",
        ),
        FaultUnit.VA2_ARBITER: (
            "va_stage2_fault_retries", "va_no_free_vc_cycles", "va_blocked_cycles",
        ),
        FaultUnit.SA1_ARBITER: ("sa_bypass_grants", "sa_blocked_cycles"),
        FaultUnit.SA1_BYPASS: (),
        FaultUnit.SA2_ARBITER: ("secondary_path_grants", "sa_blocked_cycles"),
        FaultUnit.XB_MUX: (
            "secondary_path_grants", "unreachable_output_cycles", "sa_blocked_cycles",
        ),
        FaultUnit.XB_SECONDARY: (),
    }


class TestNetworkDetector:
    """Detection across a fabric, through a recovery-log schedule."""

    def test_fleetwide_detection(self):
        net = make_network_config(3, 3)
        site = FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST)
        sim = make_sim(
            net, protected=True, injection_rate=0.1, measure=800,
            fault_schedule=FaultTimeline([TimelineEvent(0, site)], recovery_log=True),
        )
        res = sim.run()
        assert not res.blocked
        log = res.recovery
        assert log["events"] == log["detected"] == 1
        assert log["records"][0]["router"] == 4
        assert log["mean_detection_latency"] > 0


class TestTransientFault:
    def test_validation(self):
        site = FaultSite(0, FaultUnit.SA1_ARBITER, 0)
        with pytest.raises(ValueError):
            TimelineEvent(0, site, transient=True, duration=0)
        with pytest.raises(ValueError):
            TimelineEvent(-1, site, transient=True)

    def test_heal_cycle(self):
        site = FaultSite(0, FaultUnit.SA1_ARBITER, 0)
        t = TimelineEvent(10, site, transient=True, duration=5)
        assert t.heal_cycle == 15
        assert TimelineEvent(10, site).heal_cycle is None  # permanent

    def test_injector_schedules_inject_and_heal(self):
        site = FaultSite(0, FaultUnit.SA1_ARBITER, 0)
        inj = FaultTimeline([TimelineEvent(5, site, transient=True, duration=3)])
        assert list(inj.events_at(4)) == []
        assert list(inj.events_at(5)) == [site]
        assert list(inj.heals_due(7)) == []
        assert list(inj.heals_due(8)) == [site]

    def test_overlapping_transients_merge(self):
        site = FaultSite(0, FaultUnit.SA1_ARBITER, 0)
        inj = FaultTimeline([
            TimelineEvent(5, site, transient=True, duration=3),
            TimelineEvent(6, site, transient=True, duration=10),
        ])
        # heals once, at the later heal time (16)
        assert list(inj.heals_due(15)) == []
        assert list(inj.heals_due(16)) == [site]

    def test_network_recovers_after_transient(self):
        """A transient SA fault degrades then fully heals: the run drains
        and the router ends fault-free."""
        net = make_network_config(3, 3)
        site = FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST)
        inj = FaultTimeline([TimelineEvent(100, site, transient=True, duration=200)])
        sim = make_sim(
            net, protected=True, injection_rate=0.08, measure=1200,
            fault_schedule=inj,
        )
        res = sim.run()
        assert not res.blocked and res.drained
        assert res.stats.packets_ejected == res.stats.packets_created
        assert not sim.routers[4].faults.any_faults  # healed
        assert res.router_stats.sa_bypass_grants > 0  # absorbed meanwhile

    def test_spec_built_schedule_ends_with_zero_faulty_routers(self):
        """A timeline of drawn transients as ``fault_schedule=`` heals
        natively: every injected site is healthy again at end of run."""
        net = make_network_config(3, 3)
        sched = FaultTimeline(
            random_transients(
                net.router, net.num_nodes, 0.02, 300, duration=20, rng=4
            )
        )
        sim = make_sim(
            net, protected=True, injection_rate=0.05, measure=600,
            fault_schedule=sched,
        )
        res = sim.run()
        assert res.faults_injected > 0
        assert [r.node for r in sim.routers if r.faults.any_faults] == []

    def test_random_transients_deterministic(self):
        a = random_transients(RouterConfig(), 4, 0.01, 1000, rng=3)
        b = random_transients(RouterConfig(), 4, 0.01, 1000, rng=3)
        assert a == b and all(t.transient for t in a)
        assert len(a) == pytest.approx(10, abs=8)

    def test_random_transients_validation(self):
        with pytest.raises(ValueError):
            random_transients(RouterConfig(), 4, 1.5, 100)
        with pytest.raises(ValueError):
            random_transients(RouterConfig(), 4, 0.1, 0)

    def test_transient_barrage_preserves_invariants(self):
        net = make_network_config(3, 3)
        transients = random_transients(
            net.router, net.num_nodes, rate_per_cycle=0.02, cycles=800,
            duration=30, rng=7,
        )
        inj = FaultTimeline(transients)
        sim = make_sim(
            net, protected=True, injection_rate=0.06, measure=800,
            drain=6000, fault_schedule=inj, watchdog=5000,
        )
        res = sim.run()
        sim.check_invariants()
        # transients can transiently create a failing combination, but the
        # network must still conserve flits
        assert res.stats.flits_ejected <= res.stats.flits_injected
        if not res.blocked:
            assert res.stats.packets_ejected == res.stats.packets_created
