"""Tests for fault sites, router fault state, and injection schedules."""

import numpy as np
import pytest

from repro.config import RouterConfig
from repro.faults.injector import RandomFaultSchedule
from repro.faults.sites import (
    FaultSite,
    FaultUnit,
    RouterFaultState,
    enumerate_sites,
)
from repro.faults.timeline import FaultTimeline, TimelineEvent


class TestFaultSite:
    def test_per_vc_units_require_vc(self):
        with pytest.raises(ValueError):
            FaultSite(0, FaultUnit.VA1_ARBITER_SET, 1)

    def test_per_port_units_reject_vc(self):
        with pytest.raises(ValueError):
            FaultSite(0, FaultUnit.SA1_ARBITER, 1, 2)

    def test_describe(self):
        s = FaultSite(12, FaultUnit.VA1_ARBITER_SET, 3, 1)
        assert "router 12" in s.describe()
        assert "p3v1" in s.describe()

    def test_stage_mapping(self):
        assert FaultUnit.RC_PRIMARY.stage == "RC"
        assert FaultUnit.VA2_ARBITER.stage == "VA"
        assert FaultUnit.SA1_BYPASS.stage == "SA"
        assert FaultUnit.XB_SECONDARY.stage == "XB"

    def test_correction_circuitry_flags(self):
        assert FaultUnit.RC_DUPLICATE.is_correction_circuitry
        assert FaultUnit.SA1_BYPASS.is_correction_circuitry
        assert FaultUnit.XB_SECONDARY.is_correction_circuitry
        assert not FaultUnit.RC_PRIMARY.is_correction_circuitry
        assert not FaultUnit.VA1_ARBITER_SET.is_correction_circuitry


class TestEnumerateSites:
    def test_protected_site_count_5port_4vc(self):
        """5+5 RC, 20 VA1, 20 VA2, 5+5 SA1, 5 SA2, 5+5 XB = 75 sites."""
        sites = list(enumerate_sites(RouterConfig(), protected=True))
        assert len(sites) == 75

    def test_baseline_site_count(self):
        """Baseline drops the 15 correction-circuitry sites."""
        sites = list(enumerate_sites(RouterConfig(), protected=False))
        assert len(sites) == 60
        assert not any(s.unit.is_correction_circuitry for s in sites)

    def test_exclude_va2(self):
        sites = list(enumerate_sites(RouterConfig(), include_va2=False))
        assert len(sites) == 55
        assert not any(s.unit == FaultUnit.VA2_ARBITER for s in sites)

    def test_sites_are_unique(self):
        sites = list(enumerate_sites(RouterConfig()))
        assert len(set(sites)) == len(sites)

    def test_router_id_propagates(self):
        sites = list(enumerate_sites(RouterConfig(), router=7))
        assert all(s.router == 7 for s in sites)


class TestRouterFaultState:
    def test_inject_and_lookup(self):
        fs = RouterFaultState(RouterConfig())
        assert fs.inject(FaultSite(0, FaultUnit.SA1_ARBITER, 2))
        assert 2 in fs.sa1
        assert fs.num_faults == 1

    def test_idempotent_injection(self):
        fs = RouterFaultState(RouterConfig())
        site = FaultSite(0, FaultUnit.XB_MUX, 1)
        assert fs.inject(site)
        assert not fs.inject(site)
        assert fs.num_faults == 1

    def test_heal(self):
        fs = RouterFaultState(RouterConfig())
        site = FaultSite(0, FaultUnit.VA1_ARBITER_SET, 1, 2)
        fs.inject(site)
        assert fs.heal(site)
        assert (1, 2) not in fs.va1
        assert fs.num_faults == 0
        assert not fs.heal(site)

    def test_out_of_range_port_rejected(self):
        fs = RouterFaultState(RouterConfig())
        with pytest.raises(ValueError):
            fs.inject(FaultSite(0, FaultUnit.SA1_ARBITER, 5))

    def test_out_of_range_vc_rejected(self):
        fs = RouterFaultState(RouterConfig())
        with pytest.raises(ValueError):
            fs.inject(FaultSite(0, FaultUnit.VA1_ARBITER_SET, 0, 4))

    def test_every_unit_routable(self):
        fs = RouterFaultState(RouterConfig())
        for s in enumerate_sites(RouterConfig()):
            assert fs.inject(s)
        assert fs.num_faults == 75


class TestScheduledInjector:
    def test_due_in_order(self):
        s1 = FaultSite(0, FaultUnit.SA1_ARBITER, 0)
        s2 = FaultSite(0, FaultUnit.SA1_ARBITER, 1)
        inj = FaultTimeline([TimelineEvent(10, s1), TimelineEvent(5, s2)])
        assert inj.next_cycle() == 5
        assert list(inj.events_at(4)) == []
        assert list(inj.events_at(5)) == [s2]
        assert list(inj.events_at(100)) == [s1]
        assert inj.next_cycle() is None

    def test_multiple_same_cycle(self):
        s1 = FaultSite(0, FaultUnit.SA1_ARBITER, 0)
        s2 = FaultSite(1, FaultUnit.SA1_ARBITER, 0)
        inj = FaultTimeline([TimelineEvent(5, s1), TimelineEvent(5, s2)])
        assert len(list(inj.events_at(5))) == 2


class TestRandomInjector:
    def test_deterministic_with_seed(self):
        cfg = RouterConfig()
        a = RandomFaultSchedule(cfg, 16, mean_interval=100, num_faults=5, rng=3)
        b = RandomFaultSchedule(cfg, 16, mean_interval=100, num_faults=5, rng=3)
        assert a.events == b.events

    def test_sites_are_distinct(self):
        inj = RandomFaultSchedule(
            RouterConfig(), 4, mean_interval=50, num_faults=20, rng=1
        )
        sites = [e.site for e in inj.events]
        assert len(set(sites)) == 20

    def test_mean_interval_approximately_respected(self):
        inj = RandomFaultSchedule(
            RouterConfig(), 64, mean_interval=1000, num_faults=200, rng=2
        )
        cycles = [e.cycle for e in inj.events]
        gaps = np.diff([0] + cycles)
        assert 700 < gaps.mean() < 1300

    def test_first_fault_at(self):
        inj = RandomFaultSchedule(
            RouterConfig(), 4, mean_interval=100, num_faults=3, rng=1,
            first_fault_at=42,
        )
        assert inj.events[0].cycle == 42

    def test_too_many_faults_rejected(self):
        with pytest.raises(ValueError):
            RandomFaultSchedule(
                RouterConfig(), 1, mean_interval=10, num_faults=100, rng=0
            )

    def test_unprotected_pool_excludes_correction_sites(self):
        inj = RandomFaultSchedule(
            RouterConfig(), 2, mean_interval=10, num_faults=120, rng=0,
            protected=False,
        )
        assert not any(e.site.unit.is_correction_circuitry for e in inj.events)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomFaultSchedule(RouterConfig(), 4, mean_interval=0, num_faults=1)
        with pytest.raises(ValueError):
            RandomFaultSchedule(RouterConfig(), 4, mean_interval=10, num_faults=-1)

    def test_avoid_failure_keeps_routers_alive(self):
        from repro.core.failure import protected_router_failed
        from repro.faults.sites import RouterFaultState

        cfg = RouterConfig()
        inj = RandomFaultSchedule(
            cfg, 4, mean_interval=10, num_faults=40, rng=11,
            avoid_failure=True,
        )
        states = [RouterFaultState(cfg) for _ in range(4)]
        for site in (e.site for e in inj.events):
            states[site.router].inject(site)
            assert not protected_router_failed(states[site.router], exact=True)

    def test_avoid_failure_can_exhaust(self):
        """Requesting more tolerable faults than exist raises."""
        with pytest.raises(ValueError, match="without failing"):
            RandomFaultSchedule(
                RouterConfig(), 1, mean_interval=10, num_faults=70, rng=0,
                avoid_failure=True,
            )


class TestNullInjector:
    def test_never_due(self):
        """A fault-free schedule is an empty timeline."""
        inj = FaultTimeline(())
        assert inj.next_cycle() is None
        assert list(inj.events_at(0)) == []
        assert list(inj.events_at(10**9)) == []
        assert list(inj.heals_due(10**9)) == []
