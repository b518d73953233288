"""Tests for the baseline crossbar and the secondary-path crossbar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.core.ft_crossbar import (
    SecondaryPathCrossbar,
    demux_fanouts,
    max_tolerable_mux_faults,
    reachable_outputs_exact,
    secondary_source,
)
from repro.faults.sites import FaultSite, FaultUnit, RouterFaultState
from repro.router.crossbar import Crossbar


def faults5():
    return RouterFaultState(RouterConfig())


def reachable(xb):
    return [p for p in range(xb.num_ports) if xb.plan_path(p) is not None]


class TestBaselineCrossbar:
    def test_all_reachable_when_healthy(self):
        xb = Crossbar(5, faults5())
        assert reachable(xb) == [0, 1, 2, 3, 4]

    def test_normal_plan(self):
        xb = Crossbar(5, faults5())
        plan = xb.plan_path(3)
        assert (plan.arb_port, plan.mux, plan.dest) == (3, 3, 3)
        assert not plan.secondary

    def test_mux_fault_kills_output(self):
        f = faults5()
        xb = Crossbar(5, f)
        f.inject(FaultSite(0, FaultUnit.XB_MUX, 2))
        xb.notify_fault_change()
        assert xb.plan_path(2) is None
        assert reachable(xb) == [0, 1, 3, 4]

    def test_sa2_fault_kills_output(self):
        f = faults5()
        xb = Crossbar(5, f)
        f.inject(FaultSite(0, FaultUnit.SA2_ARBITER, 4))
        xb.notify_fault_change()
        assert xb.plan_path(4) is None

    def test_plan_cache_invalidation(self):
        f = faults5()
        xb = Crossbar(5, f)
        assert xb.plan_path(1) is not None  # populates cache
        f.inject(FaultSite(0, FaultUnit.XB_MUX, 1))
        xb.notify_fault_change()
        assert xb.plan_path(1) is None

    def test_out_of_range_rejected(self):
        xb = Crossbar(5, faults5())
        with pytest.raises(ValueError):
            xb.plan_path(5)


class TestSecondarySourceMap:
    def test_paper_mapping_0based(self):
        # paper (1-based): secondary(out_k)=M_{k-1} for k>=2, secondary(out_1)=M_2
        assert secondary_source(0, 5) == 1
        assert secondary_source(1, 5) == 0
        assert secondary_source(2, 5) == 1
        assert secondary_source(3, 5) == 2
        assert secondary_source(4, 5) == 3

    def test_demux_inventory_matches_paper(self):
        """Section V-D: one 1:3 demux, three 1:2 demuxes for a 5x5 crossbar."""
        fan = demux_fanouts(5)
        sizes = sorted(fan.values())
        assert sizes == [1, 2, 2, 2, 3]
        # mux 1 (paper's M2) carries its own output + two secondaries
        assert fan[1] == 3
        # mux 4 (paper's M5) feeds nothing extra
        assert fan[4] == 1

    def test_two_ports(self):
        assert secondary_source(0, 2) == 1
        assert secondary_source(1, 2) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            secondary_source(0, 1)
        with pytest.raises(ValueError):
            secondary_source(5, 5)


class TestSecondaryPathCrossbar:
    def test_fault_free_behaves_like_baseline(self):
        """Section V-D: 'In the fault-free scenario, the protected crossbar
        behaves just like the baseline crossbar.'"""
        f = faults5()
        prot = SecondaryPathCrossbar(5, f)
        base = Crossbar(5, faults5())
        for k in range(5):
            assert prot.plan_path(k) == base.plan_path(k)

    def test_paper_example_out3_via_m2(self):
        """Paper example: M3 faulty -> out 3 reached through M2."""
        f = faults5()
        xb = SecondaryPathCrossbar(5, f)
        # paper out3 == 0-based port 2; its mux is 2, secondary source is 1
        f.inject(FaultSite(0, FaultUnit.XB_MUX, 2))
        xb.notify_fault_change()
        plan = xb.plan_path(2)
        assert plan is not None
        assert plan.secondary
        assert plan.arb_port == 1
        assert plan.mux == 1
        assert plan.dest == 2

    def test_sa2_fault_redirects_to_secondary(self):
        """Section V-C2: a faulty output arbiter is tolerated by arbitrating
        for the secondary-source port."""
        f = faults5()
        xb = SecondaryPathCrossbar(5, f)
        f.inject(FaultSite(0, FaultUnit.SA2_ARBITER, 3))
        xb.notify_fault_change()
        plan = xb.plan_path(3)
        assert plan.secondary and plan.arb_port == 2

    def test_double_fault_normal_and_secondary_kills_output(self):
        f = faults5()
        xb = SecondaryPathCrossbar(5, f)
        f.inject(FaultSite(0, FaultUnit.XB_MUX, 3))
        f.inject(FaultSite(0, FaultUnit.XB_MUX, 2))  # secondary source of 3
        xb.notify_fault_change()
        assert xb.plan_path(3) is None

    def test_secondary_circuitry_fault(self):
        f = faults5()
        xb = SecondaryPathCrossbar(5, f)
        f.inject(FaultSite(0, FaultUnit.XB_MUX, 3))
        f.inject(FaultSite(0, FaultUnit.XB_SECONDARY, 3))
        xb.notify_fault_change()
        assert xb.plan_path(3) is None

    def test_paper_m2_m4_tolerable(self):
        """Section VIII-D: M2 and M4 (0-based muxes 1 and 3) faulty is
        tolerable."""
        reach = reachable_outputs_exact(5, mux_faults=frozenset({1, 3}))
        assert all(reach)

    def test_paper_third_fault_fatal(self):
        """With M2, M4 dead, a further fault in M1, M3 or M5 is fatal."""
        for extra in (0, 2, 4):
            reach = reachable_outputs_exact(
                5, mux_faults=frozenset({1, 3, extra})
            )
            assert not all(reach), f"extra mux fault {extra} should be fatal"

    def test_exact_max_exceeds_paper_conservative_two(self):
        """DESIGN.md item 4: exact analysis finds a tolerable 3-fault set
        ({M1, M3, M5}), so the exact max is 3 vs the paper's stated 2."""
        assert max_tolerable_mux_faults(5) == 3
        reach = reachable_outputs_exact(5, mux_faults=frozenset({0, 2, 4}))
        assert all(reach)


class TestReachabilityProperties:
    @given(
        st.frozensets(st.integers(0, 4), max_size=5),
        st.frozensets(st.integers(0, 4), max_size=5),
        st.frozensets(st.integers(0, 4), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_matches_plan_path(self, muxes, secondaries, sa2s):
        """The standalone reachability analysis and the live crossbar's
        plan computation must always agree."""
        f = faults5()
        for m in muxes:
            f.inject(FaultSite(0, FaultUnit.XB_MUX, m))
        for s in secondaries:
            f.inject(FaultSite(0, FaultUnit.XB_SECONDARY, s))
        for a in sa2s:
            f.inject(FaultSite(0, FaultUnit.SA2_ARBITER, a))
        xb = SecondaryPathCrossbar(5, f)
        expected = reachable_outputs_exact(
            5,
            mux_faults=muxes,
            secondary_faults=secondaries,
            sa2_faults=sa2s,
        )
        assert [xb.plan_path(k) is not None for k in range(5)] == expected

    @given(st.integers(2, 9))
    @settings(max_examples=20, deadline=None)
    def test_secondary_source_never_self(self, num_ports):
        for k in range(num_ports):
            assert secondary_source(k, num_ports) != k

    @given(st.integers(2, 9))
    @settings(max_examples=20, deadline=None)
    def test_single_mux_fault_always_tolerated(self, num_ports):
        for m in range(num_ports):
            reach = reachable_outputs_exact(num_ports, mux_faults=frozenset({m}))
            assert all(reach)
