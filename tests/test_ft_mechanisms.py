"""Behavioural tests of each protected-router mechanism (paper Section V).

Each test injects one class of fault into a single protected router and
checks both that traffic keeps flowing and that the *specific* mechanism
(duplicate RC, arbiter borrowing, bypass, transfer, secondary path) did
the work, via the router's statistics counters.
"""

import pytest

from repro.config import PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH, PORT_WEST
from repro.faults.sites import FaultSite, FaultUnit
from repro.router.flit import Packet
from repro.router.vc import VCState

from conftest import SingleRouterHarness


@pytest.fixture
def h():
    return SingleRouterHarness(protected=True)


class TestDuplicateRC:
    def test_primary_fault_uses_duplicate(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, PORT_WEST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        assert h.run_until_delivered(1)
        assert h.router.stats.rc_duplicate_computations >= 1
        assert h.sched.delivered[0][1] == PORT_EAST  # correct route

    def test_no_latency_penalty(self, h):
        """Spatial redundancy: same 4-cycle head pipeline as fault-free."""
        h.router.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, PORT_WEST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(4)
        assert len(h.sched.delivered) == 1

    def test_both_units_dead_blocks_port(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, PORT_WEST))
        h.router.inject_fault(FaultSite(4, FaultUnit.RC_DUPLICATE, PORT_WEST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(20)
        assert not h.sched.delivered
        assert h.router.stats.rc_blocked_cycles > 0
        assert h.router.failed and "RC" in h.router.failed_stages

    def test_other_ports_unaffected(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, PORT_WEST))
        h.router.inject_fault(FaultSite(4, FaultUnit.RC_DUPLICATE, PORT_WEST))
        h.inject(PORT_NORTH, 0, Packet(src=1, dest=5, size_flits=1))
        assert h.run_until_delivered(1)


class TestVAArbiterSharing:
    def test_borrowing_allows_allocation(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, 0))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        assert h.run_until_delivered(1)
        assert h.router.stats.va_borrowed_grants >= 1

    def test_scenario1_same_cycle_when_lender_idle(self, h):
        """Lender idle: allocation completes with no extra cycles (4-stage
        head pipeline preserved)."""
        h.router.inject_fault(FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, 0))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(4)
        assert len(h.sched.delivered) == 1

    def test_scenario2_waits_for_busy_lender(self, h):
        """Every healthy sibling is itself in VA the same cycle: the
        borrower must wait (lenders allocate first, Section V-B1)."""
        h.router.inject_fault(FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, 0))
        # heads on all four VCs of the port arrive together: VC1..VC3 are
        # healthy and enter VA simultaneously, leaving VC0 nothing to borrow
        for v in range(4):
            h.inject(PORT_WEST, v, Packet(src=3, dest=5, size_flits=1))
        h.step(15)
        assert len(h.sched.delivered) == 4
        assert h.router.stats.va_borrow_wait_cycles >= 1
        assert h.router.stats.va_borrowed_grants >= 1

    def test_borrow_fields_used_and_cleared(self, h):
        """A borrow is granted in its VA cycle and holds nothing after it:
        the lender's set lends again to the next borrower the next cycle."""
        for v in (0, 2):
            h.router.inject_fault(
                FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, v)
            )
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(1)  # RC of VC0
        h.inject(PORT_WEST, 2, Packet(src=3, dest=5, size_flits=1))
        h.step(1)  # VA of VC0 on VC1's set; RC of VC2
        assert h.router.stats.va_borrowed_grants == 1
        assert h.router.in_ports[PORT_WEST].by_wire(0).state == VCState.ACTIVE
        h.step(1)  # VA of VC2, again on VC1's set
        assert h.router.stats.va_borrowed_grants == 2
        assert h.router.stats.va_borrow_wait_cycles == 0
        assert h.router.in_ports[PORT_WEST].by_wire(2).state == VCState.ACTIVE

    def test_all_sets_faulty_blocks_port(self, h):
        for v in range(4):
            h.router.inject_fault(
                FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, v)
            )
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(20)
        assert not h.sched.delivered
        assert h.router.failed and "VA" in h.router.failed_stages

    def test_three_faulty_sets_still_work(self, h):
        """Section VIII-B: 3 faults per port are tolerated."""
        for v in range(3):
            h.router.inject_fault(
                FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, v)
            )
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        assert h.run_until_delivered(1)
        assert not h.router.failed


class TestVAStage2Retry:
    def test_retry_picks_other_downstream_vc(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.VA2_ARBITER, PORT_EAST, 0))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        assert h.run_until_delivered(1)
        vc_used = h.sched.delivered[0][2]
        assert vc_used != 0
        assert h.router.stats.va_stage2_fault_retries >= 0  # may pick 1 first

    def test_forced_retry_costs_one_cycle(self, h):
        """Force the stage-1 arbiter to pick the faulty downstream VC first:
        head needs exactly one extra cycle (Section V-B3)."""
        h.router.inject_fault(FaultSite(4, FaultUnit.VA2_ARBITER, PORT_EAST, 0))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(4)  # would have delivered in a fault-free run...
        delivered_at_4 = len(h.sched.delivered)
        h.step(1)
        # stage-1 round-robin starts at dvc 0 (the faulty one), so the
        # first attempt failed and the retry added exactly one cycle.
        assert delivered_at_4 == 0
        assert len(h.sched.delivered) == 1
        assert h.router.stats.va_stage2_fault_retries == 1

    def test_exclusion_prevents_livelock(self, h):
        """With every dvc arbiter except one faulty, allocation still
        converges (exclusion set skips known-bad arbiters)."""
        for d in range(3):
            h.router.inject_fault(FaultSite(4, FaultUnit.VA2_ARBITER, PORT_EAST, d))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        assert h.run_until_delivered(1, max_cycles=30)
        assert h.sched.delivered[0][2] == 3


class TestSABypass:
    def test_bypass_keeps_port_flowing(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=2))
        assert h.run_until_delivered(2, max_cycles=100)
        assert h.router.stats.sa_bypass_grants >= 1

    def test_transfer_moves_flits_to_default_slot(self, h):
        """Flits in a non-default VC get transferred (slot swap) and then
        flow via the bypass."""
        h.router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST))
        h.inject(PORT_WEST, 3, Packet(src=3, dest=5, size_flits=2))
        assert h.run_until_delivered(2, max_cycles=100)
        assert h.router.stats.vc_transfers >= 1

    def test_arbiter_and_bypass_dead_blocks_port(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST))
        h.router.inject_fault(FaultSite(4, FaultUnit.SA1_BYPASS, PORT_WEST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(30)
        assert not h.sched.delivered
        assert h.router.failed and "SA" in h.router.failed_stages

    def test_rotation_serves_multiple_vcs(self):
        """With the arbiter bypassed, traffic on two VCs still both drain
        thanks to default-winner rotation + transfers."""
        h = SingleRouterHarness(protected=True, bypass_rotation_period=4)
        h.router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=2))
        h.inject(PORT_WEST, 1, Packet(src=3, dest=7, size_flits=2))
        assert h.run_until_delivered(4, max_cycles=200)

    def test_fault_free_protected_router_never_bypasses(self, h):
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=3))
        assert h.run_until_delivered(3)
        assert h.router.stats.sa_bypass_grants == 0
        assert h.router.stats.vc_transfers == 0


class TestXBSecondaryPath:
    def test_mux_fault_uses_secondary(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_EAST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=2))
        assert h.run_until_delivered(2)
        assert h.router.stats.secondary_path_grants >= 2
        # flits still arrive on the EAST link
        assert all(d[1] == PORT_EAST for d in h.sched.delivered)

    def test_sp_fsp_fields_set(self, h):
        """The plan plays the paper's SP/FSP fields: a routed head bids
        for the secondary-source arbiter through the secondary path."""
        h.router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_EAST))
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=1))
        h.step(1)  # RC
        vc = h.router.in_ports[PORT_WEST].by_wire(0)
        assert vc.route == PORT_EAST
        plan = h.router.crossbar.plan_path(PORT_EAST)
        assert plan.secondary is True
        assert plan.arb_port == plan.mux == PORT_EAST - 1  # secondary source
        assert plan.dest == PORT_EAST

    def test_secondary_contends_with_host_port_traffic(self, h):
        """Traffic redirected through mux j competes with native traffic to
        output j: both still drain, one flit per mux per cycle."""
        h.router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_SOUTH))
        # native traffic to the secondary-source port (SOUTH-1 == EAST)
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=3))
        # traffic to SOUTH, which must borrow EAST's mux
        h.inject(PORT_NORTH, 0, Packet(src=1, dest=7, size_flits=3))
        assert h.run_until_delivered(6, max_cycles=100)
        east = [d for d in h.sched.delivered if d[1] == PORT_EAST]
        south = [d for d in h.sched.delivered if d[1] == PORT_SOUTH]
        assert len(east) == 3 and len(south) == 3

    def test_normal_plus_secondary_dead_blocks_output(self, h):
        h.router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_SOUTH))
        h.router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_SOUTH - 1))
        h.inject(PORT_NORTH, 0, Packet(src=1, dest=7, size_flits=1))
        h.step(30)
        assert not h.sched.delivered
        assert h.router.stats.unreachable_output_cycles > 0
        assert h.router.failed and "XB" in h.router.failed_stages


class TestMultiStageFaults:
    def test_one_fault_per_stage_tolerated(self, h):
        """The paper's headline: one fault in each stage (4 total) is
        tolerated simultaneously."""
        h.router.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, PORT_WEST))
        h.router.inject_fault(FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_WEST, 0))
        h.router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_WEST))
        h.router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_EAST))
        assert not h.router.failed
        h.inject(PORT_WEST, 0, Packet(src=3, dest=5, size_flits=3))
        assert h.run_until_delivered(3, max_cycles=200)

    def test_max_tolerated_faults_27(self, h):
        """Section VIII-E: 5 (RC) + 15 (VA) + 5 (SA) + 2 (XB) = 27 faults
        tolerated simultaneously (paper accounting for XB)."""
        r = h.router
        for p in range(5):
            r.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, p))
        for p in range(5):
            for v in range(3):  # 3 of 4 arbiter sets per port
                r.inject_fault(FaultSite(4, FaultUnit.VA1_ARBITER_SET, p, v))
        for p in range(5):
            r.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, p))
        # paper's tolerable XB pair: M2 and M4 (0-based 1 and 3)
        r.inject_fault(FaultSite(4, FaultUnit.XB_MUX, 1))
        r.inject_fault(FaultSite(4, FaultUnit.XB_MUX, 3))
        assert r.faults.num_faults == 27
        assert not r.failed
        # traffic still flows end to end
        h.inject(PORT_WEST, 3, Packet(src=3, dest=5, size_flits=2))
        assert h.run_until_delivered(2, max_cycles=300)
