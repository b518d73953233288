"""The paper's tolerance table as an attack catalogue (Section VIII).

Every numbered case is one call to :meth:`TestCatalogue.run_attack` with a
set of fault sites on the probe router and whether the protected router
must survive them.  Each case is checked two ways:

* the Section VIII predicate, ``core.failure.protected_router_failed``;
* a live :class:`ProtectedRouter`, probed flow by flow with
  ``reliability.spf_simulation.functional_failure``.

The XB / SA2 rows are also checked a third way: a width-1 protected lane's
path plans after ``_set_site`` must equal the live router's, and every
output must have one exactly when the case survives.  That holds the
secondary-path rule (``router.crossbar.carrier_port``) from outside, on
both engines.

:class:`TestZeroLoadPenalties` pins each survivable mechanism's cycle
cost (DESIGN.md section 1) on both engines.
"""

import pytest

from repro.config import (
    PORT_EAST,
    PORT_LOCAL,
    PORT_WEST,
    NetworkConfig,
    RouterConfig,
    SimulationConfig,
)
from repro.core.failure import protected_router_failed
from repro.core.ft_crossbar import secondary_source
from repro.core.protected_router import ProtectedRouter, protected_router_factory
from repro.faults import FaultTimeline, TimelineEvent
from repro.faults.sites import FaultSite, FaultUnit, RouterFaultState
from repro.network.batched import BatchedLaneEngine, LaneSpec, run_lanes
from repro.network.simulator import NoCSimulator
from repro.reliability.spf_simulation import _PROBE_NODE, functional_failure
from repro.router.flit import Packet
from repro.router.routing import XYRouting
from repro.traffic.generator import NullTraffic, TraceTraffic

NET = NetworkConfig(width=3, height=3)
P = NET.router.num_ports
V = NET.router.num_vcs
#: the input port the per-port rows attack
PORT = PORT_WEST


def rc(port, duplicate=False):
    unit = FaultUnit.RC_DUPLICATE if duplicate else FaultUnit.RC_PRIMARY
    return FaultSite(_PROBE_NODE, unit, port)


def va1(port, vc):
    return FaultSite(_PROBE_NODE, FaultUnit.VA1_ARBITER_SET, port, vc)


def sa1(port, bypass=False):
    unit = FaultUnit.SA1_BYPASS if bypass else FaultUnit.SA1_ARBITER
    return FaultSite(_PROBE_NODE, unit, port)


def mux(k):
    return FaultSite(_PROBE_NODE, FaultUnit.XB_MUX, k)


def muxes(*paper_names):
    """The paper's 1-based mux names M1..M5 as 0-based sites."""
    return [mux(m - 1) for m in paper_names]


def secondary(k):
    return FaultSite(_PROBE_NODE, FaultUnit.XB_SECONDARY, k)


def sa2(k):
    return FaultSite(_PROBE_NODE, FaultUnit.SA2_ARBITER, k)


_XB_UNITS = (FaultUnit.XB_MUX, FaultUnit.XB_SECONDARY, FaultUnit.SA2_ARBITER)


class TestCatalogue:
    def run_attack(self, sites, expect_pass):
        faults = RouterFaultState(NET.router)
        router = ProtectedRouter(_PROBE_NODE, NET.router, XYRouting(NET))
        for site in sites:
            faults.inject(site)
            router.inject_fault(site)
        assert protected_router_failed(faults) is not expect_pass, "predicate"
        assert functional_failure(router, NET) is not expect_pass, "live router"
        if all(site.unit in _XB_UNITS for site in sites):
            engine = BatchedLaneEngine(
                NET, SimulationConfig(), [LaneSpec(NullTraffic())], "protected"
            )
            engine._install_lane(0, engine.lanes[0], 0)
            for site in sites:
                engine._set_site(0, site, True)
            for k in range(P):
                plan = router.crossbar.plan_path(k)
                lane = (
                    bool(engine.plan_ok[0, _PROBE_NODE, k]),
                    int(engine.plan_arb[0, _PROBE_NODE, k]),
                    bool(engine.plan_sec[0, _PROBE_NODE, k]),
                )
                if plan is None:
                    assert not lane[0], f"lane plan of output {k}"
                else:
                    assert lane == (True, plan.arb_port, plan.secondary), k
            assert bool(engine.plan_ok[0, _PROBE_NODE].all()) is expect_pass, "lane"

    # RC: the duplicate unit (Section VIII-A)
    def test_01_rc_primary_alone(self): self.run_attack([rc(PORT)], True)
    def test_02_rc_primary_and_duplicate(self): self.run_attack([rc(PORT), rc(PORT, True)], False)
    def test_03_rc_primary_everywhere(self): self.run_attack([rc(p) for p in range(P)], True)

    # VA stage 1: arbiter sharing (Section VIII-B)
    def test_04_va1_all_but_one_set(self): self.run_attack([va1(PORT, v) for v in range(V - 1)], True)
    def test_05_va1_all_but_the_first_set(self): self.run_attack([va1(PORT, v) for v in range(1, V)], True)
    def test_06_va1_every_set(self): self.run_attack([va1(PORT, v) for v in range(V)], False)

    # SA stage 1: the bypass path (Section VIII-C)
    def test_07_sa1_arbiter_alone(self): self.run_attack([sa1(PORT)], True)
    def test_08_sa1_arbiter_and_bypass(self): self.run_attack([sa1(PORT), sa1(PORT, True)], False)
    def test_09_sa1_arbiter_everywhere(self): self.run_attack([sa1(p) for p in range(P)], True)

    # XB / SA2 survivors: the secondary path (Section VIII-D)
    def test_10_mux_m1(self): self.run_attack(muxes(1), True)
    def test_11_mux_m2(self): self.run_attack(muxes(2), True)
    def test_12_mux_m3(self): self.run_attack(muxes(3), True)
    def test_13_mux_m4(self): self.run_attack(muxes(4), True)
    def test_14_mux_m5(self): self.run_attack(muxes(5), True)
    def test_15_paper_pair_m2_m4(self): self.run_attack(muxes(2, 4), True)
    def test_16_secondary_circuitry_alone(self): self.run_attack([secondary(2)], True)

    # XB / SA2 failures
    def test_17_paper_pair_plus_m1(self): self.run_attack(muxes(2, 4, 1), False)
    def test_18_paper_pair_plus_m3(self): self.run_attack(muxes(2, 4, 3), False)
    def test_19_paper_pair_plus_m5(self): self.run_attack(muxes(2, 4, 5), False)
    def test_20_each_mux_with_its_source(self):
        for k in range(P):
            self.run_attack([mux(k), mux(secondary_source(k, P))], False)
    def test_21_each_sa2_with_its_source_mux(self):
        for k in range(P):
            self.run_attack([sa2(k), mux(secondary_source(k, P))], False)
    def test_22_each_mux_with_its_sources_sa2(self):
        for k in range(P):
            self.run_attack([mux(k), sa2(secondary_source(k, P))], False)
    def test_23_each_mux_with_its_secondary_circuitry(self):
        for k in range(P):
            self.run_attack([mux(k), secondary(k)], False)


# -- zero-load cycle penalties ------------------------------------------------

MESH = NetworkConfig(width=4, height=4)
#: two vnets of two VCs each: the NIC puts one packet per vnet on slots 0
#: and 2 of its router's local port, siblings that can lend to each other
MESH_2VN = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2))
ZERO_LOAD = SimulationConfig(
    warmup_cycles=0, measure_cycles=60, drain_cycles=200, watchdog_cycles=100
)
#: the flow: node 4 east along its row to node 7, through routers 5 and 6
FLOW = (4, 7, 0)
#: a second flow out of node 4's local port, on vnet 1, south to node 12
SIBLING = (4, 12, 1)


def latencies(net, flows, sites, created=0):
    """Per-packet network latency and the fabric's ``router_stats`` of one
    zero-load run, equal on both engines: ``_run_stepped()`` and a
    width-1 lane."""
    out = []
    for engine in ("stepped", "lane"):
        traffic = TraceTraffic([
            Packet(src=src, dest=dest, size_flits=1, vnet=vnet,
                   creation_cycle=created, packet_id=i)
            for i, (src, dest, vnet) in enumerate(flows)
        ])
        timeline = FaultTimeline([TimelineEvent(0, site) for site in sites])
        factory = protected_router_factory(net)
        if engine == "stepped":
            result = NoCSimulator(
                net, ZERO_LOAD, traffic, router_factory=factory,
                fault_schedule=timeline, keep_samples=True,
            )._run_stepped()
        else:
            (result,) = run_lanes(
                net, ZERO_LOAD, [LaneSpec(traffic, timeline)],
                router_factory=factory, keep_samples=True,
            )
        assert result.drained, engine
        lat = {s.packet_id: s.network_latency for s in result.stats.samples}
        out.append((lat, result.router_stats))
    assert out[0] == out[1], "engines disagree"
    return out[0]


class TestZeroLoadPenalties:
    """One packet (two for the busy lender), its faults landed at cycle 0,
    and its latency against the same run fault-free."""

    def penalty(self, sites, net=MESH, flows=(FLOW,), created=0, packet=0):
        """Extra cycles of packet ``packet``, and the faulty run's stats."""
        clean, _ = latencies(net, flows, [], created)
        faulty, stats = latencies(net, flows, sites, created)
        return faulty[packet] - clean[packet], stats

    def test_va2_retry_costs_one_cycle(self):
        # stage 1 proposes downstream VC 0 first; its stage-2 arbiter is
        # dead, so the head retries with VC 1 the next cycle
        cost, stats = self.penalty([FaultSite(5, FaultUnit.VA2_ARBITER, PORT_EAST, 0)])
        assert (cost, stats.va_stage2_fault_retries) == (1, 1)

    @pytest.mark.parametrize("created, cost", [
        (24, 0),  # router 5's SA runs at cycle 32: slot 0 is the default
        (0, 1),   # SA at cycle 8: default slot 1, one transfer
        # SA at cycle 15, the last of default 1's period: the transfer
        # lands as the default moves on to slot 2, and a second follows
        (7, 2),
    ])
    def test_sa1_bypass_and_transfer_cost(self, created, cost):
        # the rotating default winner is (cycle // 8) % 4; the packet's VC
        # sits in slot 0 of router 5's west port
        site = FaultSite(5, FaultUnit.SA1_ARBITER, PORT_WEST)
        penalty, stats = self.penalty([site], created=created)
        assert (penalty, stats.vc_transfers, stats.sa_bypass_grants) == (cost, cost, 1)

    def test_va1_borrow_from_an_idle_lender_is_free(self):
        # Scenario 1: VC 1 of the port is idle and lends in the same cycle
        cost, stats = self.penalty([FaultSite(5, FaultUnit.VA1_ARBITER_SET, PORT_WEST, 0)])
        assert (cost, stats.va_borrowed_grants, stats.va_borrow_wait_cycles) == (0, 1, 0)

    def test_va1_borrow_from_an_allocated_lender_is_free(self):
        # only slot 0 of node 4's local port keeps its arbiters; its packet
        # won VA the cycle before, so it lends while in switch allocation
        sites = [FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_LOCAL, v) for v in (1, 2, 3)]
        cost, stats = self.penalty(sites, MESH_2VN, (FLOW, SIBLING), packet=1)
        assert (cost, stats.va_borrowed_grants, stats.va_borrow_wait_cycles) == (0, 1, 0)

    def test_va1_borrow_from_a_lender_in_va_costs_one_cycle(self):
        # Scenario 2: as above, but the lender's own VA is retried once (a
        # dead stage-2 arbiter), so it is in VA on the borrower's VA cycle:
        # the borrower waits one cycle
        sites = [FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_LOCAL, v) for v in (1, 2, 3)]
        sites.append(FaultSite(4, FaultUnit.VA2_ARBITER, PORT_EAST, 0))
        cost, stats = self.penalty(sites, MESH_2VN, (FLOW, SIBLING), packet=1)
        assert (cost, stats.va_borrowed_grants, stats.va_borrow_wait_cycles) == (1, 1, 1)

    def test_va1_borrow_ahead_of_its_lender_costs_two_cycles(self):
        # the paper states no cost for this order.  Only slot 2 (vnet 1)
        # keeps its arbiters, and its head arrives a cycle after the
        # borrower's (slot 0, vnet 0): on the borrower's first VA cycle the
        # lender is in RC, on its second in VA.  The model lends only from
        # an idle VC or one in switch allocation, so the borrower waits two
        # cycles; a set is never used by two VCs in one cycle
        sites = [FaultSite(4, FaultUnit.VA1_ARBITER_SET, PORT_LOCAL, v) for v in (0, 1, 3)]
        cost, stats = self.penalty(sites, MESH_2VN, (FLOW, SIBLING), packet=0)
        assert (cost, stats.va_borrowed_grants, stats.va_borrow_wait_cycles) == (2, 1, 2)

    def test_rc_duplicate_costs_nothing(self):
        # the paper states no cycle cost: the duplicate is a spatial spare
        # that computes in the primary's cycle (Section VI-B: "negligible
        # impact on the critical path"), and the model charges none
        cost, stats = self.penalty([FaultSite(5, FaultUnit.RC_PRIMARY, PORT_WEST)])
        assert (cost, stats.rc_duplicate_computations) == (0, 1)

    @pytest.mark.parametrize("unit", [FaultUnit.XB_MUX, FaultUnit.SA2_ARBITER])
    def test_secondary_path_costs_nothing(self, unit):
        # the paper states no cycle cost, only a longer XB critical path:
        # the flit wins the neighbour's arbiter and crosses its mux in the
        # normal SA and XB cycles, so at zero load the model charges none
        cost, stats = self.penalty([FaultSite(5, unit, PORT_EAST)])
        assert (cost, stats.secondary_path_grants) == (0, 1)
