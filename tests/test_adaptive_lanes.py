"""``west_first`` on lanes: the array RC against ``RCUnit.select_route``.

Adaptive routing reads run-time state at RC time — the candidates'
crossbar plans and their output ports' credit sums — so the lane
engine's ``_rc_phase`` carries a second-candidate table and the same
selection key.  Everything here is pinned to ``_step_reference``, field
for field: random loads with and without tolerated faults, the detour
around a dead output, a router with every candidate dead, an RC fault at
the routing port, and the key's tie-breaks one decision at a time.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SingleRouterHarness, permanent_faults
from repro.config import (
    PORT_EAST,
    PORT_SOUTH,
    PORT_WEST,
    NetworkConfig,
    RouterConfig,
    SimulationConfig,
)
from repro.faults.injector import RandomFaultSchedule
from repro.faults.sites import FaultSite, FaultUnit
from repro.network import batched
from repro.network.batched import BatchedLaneEngine, LaneSpec, router_factory, run_lanes
from repro.network.simulator import NoCSimulator
from repro.router.flit import Flit, FlitType, Packet
from repro.router.routing import WestFirstRouting
from repro.traffic.generator import (
    COHERENCE_MIX,
    NullTraffic,
    SyntheticTraffic,
    TraceTraffic,
)

def _key(res):
    return (
        res.cycles, res.drained, res.blocked, res.faults_injected,
        repr(res.stats.summary()), dataclasses.asdict(res.router_stats),
        res.recovery,
    )


def _assert_lanes_equal_reference(net, cfg, make_specs, routing="west_first"):
    """One engine over ``make_specs()`` against ``_step_reference`` on a
    fresh copy of every spec; returns the lane results."""
    lanes = run_lanes(net, cfg, make_specs(), routing_kind=routing)
    for i, (lane, spec) in enumerate(zip(lanes, make_specs())):
        ref = NoCSimulator(
            net, cfg, spec.traffic,
            router_factory=router_factory(spec.router_kind, net),
            fault_schedule=spec.fault_schedule,
            routing_kind=routing,
            use_reference_stepper=True,
        ).run()
        assert _key(lane) == _key(ref), f"lane {i} ({spec.router_kind})"
    return lanes


def _cfg(measure=300, drain=1500, watchdog=4000, warmup=50):
    return SimulationConfig(
        warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain,
        seed=3, watchdog_cycles=watchdog,
    )


# ----------------------------------------------------------------------
# random loads: seeds x {clean, tolerated faults}
# ----------------------------------------------------------------------
@pytest.mark.parametrize("width, rate", [(4, 0.30), (8, 0.08)])
def test_seeds_clean_and_faulted_equal_reference(width, rate):
    net = NetworkConfig(
        width=width, height=width, router=RouterConfig(num_vcs=4, num_vnets=2)
    )

    def specs():
        return [
            LaneSpec(
                SyntheticTraffic(net, injection_rate=rate, mix=COHERENCE_MIX, rng=seed),
                RandomFaultSchedule(
                    net.router, net.num_nodes, mean_interval=15.0,
                    num_faults=2 * net.num_nodes // 4, rng=seed + 50,
                    first_fault_at=20, avoid_failure=True,
                ) if faulted else None,
                "protected",
            )
            for seed in (1, 2, 3)
            for faulted in (False, True)
        ]

    lanes = _assert_lanes_equal_reference(net, _cfg(), specs)
    assert all(lane.drained and not lane.blocked for lane in lanes)
    assert [lane.faults_injected > 0 for lane in lanes] == [False, True] * 3
    # adaptivity was exercised: somewhere a secondary path was in the key
    assert any(lane.router_stats.secondary_path_grants for lane in lanes)


# ----------------------------------------------------------------------
# directed scenarios on the 4x4 of bench_ablation_adaptive_routing.py
# ----------------------------------------------------------------------
NET = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4))
VICTIM = NET.node_id(1, 1)


def _dead(port):
    """An output with neither its mux nor its secondary circuitry."""
    return [
        (0, FaultSite(VICTIM, FaultUnit.XB_MUX, port)),
        (0, FaultSite(VICTIM, FaultUnit.XB_SECONDARY, port)),
    ]


def _diagonal_flows(every=3):
    """SE-bound packets from the victim's west neighbour: XY crosses the
    victim eastward, west-first may also turn south there."""
    return TraceTraffic([
        Packet(src=NET.node_id(0, 1), dest=NET.node_id(3, 2 + (i % 2)),
               size_flits=1, creation_cycle=10 + every * i)
        for i in range(30)
    ])


def _directed(faults, kinds=("protected",), routing="west_first", every=3):
    def specs():
        return [
            LaneSpec(_diagonal_flows(every), permanent_faults(faults), kind)
            for kind in kinds
        ]

    # the inject window holds all thirty packets
    cfg = _cfg(measure=max(400, 20 + 30 * every), drain=1500, watchdog=600, warmup=0)
    return _assert_lanes_equal_reference(NET, cfg, specs, routing)


def test_dead_east_output_detours_south():
    (xy,) = _directed(_dead(PORT_EAST), routing="xy")
    (wf,) = _directed(_dead(PORT_EAST))
    assert xy.blocked and xy.router_stats.unreachable_output_cycles > 0
    assert not wf.blocked and wf.router_stats.unreachable_output_cycles == 0
    assert wf.stats.packets_ejected == wf.stats.packets_created == 30


def test_every_candidate_unreachable_falls_back_to_the_first():
    (wf,) = _directed(_dead(PORT_EAST) + _dead(PORT_SOUTH))
    assert wf.blocked
    assert wf.router_stats.unreachable_output_cycles > 0
    # (a packet that turned south before the victim still arrives)
    assert wf.stats.packets_ejected < wf.stats.packets_created


def test_rc_fault_at_the_routing_port():
    """The flows enter the victim through its west input port: a baseline
    router blocks there, a protected one computes on the duplicate."""
    fault = [(0, FaultSite(VICTIM, FaultUnit.RC_PRIMARY, PORT_WEST))]
    base, prot = _directed(fault, kinds=("baseline", "protected"))
    assert base.blocked and base.router_stats.rc_blocked_cycles > 0
    assert base.router_stats.rc_duplicate_computations == 0
    assert prot.drained and prot.router_stats.rc_blocked_cycles == 0
    assert prot.router_stats.rc_duplicate_computations > 0


def test_a_primary_path_beats_a_secondary_one_at_equal_credits():
    """One packet in flight at a time, so every credit sum is full: with
    the east mux dead (its secondary path alive) XY rides the secondary
    path, west-first prefers the south output's primary one."""
    mux = [(0, FaultSite(VICTIM, FaultUnit.XB_MUX, PORT_EAST))]
    (xy,) = _directed(mux, routing="xy", every=40)
    (wf,) = _directed(mux, every=40)
    assert xy.router_stats.secondary_path_grants == 30
    assert wf.router_stats.secondary_path_grants == 0
    assert xy.drained and wf.drained


# ----------------------------------------------------------------------
# the selection key, one decision at a time
# ----------------------------------------------------------------------
class TestRouteKey:
    """One head flit at the centre of a 3x3, bound south-east (candidates
    east, then south): the lane RC's pick against ``select_route`` on an
    object router in the same state."""

    NODE, DEST, IN_PORT = 4, 8, PORT_WEST

    def _both(self, faults=(), credits=()):
        """(object pick or None when unreachable, lane pick or None)."""
        harness = SingleRouterHarness(protected=True)
        net = harness.net
        router = harness.router
        router.routing = WestFirstRouting(net)
        engine = BatchedLaneEngine(
            net, _cfg(), [LaneSpec(NullTraffic(), None, "protected")],
            routing_kind="west_first",
        )
        engine._install_lane(0, engine.lanes[0], 0)
        for unit, port in faults:
            site = FaultSite(self.NODE, unit, port)
            router.inject_fault(site)
            engine._set_site(0, site, True)
        for port, vc, value in credits:
            router.out_ports[port].credits[vc] = value
            engine.cred[0, self.NODE, port, vc] = value

        out = router.rc_unit.select_route(
            Flit(FlitType.HEAD_TAIL, 0, 0, self.DEST)
        )
        if router.crossbar.plan_path(out) is None:
            out = None

        vc = ((self.NODE * engine.P) + self.IN_PORT) * engine.V
        word = (self.DEST << batched._DEST_SHIFT) + batched._F_HEAD + batched._F_TAIL
        engine._buffer_write(np.array([vc]), np.array([word]))
        engine._rc_phase(0, np.zeros(1, dtype=np.int64))
        routed = engine.st_[vc] == batched._WAITING_VA
        unreach = int(engine.counts()[batched._I_UNREACH].sum())
        assert unreach == (0 if routed else 1)
        # ``route_`` holds the output port id: its index within the router
        return out, int(engine.pidx_of[engine.route_[vc]]) if routed else None

    def test_a_tie_goes_to_the_first_candidate(self):
        assert self._both() == (PORT_EAST, PORT_EAST)

    def test_more_credits_win(self):
        assert self._both(credits=[(PORT_EAST, 0, 3)]) == (PORT_SOUTH, PORT_SOUTH)
        assert self._both(credits=[(PORT_SOUTH, 2, 0)]) == (PORT_EAST, PORT_EAST)

    def test_primary_beats_secondary_whatever_the_credits(self):
        mux = [(FaultUnit.XB_MUX, PORT_EAST)]
        assert self._both(mux) == (PORT_SOUTH, PORT_SOUTH)
        starved = [(PORT_SOUTH, vc, 0) for vc in range(4)]
        assert self._both(mux, starved) == (PORT_SOUTH, PORT_SOUTH)

    def test_a_secondary_second_candidate_loses_whatever_the_credits(self):
        mux = [(FaultUnit.XB_MUX, PORT_SOUTH)]
        starved = [(PORT_EAST, vc, 0) for vc in range(4)]
        assert self._both(mux, starved) == (PORT_EAST, PORT_EAST)

    def test_an_unreachable_candidate_is_skipped(self):
        dead_east = [(FaultUnit.XB_MUX, PORT_EAST), (FaultUnit.XB_SECONDARY, PORT_EAST)]
        starved = [(PORT_SOUTH, vc, 0) for vc in range(4)]
        assert self._both(dead_east, starved) == (PORT_SOUTH, PORT_SOUTH)

    def test_every_candidate_unreachable_routes_nowhere(self):
        dead = [
            (unit, port)
            for port in (PORT_EAST, PORT_SOUTH)
            for unit in (FaultUnit.XB_MUX, FaultUnit.XB_SECONDARY)
        ]
        assert self._both(dead) == (None, None)


# ----------------------------------------------------------------------
# property: any routing, load and tolerated fault count
# ----------------------------------------------------------------------
@given(
    routing=st.sampled_from(["xy", "west_first"]),
    rate=st.floats(0.02, 0.35),
    faults=st.integers(0, 10),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=12, deadline=None)
def test_lanes_equal_reference_for_any_routing_rate_and_fault_count(
    routing, rate, faults, seed
):
    net = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=2))

    def specs():
        return [
            LaneSpec(
                SyntheticTraffic(net, injection_rate=rate, rng=seed),
                RandomFaultSchedule(
                    net.router, net.num_nodes, mean_interval=10.0,
                    num_faults=faults, rng=seed + 1, first_fault_at=10,
                    avoid_failure=(kind == "protected"),
                ) if faults else None,
                kind,
            )
            for kind in ("baseline", "protected")
        ]

    cfg = _cfg(measure=150, drain=600, watchdog=400)
    _assert_lanes_equal_reference(net, cfg, specs, routing)
