"""Ablation (extension): XY vs fault-aware west-first adaptive routing.

The paper's design keeps packets flowing *through* a faulty router via
in-router redundancy; network-level rerouting (Vicis-style) is the
complementary approach.  This bench layers the west-first turn-model
router on top of the protected design and measures both angles:

* fault-free cost: adaptivity is minimal (same hop counts), so the
  latency penalty at moderate load must be small;
* added tolerance: when an output port dies *completely* (normal and
  secondary paths), XY strands its traffic while west-first detours.

Detour scope: the turn model only offers alternatives when another
*productive* direction exists.  Same-row eastbound traffic through the
dead port has none and strands under either routing, so the tolerance
comparison uses diagonal (detourable) flows — the honest statement of
what minimal adaptive routing buys.
"""

import pytest

from conftest import run_once
from repro.config import NetworkConfig, PORT_EAST, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import FaultTimeline, TimelineEvent
from repro.network.simulator import NoCSimulator
from repro.router.flit import Packet
from repro.traffic.generator import SyntheticTraffic, TraceTraffic

NET = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4))
VICTIM = NET.node_id(1, 1)

DEAD_OUTPUT = [
    TimelineEvent(0, FaultSite(VICTIM, FaultUnit.XB_MUX, PORT_EAST)),
    TimelineEvent(0, FaultSite(VICTIM, FaultUnit.XB_SECONDARY, PORT_EAST)),
]


def diagonal_flows():
    """SE-bound packets whose XY path crosses the victim's east port but
    which have a productive southern detour."""
    return [
        Packet(src=NET.node_id(0, 1), dest=NET.node_id(3, 2 + (i % 2)),
               size_flits=1, creation_cycle=10 + 3 * i)
        for i in range(30)
    ]


def run(routing_kind: str, kill_output: bool, traffic=None):
    schedule = (
        FaultTimeline(DEAD_OUTPUT) if kill_output else None
    )
    if traffic is None:
        traffic = SyntheticTraffic(NET, injection_rate=0.08, rng=13)
    sim = NoCSimulator(
        NET,
        SimulationConfig(
            warmup_cycles=0, measure_cycles=2500, drain_cycles=3000,
            seed=13, watchdog_cycles=1200,
        ),
        traffic,
        router_factory=protected_router_factory(NET),
        fault_schedule=schedule,
        routing_kind=routing_kind,
    )
    return sim.run()


def test_adaptive_routing_ablation(benchmark):
    def measure():
        return (
            run("xy", kill_output=False),
            run("west_first", kill_output=False),
            run("xy", True, TraceTraffic(diagonal_flows())),
            run("west_first", True, TraceTraffic(diagonal_flows())),
        )

    xy_clean, wf_clean, xy_dead, wf_dead = run_once(benchmark, measure)
    print(
        f"\nfault-free: xy={xy_clean.avg_network_latency:.2f} "
        f"west_first={wf_clean.avg_network_latency:.2f}"
    )
    print(
        f"dead output, diagonal flows: xy delivered "
        f"{xy_dead.stats.packets_ejected}/{xy_dead.stats.packets_created}, "
        f"west_first delivered {wf_dead.stats.packets_ejected}/"
        f"{wf_dead.stats.packets_created}"
    )
    # fault-free: adaptivity is ~free at this load (same minimal paths)
    assert wf_clean.avg_network_latency <= xy_clean.avg_network_latency * 1.15
    # dead output: XY strands the diagonal flows, west-first detours them
    assert xy_dead.blocked or (
        xy_dead.stats.packets_ejected < xy_dead.stats.packets_created
    )
    assert not wf_dead.blocked
    assert wf_dead.stats.packets_ejected == wf_dead.stats.packets_created
