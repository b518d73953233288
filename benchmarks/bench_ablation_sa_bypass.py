"""Ablation: rotating vs static SA-bypass default winner (Section V-C1).

The paper argues the default winner should rotate across the port's VCs
"to avoid the potential starvation problem that could arise from static
allocation".  This bench pins an SA stage-1 fault on a router port fed by
traffic on multiple VCs and compares default-winner policies:

* rotating (paper's choice; period = ``bypass_rotation_period``),
* effectively static (a rotation period far longer than the run).

With a static default winner, packets whose wire VC never becomes the
default rely entirely on VC transfers into the (busy) default slot, which
can only happen when the default empties — so worst-case (max) latency
degrades; rotation bounds it.
"""

from repro.config import (
    NetworkConfig,
    PORT_WEST,
    RouterConfig,
    SimulationConfig,
)
from repro.core.protected_router import protected_router_factory
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import FaultTimeline, TimelineEvent
from repro.network.simulator import NoCSimulator
from repro.traffic.generator import SyntheticTraffic


def run_policy(rotation_period: int):
    net = NetworkConfig(
        width=4,
        height=4,
        router=RouterConfig(num_vcs=4, bypass_rotation_period=rotation_period),
    )
    # SA1 fault on the west port of a column-1 router: all eastbound
    # traffic through it is forced onto the bypass path
    victim = net.node_id(1, 1)
    schedule = FaultTimeline(
        [TimelineEvent(0, FaultSite(victim, FaultUnit.SA1_ARBITER, PORT_WEST))]
    )
    sim = NoCSimulator(
        net,
        SimulationConfig(
            warmup_cycles=500,
            measure_cycles=4000,
            drain_cycles=6000,
            seed=3,
            watchdog_cycles=20_000,
        ),
        SyntheticTraffic(net, injection_rate=0.12, rng=3),
        router_factory=protected_router_factory(net),
        fault_schedule=schedule,
        keep_samples=True,
    )
    return sim.run()


def test_rotating_vs_static_default_winner():
    rotating = run_policy(rotation_period=8)
    static = run_policy(rotation_period=10**9)
    print(
        f"\nrotating: avg={rotating.avg_network_latency:.2f} "
        f"max={rotating.stats.max_network_latency}"
        f"  static: avg={static.avg_network_latency:.2f} "
        f"max={static.stats.max_network_latency}"
    )
    # both policies keep the network alive (the bypass works either way)
    assert not rotating.blocked and not static.blocked
    # rotation bounds the worst case: static never beats it meaningfully
    assert (
        rotating.stats.max_network_latency
        <= static.stats.max_network_latency * 1.10 + 5
    )
    # the starvation signature: the static policy's tail is no better
    p99_rot = rotating.stats.latency_percentile(99)
    p99_sta = static.stats.latency_percentile(99)
    assert p99_rot <= p99_sta * 1.10 + 5
