"""Engineering benchmark: the event-driven engine vs per-cycle stepping.

Not a paper artefact — pins the speedup the skip-ahead loop buys on the
workload shapes it exists for (see ``docs/performance.md``):

* **drain-heavy**: a cycle-0 burst followed by a long, almost entirely
  idle measurement window — the fig7/fig8 drain-tail regime.  The event
  engine must jump the idle stretch wholesale; the acceptance floor is a
  >= 2x wall-clock speedup over the identical per-cycle run.
* **low-injection**: sparse SPLASH-2-like load where long quiet gaps
  separate packet bursts; the vectorised traffic lookahead scans whole
  chunks per RNG call instead of stepping each cycle.

The per-cycle side is the same simulator fed the same traffic with its
``next_injection`` lookahead hidden, which is the one way ``run()`` still
steps every cycle.  Both cases also re-assert bit-identity between the
two loop flavours — a speedup from diverging behaviour would be a bug,
not a win.
"""

import time

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.network.simulator import NoCSimulator
from repro.router.flit import Packet, reset_packet_ids
from repro.traffic.generator import SyntheticTraffic, TraceTraffic


class _NoLookahead:
    """Traffic wrapper exposing ``generate`` only: ``run()`` cannot skip."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def generate(self, cycle: int):
        return self._inner.generate(cycle)


def _traffic(inner, skip_ahead: bool):
    return inner if skip_ahead else _NoLookahead(inner)


def _drain_heavy_sim(skip_ahead: bool) -> NoCSimulator:
    """Cycle-0 burst, then a 30k-cycle idle measurement window."""
    reset_packet_ids()
    net = NetworkConfig(
        width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2)
    )
    burst = [
        Packet(
            src=node,
            dest=(node + 13) % net.num_nodes,
            size_flits=5,
            vnet=0,
            creation_cycle=0,
        )
        for node in range(net.num_nodes)
    ]
    return NoCSimulator(
        net,
        SimulationConfig(
            warmup_cycles=0, measure_cycles=30_000, drain_cycles=5000, seed=1
        ),
        _traffic(TraceTraffic(burst), skip_ahead),
    )


def _low_injection_sim(skip_ahead: bool) -> NoCSimulator:
    """Sparse Bernoulli load: quiet gaps dominate the window."""
    reset_packet_ids()
    net = NetworkConfig(width=8, height=8)
    return NoCSimulator(
        net,
        SimulationConfig(
            warmup_cycles=100,
            measure_cycles=50_000,
            drain_cycles=5000,
            seed=3,
        ),
        _traffic(SyntheticTraffic(net, injection_rate=5e-5, rng=3), skip_ahead),
    )


def _best_of(sim_factory, skip_ahead: bool, rounds: int = 3):
    """Best wall time over ``rounds`` fresh runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        sim = sim_factory(skip_ahead)
        t0 = time.perf_counter()
        result = sim._run_stepped()  # the loop under test, whatever the load
        best = min(best, time.perf_counter() - t0)
    return best, result


def _compare(sim_factory):
    per_cycle_s, per_cycle = _best_of(sim_factory, skip_ahead=False)
    _best_of(sim_factory, skip_ahead=True, rounds=1)  # warm-up
    event_s, event = _best_of(sim_factory, skip_ahead=True)

    # a speedup earned by divergence would be a bug: both loop flavours
    # must produce the same run, bit for bit
    assert event.cycles == per_cycle.cycles
    assert event.drained == per_cycle.drained
    assert event.stats.summary() == per_cycle.stats.summary()

    return per_cycle_s / event_s if event_s > 0 else float("inf")


def test_drain_heavy_speedup():
    speedup = _compare(_drain_heavy_sim)
    # acceptance floor: the idle tail must be skipped, not stepped
    assert speedup >= 2.0, f"drain-heavy speedup {speedup:.2f}x < 2x"


def test_low_injection_speedup():
    speedup = _compare(_low_injection_sim)
    # sparse loads still step every busy cycle; the win is smaller but
    # must not regress below parity by more than measurement noise
    assert speedup >= 1.1, f"low-injection speedup {speedup:.2f}x"
