"""Engineering benchmark: raw simulator throughput.

Not a paper artefact — tracks the cycle-loop performance the figure
reproductions depend on (cycles/second on the standard 8x8 configuration
at moderate load), so regressions in the hot path show up here first.

The cases deliberately cover the distinct regimes of the active-set
cycle loop (see ``docs/performance.md``):

* steady-state injection (8x8 protected, 4x4 baseline),
* the drain phase, where injection stops and the active sets shrink as
  routers go idle — the regime the active-set bookkeeping helps most,
* adaptive routing (``west_first``), which bypasses the route-table and
  path-plan caches and exercises the uncached RC path.

Set ``REPRO_BENCH_JSON=<path>`` to write per-configuration throughput
(cycles/second, best round) as JSON (the CI job uploads it as the
``BENCH_simulator_speed.json`` artifact).
"""

import json
import os
import time

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.traffic.generator import COHERENCE_MIX, SyntheticTraffic


def make_sim(width=8, height=8, rate=0.08, cycles=1500, **kwargs):
    net = NetworkConfig(
        width=width,
        height=height,
        router=RouterConfig(num_vcs=4, num_vnets=2),
    )
    return NoCSimulator(
        net,
        SimulationConfig(
            warmup_cycles=0,
            measure_cycles=cycles,
            drain_cycles=kwargs.pop("drain_cycles", 0),
        ),
        SyntheticTraffic(net, injection_rate=rate, mix=COHERENCE_MIX, rng=1),
        router_factory=kwargs.pop(
            "router_factory", protected_router_factory(net)
        ),
        **kwargs,
    )


def _write_json(payload: dict) -> None:
    path = os.environ.get("REPRO_BENCH_JSON", "")
    if not path:
        return
    existing = {}
    if os.path.exists(path):
        with open(path) as fp:
            existing = json.load(fp)
    existing.update(payload)
    with open(path, "w") as fp:
        json.dump(existing, fp, indent=2, sort_keys=True)


def _timed(sim_factory, samples):
    """Run a fresh sim, recording (simulated cycles, wall seconds)."""
    sim = sim_factory()
    t0 = time.perf_counter()
    # the active-set loop these keys name: at 8x8 loads ``run()`` itself
    # would hand the run to a width-1 lane
    result = sim._run_stepped()
    samples.append((result.cycles, time.perf_counter() - t0))
    return result


def _record(name: str, samples) -> None:
    """Emit the best-round throughput for one configuration."""
    best = max(cycles / elapsed for cycles, elapsed in samples if elapsed > 0)
    _write_json({f"{name}_cycles_per_s": round(best, 1)})


def test_8x8_protected_throughput(benchmark):
    samples = []
    result = benchmark.pedantic(
        lambda: _timed(make_sim, samples),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.stats.flits_injected > 0
    _record("protected_8x8", samples)


def test_4x4_baseline_throughput(benchmark):
    def factory():
        net = NetworkConfig(width=4, height=4)
        return NoCSimulator(
            net,
            SimulationConfig(
                warmup_cycles=0, measure_cycles=2000, drain_cycles=0
            ),
            SyntheticTraffic(net, injection_rate=0.08, rng=1),
        )

    samples = []
    result = benchmark.pedantic(
        lambda: _timed(factory, samples),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.stats.flits_injected > 0
    _record("baseline_4x4", samples)


def test_8x8_drain_phase_throughput(benchmark):
    """Short measure window, long drain: most simulated cycles run after
    injection stops, while the active sets shrink toward empty."""

    def factory():
        return make_sim(rate=0.12, cycles=300, drain_cycles=5000)

    samples = []
    result = benchmark.pedantic(
        lambda: _timed(factory, samples),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.drained
    _record("protected_8x8_drain", samples)


def test_8x8_adaptive_routing_throughput(benchmark):
    """West-first adaptive routing takes the uncached RC path (no route
    table, per-flit candidate scoring)."""

    def factory():
        net = NetworkConfig(
            width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2)
        )
        return NoCSimulator(
            net,
            SimulationConfig(
                warmup_cycles=0, measure_cycles=1500, drain_cycles=0
            ),
            SyntheticTraffic(
                net, injection_rate=0.08, mix=COHERENCE_MIX, rng=1
            ),
            router_factory=baseline_router_factory(net),
            routing_kind="west_first",
        )

    samples = []
    result = benchmark.pedantic(
        lambda: _timed(factory, samples),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.stats.flits_injected > 0
    _record("adaptive_8x8_west_first", samples)


def test_spf_monte_carlo_throughput(benchmark):
    from repro.reliability.spf import monte_carlo_faults_to_failure

    mc = benchmark.pedantic(
        lambda: monte_carlo_faults_to_failure(trials=200, rng=1),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert 2 <= mc.mean <= 28
