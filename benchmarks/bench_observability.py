"""Engineering benchmark: the observability layer's overhead gates.

Four gates, all run by the CI ``benchmark-smoke`` job.  The three time
gates are measured the way the ledger measures: pairs whose order
alternates (ABBA: a bias toward whichever side runs second lands on
half the ratios each way), each side timed over repeats totalling at
least half a second, so that host drift lands on both sides of a pair,
and the median of the per-pair ratios, which one slow run cannot move.

* **Disabled path <= 5 %.**  With everything off, the instrumentation
  reduces to ``x is None`` attribute checks in the simulator, routers,
  allocators, and NIC.  The un-instrumented seed code no longer exists
  to diff against, so the executable proxy is an A/A comparison: the
  same disabled-path simulation timed as "baseline" and "candidate" in
  alternating pairs.  The median ratio must stay within the 5 % budget —
  if someone accidentally moves real work onto the disabled path, the
  candidate labels in this file are where the regression shows up first.
* **Metrics on lanes <= 15 %.**  A lane sweep of 16 points with metrics
  on stays on lanes (no point steps on the object engine) and costs at most 15 %
  over the same sweep plain: the export is one reduction per retiring
  lane over counters the engine keeps anyway.
* **A trace on lanes <= 15 %.**  The same sweep traced stays on lanes
  too: a retiring lane builds its ``packet`` events in bulk from the
  packet-table columns its ``NetworkStats`` is reduced from.
* **Enabled mode stays usable.**  Full tracing + metrics + profiling on
  the same workload must finish within a sane multiple of the disabled
  run, and the tracer's throughput (events emitted per wall second) is
  printed.  What profiling or metrics alone cost a run is the ledger's
  ``observability.{profile,metrics}_on_overhead_x``.
"""

import statistics
import time
from unittest import mock

from repro import observability
from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.experiments.load_latency import _make_schedule, _make_traffic
from repro.experiments.parallel import LanePoint, run_lane_sweep
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.observability import Observability, ObservabilityConfig
from repro.traffic.generator import SyntheticTraffic

#: hard budget for the disabled path
DISABLED_OVERHEAD_BUDGET = 0.05

#: what metrics, or a trace, may add to a lane sweep
LANE_METRICS_BUDGET = 0.15
LANE_TRACE_BUDGET = 0.15

#: enabled mode may cost real time, but not explode: tracing + metrics +
#: profiling together must stay under this multiple of the disabled run
ENABLED_OVERHEAD_CEILING = 3.0

#: alternating pairs per time gate
_PAIRS = 10

#: each side of a pair is timed over repeats totalling at least this long
_SIDE_S = 0.5


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


def _per_call(side):
    """Seconds per call of ``side`` over repeats totalling ``_SIDE_S``."""
    total = calls = 0
    while total < _SIDE_S:
        total += side()
        calls += 1
    return total / calls


def _median_pair_ratio(baseline, candidate):
    """Median of ``candidate() / baseline()`` over pairs that alternate
    which side runs first; each callable returns the seconds it measured."""
    baseline()  # import and allocator warmup
    ratios = []
    for i in range(_PAIRS):
        if i % 2 == 0:
            base = _per_call(baseline)
            cand = _per_call(candidate)
        else:
            cand = _per_call(candidate)
            base = _per_call(baseline)
        ratios.append(cand / base)
    return statistics.median(ratios)


def test_disabled_path_overhead_within_budget():
    ratio = _median_pair_ratio(lambda: _run()[0], lambda: _run()[0])
    print(
        f"\ndisabled-path A/A: median ratio of {_PAIRS} pairs {ratio:.3f} "
        f"(budget {1 + DISABLED_OVERHEAD_BUDGET:.2f})"
    )
    assert ratio <= 1 + DISABLED_OVERHEAD_BUDGET, (
        f"disabled observability path exceeded the {DISABLED_OVERHEAD_BUDGET:.0%} "
        f"budget: A/A ratio {ratio:.3f}"
    )


def _lane_points():
    """16 protected points on one 4x4 structural key, every other faulty."""
    net = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2))
    sim_cfg = SimulationConfig(
        warmup_cycles=50, measure_cycles=400, drain_cycles=2000, seed=5,
        watchdog_cycles=4000,
    )
    return [
        LanePoint(
            config=net,
            sim_config=sim_cfg,
            make_traffic=_make_traffic,
            traffic_args=(net, 0.1, 40 + i),
            make_schedule=_make_schedule if i % 2 else None,
            schedule_args=(net, 6, 40 + i) if i % 2 else (),
            router_kind="protected",
            label=f"p{i}",
        )
        for i in range(16)
    ]


def _lane_sweep_gate(flag, budget):
    """The median ratio of the 16-point lane sweep with ``flag`` on over the
    same sweep plain, and the reports of the runs with it on; every run
    must stay on lanes."""
    points = _lane_points()
    seen = []

    def sweep(on):
        if on:
            observability.configure(**{flag: True})
        try:
            t0 = time.perf_counter()
            values, report = run_lane_sweep(points)
            wall = time.perf_counter() - t0
        finally:
            observability.reset()
        seen.append((on, report))
        return wall

    left = AssertionError("a point ran on the object engine's own loop")
    with mock.patch.object(NoCSimulator, "_run_stepped", side_effect=left):
        ratio = _median_pair_ratio(lambda: sweep(False), lambda: sweep(True))
    print(
        f"\nlane sweep of {len(points)} points, {flag} on / off: median ratio "
        f"of {_PAIRS} pairs {ratio:.3f} (budget {1 + budget:.2f})"
    )
    assert ratio <= 1 + budget, (
        f"{flag} cost a lane sweep {ratio:.3f}x (budget {1 + budget:.2f}x)"
    )
    return [report for on, report in seen if on]


def test_metrics_on_lanes_within_budget():
    on = _lane_sweep_gate("metrics", LANE_METRICS_BUDGET)
    assert all(r.observability["metrics"]["counters"] for r in on)


def test_trace_on_lanes_within_budget():
    on = _lane_sweep_gate("trace", LANE_TRACE_BUDGET)
    for report in on:
        traces = report.observability["traces"]
        assert [label for label, _ in traces] == [f"p{i}" for i in range(16)]
        assert all(t["emitted"] and t["events"] for _, t in traces)


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
    # a seeded run: the tracer emits exactly this many events, 29,672
    # per-stage events and one ``packet`` event per delivered packet (1,532)
    assert emitted == 29_672 + 1_532
    assert overhead <= ENABLED_OVERHEAD_CEILING, (
        f"fully enabled observability cost {overhead:.2f}x "
        f"(ceiling {ENABLED_OVERHEAD_CEILING}x)"
    )
