"""Engineering benchmark: the batched lane engine vs per-lane event runs.

Not a paper artefact — pins the throughput win the flat-NumPy lane
engine (:mod:`repro.network.batched`) buys on the workload it exists
for: a Figure 7-style sweep of many short, structurally identical
simulations.  64 lanes (8x8 protected mesh, coherence mix, rates
spanning the pre-saturation range, half the lanes carrying tolerated
fault schedules) run once each through

* the **event engine** — one warm fabric per lane, run serially; and
* the **batched engine** — all 64 lanes stepped together as flat
  ``(lanes, routers, ports, vcs)`` state arrays.

The acceptance floor is a >= 4.5x aggregate points-per-second speedup
(3x until the lane kernels were re-addressed through flat ids, ISSUE 17;
the assert message carries the history and the five-run spread the
floor sits below).
As everywhere else in this suite, the speedup must come from batching,
not divergence: every lane's result is asserted bit-identical between
the two engines (cycle counts, drain status, full latency/throughput
summary, router-stat counters) before any timing is trusted.

Set ``REPRO_BENCH_JSON=<path>`` to write the measurements as JSON (the
CI job uploads it as the ``BENCH_batched_engine.json`` artifact and
gates it with ``compare_bench.py``).
"""

import json
import os
import time
from dataclasses import asdict

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.faults.injector import spawn_lane_injectors
from repro.network.batched import LaneSpec, run_lanes, supports
from repro.network.simulator import NoCSimulator
from repro.traffic.generator import COHERENCE_MIX, SyntheticTraffic

LANES = 64
NET = NetworkConfig(
    width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2)
)
FACTORY = protected_router_factory(NET)
SIM = SimulationConfig(
    warmup_cycles=50,
    measure_cycles=400,
    drain_cycles=1000,
    seed=7,
    watchdog_cycles=4000,
)
RATES = [0.02 + 0.005 * i for i in range(LANES)]


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


def _lane_inputs():
    """Per-lane traffic + fault schedules, identical for both engines.

    Every odd lane carries a tolerated-fault schedule (the Figure 7
    "faulty" flavour); seeds derive from ``SeedSequence.spawn`` so each
    lane's streams are independent of how lanes are grouped.
    """
    schedules = spawn_lane_injectors(
        NET.router, NET.num_nodes, LANES, mean_interval=40.0, num_faults=8,
        rng=2024, first_fault_at=50, avoid_failure=True,
    )
    lanes = []
    for i, rate in enumerate(RATES):
        traffic = SyntheticTraffic(
            NET, injection_rate=rate, mix=COHERENCE_MIX, rng=1000 + i
        )
        lanes.append(LaneSpec(traffic, schedules[i] if i % 2 else None))
    return lanes


def _event_results():
    out = []
    for spec in _lane_inputs():
        sim = NoCSimulator(
            NET, SIM, spec.traffic,
            router_factory=FACTORY,
            fault_schedule=spec.fault_schedule,
        )
        # the object engine's own loop: most of these loads are above the
        # break-even where ``run()`` would ride a width-1 lane itself
        out.append(sim._run_stepped())
    return out


def _lane_key(res):
    """Everything a lane result asserts: identity, not approximation."""
    return (
        res.cycles,
        res.blocked,
        res.drained,
        res.faults_injected,
        res.stats.summary(),
        asdict(res.router_stats),
    )


def test_batched_engine_speedup(benchmark):
    assert supports(NET, FACTORY, "xy") is None

    t0 = time.perf_counter()
    event = _event_results()
    event_s = time.perf_counter() - t0

    box = {}

    def batched_run():
        t0 = time.perf_counter()
        out = run_lanes(
            NET, SIM, _lane_inputs(), router_factory=FACTORY
        )
        box["s"] = time.perf_counter() - t0
        return out

    batched = benchmark.pedantic(
        batched_run, rounds=1, iterations=1, warmup_rounds=0
    )
    batched_s = box["s"]

    # a speedup earned by divergence would be a bug, not a win
    assert len(batched) == len(event) == LANES
    for lane, (b, e) in enumerate(zip(batched, event)):
        assert _lane_key(b) == _lane_key(e), f"lane {lane} diverged"

    speedup = event_s / batched_s
    print(
        f"\nfig7-style sweep, {LANES} lanes: event {event_s:.2f}s "
        f"({LANES / event_s:.1f} points/s), batched {batched_s:.2f}s "
        f"({LANES / batched_s:.1f} points/s) -> {speedup:.2f}x"
    )
    _write_json(
        {
            "batched_engine_speedup": round(speedup, 2),
            "batched_points_per_s": round(LANES / batched_s, 2),
            "event_points_per_s": round(LANES / event_s, 2),
            "batched_lanes_s": round(batched_s, 4),
            "event_lanes_s": round(event_s, 4),
        }
    )
    # acceptance floor: batching must carry its weight at fleet size
    assert speedup >= 4.5, (
        f"batched speedup {speedup:.2f}x < 4.5x.  History of this floor: "
        "2.5x after stage-occupancy gating (ISSUE 13) made the object "
        "engine a fifth faster; 3x after packet tables at the lane "
        "boundary (ISSUE 14; five runs 4.6-5.2x).  Flat-index lane "
        "kernels (ISSUE 17: one VC id per requester, flatnonzero, 1-D "
        "views) halved the lanes' run time: five runs here read 7.42, "
        "10.04, 8.12, 9.83, 9.83x (median 9.83x; the spread is the object "
        "engine's single-shot time, 25.5-35.0 s, the lanes read 2.9-3.6 s). "
        "4.5x is outside that spread by the margin the old floor kept "
        "(about 0.6 of the slowest run) — below it the flat addressing "
        "has been lost, whatever the host."
    )


def test_lane_refill_occupancy(benchmark):
    """4x-oversubscribed sweep: pending points stream into retired lanes.

    The engine gets ``LANES / 4`` concurrent slots and must keep the
    state arrays >= 90% occupied while the other three quarters of the
    points refill freed lanes — and every refilled lane must still be
    bit-identical to its full-width run (itself pinned against the
    event engine above).
    """
    from repro.network.batched import BatchedLaneEngine

    width = LANES // 4
    full = run_lanes(NET, SIM, _lane_inputs(), router_factory=FACTORY)

    box = {}

    def refill_run():
        lanes = _lane_inputs()
        engine = BatchedLaneEngine(
            NET, SIM, lanes[:width], FACTORY, pending=lanes[width:]
        )
        t0 = time.perf_counter()
        out = engine.run()
        box["s"] = time.perf_counter() - t0
        box["occupancy"] = engine.lane_occupancy
        return out

    refilled = benchmark.pedantic(
        refill_run, rounds=1, iterations=1, warmup_rounds=0
    )
    assert len(refilled) == LANES
    for lane, (r, f) in enumerate(zip(refilled, full)):
        assert _lane_key(r) == _lane_key(f), f"lane {lane} diverged"
    occupancy = box["occupancy"]
    print(
        f"\nrefill sweep, {LANES} points over {width} slots: "
        f"{box['s']:.2f}s ({LANES / box['s']:.1f} points/s), "
        f"occupancy {occupancy:.3f}"
    )
    _write_json(
        {
            "refill_lane_occupancy": round(occupancy, 4),
            "refill_points_per_s": round(LANES / box["s"], 2),
            "refill_s": round(box["s"], 4),
        }
    )
    assert occupancy >= 0.9, f"lane occupancy {occupancy:.3f} < 0.9"


def test_fig7_suite_lane_speedup(benchmark):
    """The converted fig7 path end to end: ``run_suite_sharded`` (lanes)
    vs the same points one ``run_point`` task each, on the quick
    SPLASH-2 suite (8 apps x fault-free/faulty).

    All 16 points share one structural key, so the batched run steps the
    whole suite as lanes of a single engine.  Per-app latencies must
    match exactly before the timing counts.
    """
    from repro.experiments.latency import (
        QUICK_CONFIG,
        run_suite_sharded,
        suite_points,
    )
    from repro.experiments.parallel import map_sweep, run_point

    t0 = time.perf_counter()
    event_values, event_report = map_sweep(
        run_point, [(p,) for p in suite_points("splash2", QUICK_CONFIG)]
    )
    event_s = time.perf_counter() - t0
    points = event_report.points

    box = {}

    def suite_run():
        t0 = time.perf_counter()
        out = run_suite_sharded("splash2", QUICK_CONFIG)
        box["s"] = time.perf_counter() - t0
        return out

    batched_apps, batched_report = benchmark.pedantic(
        suite_run, rounds=1, iterations=1, warmup_rounds=0
    )
    batched_s = box["s"]

    assert batched_report.fallbacks == 0, batched_report.fallback_reasons
    assert len(batched_apps) == 8 and len(event_values) == 16
    for i, b in enumerate(batched_apps):
        ff, fy = event_values[2 * i], event_values[2 * i + 1]
        assert b.fault_free == ff.avg_network_latency, f"{b.app} fault-free diverged"
        assert b.faulty == fy.avg_network_latency, f"{b.app} faulty diverged"

    speedup = event_s / batched_s
    print(
        f"\nfig7 quick suite, {points} points: event {event_s:.2f}s, "
        f"batched {batched_s:.2f}s -> {speedup:.2f}x"
    )
    _write_json(
        {
            "fig7_suite_speedup": round(speedup, 2),
            "fig7_suite_batched_s": round(batched_s, 4),
            "fig7_suite_event_s": round(event_s, 4),
        }
    )
    # the suite runs real app surrogates (lower injection, deep drains)
    # on a 4x4 quick mesh — smaller win than the 64-lane 8x8 case, but
    # batching must still pay for itself
    assert speedup >= 2.0, (
        f"suite speedup {speedup:.2f}x < 2.0x.  History of this floor: "
        "1.5x against the ungated object engine; 1.25x once stage-occupancy "
        "gating (ISSUE 13) and packet tables (ISSUE 14) sped both sides up "
        "and five runs read 1.38-1.79x (median 1.56x).  Flat-index lane "
        "kernels (ISSUE 17) moved only the lane side: five runs read "
        "2.27, 2.42, 1.86, 2.30, 2.13x (median 2.27x) and the floor went "
        "back to 1.5x.  One draw per traffic stream, one-word flits and the "
        "array SA bypass (ISSUE 18) again moved only the lanes: five runs "
        "here read 2.76, 2.61, 3.12, 2.83, 2.97x (median 2.83x; lanes "
        "1.90-2.43 s, object engine 5.83-6.35 s), so the floor is raised to "
        "2.0x — below that spread by about a quarter of its slowest run, "
        "the margin the 1.5x floor kept.  Below it the suite's pairs are "
        "being drawn twice again, or the lane path no longer pays for its "
        "triage and fallback plumbing on the real fig7 suite."
    )
