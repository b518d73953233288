"""The traced pass: per-layer metrics, measured from outside the program.

One traced execution of the workload's timed region (spans on, same call
as the timed repeats) gives ``trace.overhead_x``.  Workloads that run
under the resilient runtime lose their engine spans to forked workers,
so they get a second traced pass in-process with no runtime; the
runtime's cost is the difference between the two.  The rest are direct
calls into one layer at a time on the workload's own inputs.

Every name in ``LAYER_METRICS`` is emitted for every workload; a layer
that does no work in a workload reads 0 there, which is the prediction
("x") the README's layer map makes for it.

Times are reference-host seconds like the end-to-end ones (``host.py``):
span times of a pass are divided by that pass's slowness (its raw seconds
over its scaled seconds), direct calls are timed by the workload's
``Stopwatch``.  ``host.slowness`` and ``host.raw_wall_s`` say what the
host did meanwhile.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Any, Dict, List, Tuple

import tracing
from workloads import Pass, build_sim

STAGES = ("faults", "xb", "sa", "va", "rc", "link", "nic")

#: per-layer metric name -> unit, in ledger order
LAYER_METRICS: Dict[str, str] = {
    "service.server.requests": "count",
    "service.server.computations": "count",
    "service.server.dedup_joined": "count",
    "service.server.warm_overhead_ms": "ms",
    "service.server.cold_overhead_ms": "ms",
    "service.server.warm_req_p99_ms": "ms",
    "service.fingerprint.build_config_us": "us",
    "service.fingerprint.request_fingerprint_us": "us",
    "service.cache.get_us": "us",
    "service.cache.put_us": "us",
    "service.cache.hit_ratio": "ratio",
    "service.cache.entry_bytes_p50": "bytes",
    "service.cache.evicted": "count",
    "service.cache.poisoned": "count",
    "experiments.resilient.overhead_s": "s",
    "experiments.resilient.overhead_x": "x",
    "experiments.resilient.tasks": "count",
    "experiments.resilient.checkpointed": "count",
    "experiments.resilient.retries": "count",
    "experiments.resilient.timeouts": "count",
    "experiments.resilient.checkpoint_append_us": "us",
    "experiments.resilient.checkpoint_bytes": "bytes",
    "experiments.resilient.resume_s": "s",
    "experiments.parallel.lane_sweep_self_s": "s",
    "experiments.parallel.chunks": "count",
    "experiments.parallel.fallbacks": "count",
    "experiments.parallel.fallback_reasons": "count",
    "experiments.latency.suite_self_s": "s",
    "experiments.latency.fig7_overhead": "ratio",
    "experiments.latency.fig8_overhead": "ratio",
    "experiments.latency.fig7_overhead_pp_err": "pp",
    "experiments.latency.fig8_overhead_pp_err": "pp",
    "experiments.fault_campaign.self_s": "s",
    "network.batched.build_s": "s",
    "network.batched.run_s": "s",
    "network.batched.lane_cycles_per_s": "cycles/s",
    "network.batched.ns_per_flit_hop": "ns",
    "network.batched.lane_occupancy": "ratio",
    "network.batched.width1_cycles_per_s": "cycles/s",
    "network.simulator.build_s": "s",
    "network.simulator.run_s": "s",
    "network.simulator.cycles_per_s": "cycles/s",
    "network.simulator.ns_per_flit_hop": "ns",
    **{f"network.simulator.stage_share.{s}": "ratio" for s in STAGES},
    "network.warm.acquire_s": "s",
    "network.warm.pool_size": "count",
    "traffic.generator.standalone_s": "s",
    "traffic.generator.packets": "count",
    "faults.schedule.standalone_s": "s",
    "faults.schedule.injected": "count",
    "faults.recovery.events": "count",
    "network.stats.summary_us": "us",
    "network.stats.avg_latency_cycles": "cycles",
    "network.stats.packets_delivered": "count",
    "observability.profile_on_overhead_x": "x",
    "observability.metrics_on_overhead_x": "x",
    "trace.overhead_x": "x",
    "trace.coverage": "ratio",
    "host.slowness": "x",
    "host.raw_wall_s": "s",
}


def _median_us(durations: List[float]) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def traced_pass(
    workload: Any, tracer: tracing.Tracer, untraced: List[Pass]
) -> Tuple[Dict[str, float], List[Pass]]:
    """Run the traced pass of ``workload``; every layer metric + the passes made."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    with tracing.install(tracer):
        tracer.run_id = "traced"
        traced = workload.run_once(tracer=tracer)
        m["trace.overhead_x"] = traced.wall_s / statistics.median(
            p.wall_s for p in untraced
        )
        m["host.raw_wall_s"] = traced.raw_s
        made = [traced]
        if workload.name == "service_mix":
            m["trace.coverage"] = (
                sum(tracer.self_times(traced.window).values()) / traced.raw_s
            )
            _service_layers(workload, tracer, traced, m)
        else:
            in_process = traced
            if traced.extras.get("run_dir"):
                tracer.run_id = "in_process"
                in_process = workload.run_once(runtime=False)
                made.append(in_process)
                _runtime_layers(workload, tracer, traced, in_process, m)
            tracer.run_id = "direct"
            _engine_layers(workload, tracer, in_process, m)
    m["host.slowness"] = statistics.median(workload.clock.samples)
    return m, made


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
def _engine_layers(workload: Any, tracer: tracing.Tracer, p: Pass, m: Dict[str, float]) -> None:
    slow = p.raw_s / p.wall_s  # the host's slowness over this pass
    own = {k: v / slow for k, v in tracer.self_times(p.window).items()}
    m["trace.coverage"] = sum(own.values()) / p.wall_s

    for engine in ("batched", "simulator"):
        runs = tracer.select(f"network.{engine}.run", p.window)
        run_s = sum(s["end"] - s["start"] for s in runs) / slow
        m[f"network.{engine}.build_s"] = sum(
            tracer.durations(f"network.{engine}.build", p.window)
        ) / slow
        m[f"network.{engine}.run_s"] = run_s
        if not runs:
            continue
        cycles = sum(s["attrs"]["cycles"] for s in runs)
        rate = "lane_cycles_per_s" if engine == "batched" else "cycles_per_s"
        m[f"network.{engine}.{rate}"] = cycles / run_s
        m[f"network.{engine}.ns_per_flit_hop"] = (
            run_s * 1e9 / sum(s["attrs"]["flit_hops"] for s in runs)
        )
        if engine == "batched":
            m["network.batched.lane_occupancy"] = sum(
                s["attrs"]["lane_occupancy"] * s["attrs"]["cycles"] for s in runs
            ) / cycles

    from repro.network import warm

    m["network.warm.acquire_s"] = own.get("network.warm.acquire", 0.0)
    m["network.warm.pool_size"] = warm.pool_size()
    m["experiments.parallel.lane_sweep_self_s"] = own.get(
        "experiments.parallel.run_lane_sweep", 0.0
    ) + own.get("experiments.parallel.run_sweep", 0.0)
    m["experiments.parallel.chunks"] = len(
        tracer.select("network.batched.build", p.window)
    )
    m["experiments.parallel.fallbacks"] = sum(r.fallbacks for r in p.reports)
    m["experiments.parallel.fallback_reasons"] = len(
        {reason for r in p.reports for reason in r.fallback_reasons}
    )
    m["experiments.latency.suite_self_s"] = own.get(
        "experiments.latency.fig7", 0.0
    ) + own.get("experiments.latency.fig8", 0.0)
    for fig in ("fig7", "fig8"):
        if f"{fig}_overhead" in p.extras:
            overhead, paper = p.extras[f"{fig}_overhead"], p.extras[f"{fig}_paper"]
            m[f"experiments.latency.{fig}_overhead"] = overhead
            m[f"experiments.latency.{fig}_overhead_pp_err"] = (overhead - paper) * 100
    m["experiments.fault_campaign.self_s"] = own.get(
        "experiments.fault_campaign.run", 0.0
    )

    results = [r for _, r in p.pairs]
    latencies = [
        r.avg_network_latency for r in results if r.stats.measured_packets
    ]
    m["network.stats.summary_us"] = _median_us(tracer.durations("network.stats.summary")) / slow
    m["network.stats.avg_latency_cycles"] = statistics.fmean(latencies)
    m["network.stats.packets_delivered"] = sum(r.stats.packets_ejected for r in results)
    m["faults.schedule.injected"] = sum(r.faults_injected for r in results)
    m["faults.recovery.events"] = sum(
        r.recovery["events"] for r in results if r.recovery
    )

    points = [pt for pt, _ in p.pairs]
    clock = workload.clock
    _standalone_inputs(points, clock, m)
    if workload.name == "single_run_8x8":
        _single_run_layers(points[0], p.cold_ms[0] / 1e3, clock, m)
    elif workload.name == "campaign_4x4":
        step = max(1, len(points) // 4)
        _stage_shares([_profiled(pt, clock)[1] for pt in points[1::step]], m)


def _standalone_inputs(points: List[Any], clock: Any, m: Dict[str, float]) -> None:
    """Drive the workload's traffic sources and fault schedules alone.

    Same seeds, same horizon, no network: an upper bound on the share of
    either engine's time that goes to drawing inputs.
    """

    def traffic() -> int:
        packets = 0
        for pt in points:
            source = pt.make_traffic(*pt.traffic_args)
            sc = pt.sim_config
            for cycle in range(sc.warmup_cycles + sc.measure_cycles):
                for _ in source.generate(cycle):
                    packets += 1
        return packets

    def schedules() -> None:
        for pt in points:
            if pt.make_schedule is None:
                continue
            schedule = pt.make_schedule(*pt.schedule_args)
            sc = pt.sim_config
            horizon = sc.warmup_cycles + sc.measure_cycles + sc.drain_cycles
            heals = getattr(schedule, "heals_due", None)  # timelines wake for heals too
            cycle = schedule.next_cycle()
            while cycle is not None and cycle < horizon:
                for _ in schedule.events_at(cycle):
                    pass
                if heals is not None:
                    for _ in heals(cycle):
                        pass
                cycle = schedule.next_cycle()

    m["traffic.generator.packets"], _, m["traffic.generator.standalone_s"] = (
        clock.time(traffic)
    )
    _, _, m["faults.schedule.standalone_s"] = clock.time(schedules)


def _profiled(point: Any, clock: Any, **switches: bool) -> Any:
    """One event-engine run with observability on; (reference seconds, export)."""
    from repro.observability import Observability, ObservabilityConfig

    switches = switches or {"profile": True}
    result, _, ref_s = clock.time(
        lambda: build_sim(
            point, observability=Observability(ObservabilityConfig(**switches))
        ).run()
    )
    return ref_s, result.observability


def _stage_shares(exports: List[dict], m: Dict[str, float]) -> None:
    from repro.observability import merge_profiles

    merged = merge_profiles(e["profile"] for e in exports)
    for stage in STAGES:
        m[f"network.simulator.stage_share.{stage}"] = merged["stages"][stage]["share"]


def _single_run_layers(xy: Any, plain_s: float, clock: Any, m: Dict[str, float]) -> None:
    """Observability on/off and the engine-collapse question, on the xy case."""
    from repro.core.protected_router import protected_router_factory
    from repro.network.batched import LaneSpec, run_lanes

    profile_s, export = _profiled(xy, clock)
    m["observability.profile_on_overhead_x"] = profile_s / plain_s
    _stage_shares([export], m)
    metrics_s, _ = _profiled(xy, clock, metrics=True)
    m["observability.metrics_on_overhead_x"] = metrics_s / plain_s

    (lane,), _, ref_s = clock.time(
        lambda: run_lanes(
            xy.config,
            xy.sim_config,
            [LaneSpec(xy.make_traffic(*xy.traffic_args), xy.make_schedule(*xy.schedule_args))],
            router_factory=protected_router_factory(xy.config),
        )
    )
    m["network.batched.width1_cycles_per_s"] = lane.cycles / ref_s


def _runtime_layers(
    workload: Any, tracer: tracing.Tracer, traced: Pass, in_process: Pass, m: Dict[str, float]
) -> None:
    """The resilient runtime's cost: same call with and without it."""
    run_dir = traced.extras["run_dir"]
    m["experiments.resilient.overhead_s"] = traced.wall_s - in_process.wall_s
    m["experiments.resilient.overhead_x"] = traced.wall_s / in_process.wall_s
    manifests = glob.glob(os.path.join(run_dir, "**", "manifest.json"), recursive=True)
    for path in manifests:
        with open(path) as fp:
            m["experiments.resilient.tasks"] += sum(
                s["points"] for s in json.load(fp)["sweeps"].values()
            )
    for name in ("checkpointed", "retries", "timeouts"):
        m[f"experiments.resilient.{name}"] = sum(
            getattr(r, name) for r in traced.reports
        )
    m["experiments.resilient.checkpoint_append_us"] = _median_us(
        tracer.durations("experiments.resilient.append", traced.window)
    ) / (traced.raw_s / traced.wall_s)
    m["experiments.resilient.checkpoint_bytes"] = sum(
        os.path.getsize(f)
        for f in glob.glob(os.path.join(run_dir, "**", "sweep-*.jsonl"), recursive=True)
    )
    units, _, _ = workload.timed(workload.smoke, True, resume=run_dir)
    m["experiments.resilient.resume_s"] = sum(ref for _, ref in units)


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
def _service_layers(workload: Any, tracer: tracing.Tracer, p: Pass, m: Dict[str, float]) -> None:
    from repro.experiments import fault_sweep
    from repro.service import fingerprint
    from repro.service.cache import CacheEntry, ResultCache

    after, before = workload.stats["counters"], p.extras["counters_before"]

    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    m["service.server.requests"] = delta("service.requests")
    m["service.server.computations"] = delta("service.computations")
    m["service.server.dedup_joined"] = delta("service.dedup_joined")
    m["service.cache.hit_ratio"] = delta("service.cache_hits") / (
        delta("service.cache_hits") + delta("service.cache_misses")
    )
    m["service.cache.evicted"] = workload.stats["cache_evicted"]
    m["service.cache.poisoned"] = workload.stats["cache_poisoned"]
    m["service.cache.entry_bytes_p50"] = statistics.median(
        os.path.getsize(f)
        for f in glob.glob(os.path.join(workload.server.cache_dir, "entries", "*", "*.json"))
    )
    ordered = sorted(p.warm_ms)
    m["service.server.warm_req_p99_ms"] = ordered[int(0.99 * len(ordered))]

    # direct calls, one layer at a time, on the bodies the server saw
    tracer.run_id = "direct"
    name = workload.EXPERIMENT
    scratch = ResultCache(os.path.join(workload.server.cache_dir, "direct"))
    in_process_ms = []
    sampled = len(workload.clock.samples)
    for seed, reply in zip(workload.seeds, workload.replies):
        for _ in range(20):
            fingerprint.build_config(name, workload.config)
        config, residual = fingerprint.effective_config(name, workload.config, seed=seed)
        for _ in range(20):
            fp = fingerprint.request_fingerprint(name, config, seed=residual)
        if fp != reply["fingerprint"]:
            raise RuntimeError("fingerprint computed here differs from the server's")
        entry = CacheEntry(
            fp, reply["experiment"], reply["request"], reply["result"], reply["compute"]
        )
        for _ in range(5):
            scratch.put(entry)
            scratch.get(fp)
        _, _, ref_s = workload.clock.time(
            lambda: fault_sweep.run(config, jobs=1, seed=residual)
        )
        in_process_ms.append(ref_s * 1e3)

    # the stopwatch sampled the host around every in-process sweep above
    slow = statistics.median(workload.clock.samples[sampled:])
    for metric, span in (
        ("service.fingerprint.build_config_us", "service.fingerprint.build_config"),
        ("service.fingerprint.request_fingerprint_us", "service.fingerprint.request_fingerprint"),
        ("service.cache.get_us", "service.cache.get"),
        ("service.cache.put_us", "service.cache.put"),
    ):
        m[metric] = _median_us(tracer.durations(span)) / slow
    m["service.server.warm_overhead_ms"] = statistics.median(p.warm_ms) - (
        m["service.fingerprint.build_config_us"]
        + m["service.fingerprint.request_fingerprint_us"]
        + m["service.cache.get_us"]
    ) / 1e3
    m["service.server.cold_overhead_ms"] = statistics.median(
        p.cold_ms
    ) - statistics.median(in_process_ms)
