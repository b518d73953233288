"""The five ledger workloads: seeded inputs, the timed region, the output check.

Each workload is built from ``(seed, smoke)`` alone — every rate, traffic /
fault / timeline seed and request config comes from
``SeedSequence(seed).spawn`` here, the program only ever sees generated
inputs.  ``run_once()`` is the timed region plus an untimed read-back of
the results; ``verify()`` is the untimed output check.  Why each workload
exists is recorded in ``BENCHMARK.json`` and the README.

A pass is made of *units*, each one call into a public entry point of
about a second, timed by ``host.Stopwatch`` and scaled by the host speed
measured around it (see ``host.py`` for why); a pass's ``wall_s`` is the
sum of its units' reference-host seconds.  The driver's cap of 3420 s for
114 runs leaves ~30 s per run including set-up and the output check, so a
pass is sized at 1-3.5 s and a run holds five or more of them.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

SRC = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
)


@dataclass
class Pass:
    """What one execution of a workload's timed region produced."""

    #: the timed units, in reference-host seconds (raw seconds / host slowness)
    wall_s: float
    #: the same units in raw host seconds
    raw_s: float
    #: simulated cycles (sum of ``SimulationResult.cycles`` / reply cycles)
    cycles: int
    #: operations attempted in the timed region (points or requests)
    ops: int
    failed: int
    #: latency of each call that had to simulate (reference-host ms)
    cold_ms: List[float]
    #: latency of each call answered without simulating (reference-host ms)
    warm_ms: List[float]
    digest: str
    #: first unit's start to last unit's end on the ``perf_counter`` clock
    window: Tuple[float, float] = (0.0, 0.0)
    #: (LanePoint, SimulationResult) of every simulated point, in order
    pairs: List[Tuple[Any, Any]] = field(default_factory=list)
    #: SweepReports of the lane sweeps behind this pass
    reports: List[Any] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)


def child_seeds(seed: int, name: str, n: int) -> List[int]:
    """``n`` input seeds for workload ``name``, independent across workloads."""
    child = np.random.SeedSequence(seed).spawn(len(NAMES))[NAMES.index(name)]
    return [int(x) % (2**31) for x in child.generate_state(n)]


# ----------------------------------------------------------------------
# reading results back / the output check (simulation workloads)
# ----------------------------------------------------------------------
def read_out(results: List[Any]) -> List[tuple]:
    """Every compared field of every point — the program's read-back path."""
    return [
        (
            r.cycles, r.drained, r.blocked, r.faults_injected,
            r.stats.summary(), asdict(r.router_stats),
        )
        for r in results
    ]


def digest_of(keys: Any) -> str:
    blob = json.dumps(keys, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def build_sim(point: Any, **kwargs: Any) -> Any:
    """A fresh ``NoCSimulator`` for one ``LanePoint`` (no warm pool)."""
    from repro.core.protected_router import protected_router_factory
    from repro.network.simulator import NoCSimulator, baseline_router_factory

    factory = {
        "baseline": baseline_router_factory,
        "protected": protected_router_factory,
    }[point.router_kind](point.config)
    schedule = (
        point.make_schedule(*point.schedule_args)
        if point.make_schedule is not None
        else None
    )
    return NoCSimulator(
        point.config,
        point.sim_config,
        point.make_traffic(*point.traffic_args),
        router_factory=factory,
        fault_schedule=schedule,
        routing_kind=point.routing_kind,
        **kwargs,
    )


@contextmanager
def capture_lane_sweeps() -> Iterator[List[tuple]]:
    """Keep ``(points, results, report)`` of every ``run_lane_sweep`` call.

    The experiments reduce per-point results to report rows; the digest
    and the output check need the points themselves, so the call is
    passed through a hook that only stores references.
    """
    from repro.experiments import parallel

    calls: List[tuple] = []
    orig = parallel.run_lane_sweep

    def hook(points: Any, *args: Any, **kwargs: Any) -> Any:
        points = list(points)
        results, report = orig(points, *args, **kwargs)
        calls.append((points, results, report))
        return results, report

    parallel.run_lane_sweep = hook
    try:
        yield calls
    finally:
        parallel.run_lane_sweep = orig


def mesh_8x8() -> Any:
    from repro.config import NetworkConfig, RouterConfig

    return NetworkConfig(
        width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2)
    )


# module-level so LanePoints stay picklable
def synthetic_traffic(net: Any, rate: float, seed: int) -> Any:
    from repro.traffic.generator import COHERENCE_MIX, SyntheticTraffic

    return SyntheticTraffic(net, injection_rate=rate, mix=COHERENCE_MIX, rng=seed)


def tolerated_faults(net: Any, count: int, window: int, seed: int) -> Any:
    """``count`` tolerated faults landing uniformly over ``[0, window)``."""
    from repro.faults.injector import RandomFaultSchedule

    return RandomFaultSchedule(
        net.router,
        net.num_nodes,
        mean_interval=max(1.0, window / (2 * count)),
        num_faults=count,
        rng=seed,
        first_fault_at=0,
        avoid_failure=True,
    )


Unit = Tuple[float, float]  # (raw seconds, reference-host seconds)


class SimWorkload:
    """Shared shape of the four simulation workloads."""

    name = ""
    #: read-backs timed after each pass (samples of ``warm_req_p50_ms``)
    READ_BACKS = 100

    def __init__(self, seed: int, smoke: bool, scratch: str, clock: Any) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.clock = clock
        self._dirs = 0

    # subclasses: one unit per public call; returns (units, pairs or None, extras)
    def timed(
        self, smoke: bool, runtime: bool
    ) -> Tuple[List[Unit], Optional[List[Tuple[Any, Any]]], Dict[str, Any]]:
        raise NotImplementedError

    def _unit(self, call: Any) -> Tuple[Any, Unit]:
        out, raw, ref = self.clock.time(call)
        return out, (raw, ref)

    def _run_dir(self) -> str:
        """A fresh checkpoint directory under the scratch dir."""
        self._dirs += 1
        return os.path.join(self.scratch, f"{self.name}-run{self._dirs}")

    def warm_up(self) -> None:
        """The reduced untimed pass: code paths and caches, not results."""
        self.timed(True, True)

    def run_once(self, runtime: bool = True, tracer: Any = None) -> Pass:
        """``tracer`` is unused: the traced pass wraps the program instead."""
        with capture_lane_sweeps() as calls:
            gc.collect()
            start = perf_counter()
            units, pairs, extras = self.timed(self.smoke, runtime)
            end = perf_counter()
        if pairs is None:
            pairs = [
                (p, r)
                for points, results, _ in calls
                for p, r in zip(points, results)
            ]
        results = [r for _, r in pairs]

        def read_backs() -> Tuple[List[tuple], List[float]]:
            each = []
            for _ in range(self.READ_BACKS):
                t0 = perf_counter()
                keys = read_out(results)
                each.append(perf_counter() - t0)
            return keys, each

        (keys, each), raw, ref = self.clock.time(read_backs)
        return Pass(
            wall_s=sum(ref for _, ref in units),
            raw_s=sum(raw for raw, _ in units),
            cycles=sum(r.cycles for r in results),
            ops=len(results),
            failed=0,
            cold_ms=[ref * 1e3 for _, ref in units],
            warm_ms=[x * 1e3 * ref / raw for x in each],
            digest=digest_of(keys),
            window=(start, end),
            pairs=pairs,
            reports=[rep for _, _, rep in calls],
            extras=extras,
        )

    def verify(self, last: Pass) -> Tuple[int, int]:
        """Re-run a seeded sample on the reference stepper; (checks, failed).

        At least two points, one of them faulted.  The sample is drawn
        from the benchmark seed, so another seed checks other points.
        """
        rng = np.random.default_rng(child_seeds(self.seed, self.name, 1)[0])
        order = [int(i) for i in rng.permutation(len(last.pairs))]
        faulted = next(i for i in order if last.pairs[i][0].make_schedule is not None)
        sample = [faulted, next(i for i in order if i != faulted)]
        failed = 0
        for i in sample:
            point, fast = last.pairs[i]
            ref = build_sim(point, use_reference_stepper=True).run()
            # by digest: summaries may hold NaN, which never equals itself
            if digest_of(read_out([ref])) != digest_of(read_out([fast])):
                print(f"verify: point {i} ({point.label}) differs from the "
                      "reference stepper", file=sys.stderr)
                failed += 1
        return len(sample), failed

    def close(self) -> None:
        pass


class LaneSweep8x8(SimWorkload):
    name = "lane_sweep_8x8"

    def __init__(self, seed: int, smoke: bool, scratch: str, clock: Any) -> None:
        super().__init__(seed, smoke, scratch, clock)
        self.net = mesh_8x8()
        self.points = {s: self._points(s) for s in (False, True)}

    def _points(self, smoke: bool) -> List[Any]:
        from repro.config import SimulationConfig
        from repro.experiments.parallel import LanePoint

        n, measure, drain = (8, 60, 150) if smoke else (64, 60, 150)
        sim = SimulationConfig(
            warmup_cycles=50, measure_cycles=measure, drain_cycles=drain,
            seed=7, watchdog_cycles=4000,
        )
        seeds = child_seeds(self.seed, self.name, 2 * n + 1)
        jitter = np.random.default_rng(seeds[-1]).random(n)
        step = 0.315 / n  # rates span 0.02 .. 0.335 whatever the point count
        points = []
        for i in range(n):
            faulty = i % 2 == 1
            points.append(
                LanePoint(
                    config=self.net,
                    sim_config=sim,
                    make_traffic=synthetic_traffic,
                    traffic_args=(
                        self.net, 0.02 + step * (i + float(jitter[i])), seeds[i],
                    ),
                    make_schedule=tolerated_faults if faulty else None,
                    schedule_args=(self.net, 8, 100, seeds[n + i]) if faulty else (),
                    router_kind="protected",
                    label=f"lane {i}",
                )
            )
        return points

    def timed(self, smoke, runtime):
        from repro.experiments import parallel

        _, unit = self._unit(
            lambda: parallel.run_lane_sweep(self.points[smoke], jobs=1)
        )
        return [unit], None, {}


class FigSuite4x4(SimWorkload):
    name = "fig_suite_4x4"

    def __init__(self, seed: int, smoke: bool, scratch: str, clock: Any) -> None:
        super().__init__(seed, smoke, scratch, clock)
        from repro.experiments.latency import QUICK_CONFIG

        self.cfg = {
            False: replace(
                QUICK_CONFIG, warmup_cycles=150, measure_cycles=500,
                drain_cycles=800,
            ),
            True: replace(
                QUICK_CONFIG, warmup_cycles=100, measure_cycles=150,
                drain_cycles=250,
            ),
        }
        self.run_seed = child_seeds(seed, self.name, 1)[0]

    def timed(self, smoke, runtime, resume: Optional[str] = None):
        from repro.experiments import fig7, fig8
        from repro.experiments.latency import overall_overhead

        run_dir = resume or (self._run_dir() if runtime else None)
        where = "resume" if resume else "out_dir"
        units, extras = [], {"run_dir": run_dir}
        for name, module in (("fig7", fig7), ("fig8", fig8)):
            sub = os.path.join(run_dir, name) if run_dir else None
            res, unit = self._unit(
                lambda: module.run(
                    self.cfg[smoke], jobs=1, seed=self.run_seed, **{where: sub}
                )
            )
            units.append(unit)
            extras[f"{name}_overhead"] = overall_overhead(res.extras["results"])
            extras[f"{name}_paper"] = module.PAPER_OVERALL_OVERHEAD
        return units, None, extras


class Campaign4x4(SimWorkload):
    name = "campaign_4x4"
    #: campaigns per pass, each its own unit under its own seed: short
    #: enough to bracket with host-speed samples, and a pass still
    #: averages over 8 timelines
    CAMPAIGNS = 2

    def __init__(self, seed: int, smoke: bool, scratch: str, clock: Any) -> None:
        super().__init__(seed, smoke, scratch, clock)
        from repro.experiments.fault_campaign import CampaignConfig
        from repro.experiments.latency import LatencyConfig
        from repro.faults.schedule import TimelineSpec

        def config(timelines, interval, warmup, measure, drain):
            return CampaignConfig(
                timelines=timelines,
                router_kinds=("baseline", "protected"),
                timeline=TimelineSpec(events=4, mean_interval=interval),
                latency=LatencyConfig(
                    width=4, height=4, warmup_cycles=warmup,
                    measure_cycles=measure, drain_cycles=drain,
                ),
                app="lu",
            )

        # a blocked baseline mesh idles to the drain limit at next to no
        # host cost; a short limit keeps simulated cycles from swinging
        # with how many of a seed's timelines block
        self.cfg = {
            False: config(4, 150.0, 150, 450, 300),
            True: config(2, 40.0, 50, 150, 250),
        }
        self.run_seeds = child_seeds(seed, self.name, self.CAMPAIGNS)

    def timed(self, smoke, runtime, resume: Optional[str] = None):
        from repro.experiments import fault_campaign

        run_dir = resume or (self._run_dir() if runtime else None)
        where = "resume" if resume else "out_dir"
        units = []
        for i, seed in enumerate(self.run_seeds[: 1 if smoke else None]):
            sub = os.path.join(run_dir, f"campaign{i}") if run_dir else None
            _, unit = self._unit(
                lambda: fault_campaign.run(
                    self.cfg[smoke], jobs=1, seed=seed, **{where: sub}
                )
            )
            units.append(unit)
        return units, None, {"run_dir": run_dir}


class SingleRun8x8(SimWorkload):
    name = "single_run_8x8"

    def __init__(self, seed: int, smoke: bool, scratch: str, clock: Any) -> None:
        super().__init__(seed, smoke, scratch, clock)
        self.net = mesh_8x8()
        self.points = {s: self._points(s) for s in (False, True)}

    def _points(self, smoke: bool) -> List[Any]:
        from repro.config import SimulationConfig
        from repro.experiments.parallel import LanePoint

        warmup, measure, drain = (100, 250, 300) if smoke else (300, 1300, 800)
        traffic_seed, fault_seed = child_seeds(self.seed, self.name, 2)
        sim = SimulationConfig(
            warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain,
            seed=traffic_seed, watchdog_cycles=10_000,
        )
        # LanePoints only as input records: both runs go straight to
        # NoCSimulator, the same traffic and faults under each routing
        return [
            LanePoint(
                config=self.net,
                sim_config=sim,
                make_traffic=synthetic_traffic,
                traffic_args=(self.net, 0.08, traffic_seed),
                make_schedule=tolerated_faults,
                schedule_args=(self.net, 32, warmup, fault_seed),
                router_kind="protected",
                routing_kind=routing,
                label=routing,
            )
            for routing in ("xy", "west_first")
        ]

    def timed(self, smoke, runtime):
        units, pairs = [], []
        for point in self.points[smoke]:
            result, unit = self._unit(lambda: build_sim(point).run())
            units.append(unit)
            pairs.append((point, result))
        return units, pairs, {}


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
class Server:
    """A live ``python -m repro.service`` subprocess, always reaped."""

    def __init__(self, cache_dir: str) -> None:
        from repro.service.client import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.cache_dir = cache_dir
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--port", "0",
                "--cache-dir", cache_dir, "--jobs", "1",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            ready = self.proc.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", ready)
            if not match:
                raise RuntimeError(f"no ready line from the server: {ready!r}")
            self.client = ServiceClient("127.0.0.1", int(match.group(1)))
            if not asyncio.run(self.client.health()):
                raise RuntimeError("server printed its ready line but is not healthy")
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def wipe_cache(self) -> None:
        """Forget every result (the cache keeps no in-memory index)."""
        shutil.rmtree(os.path.join(self.cache_dir, "entries"))
        os.makedirs(os.path.join(self.cache_dir, "entries"))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


def _span(tracer: Any, name: str) -> Any:
    return nullcontext() if tracer is None else tracer.span(name)


class ServiceMix:
    """Closed loop, one client: cold requests, warm requests, one burst."""

    name = "service_mix"
    EXPERIMENT = "fault_sweep"
    #: warm requests per timed unit (one request is ~1 ms: too short to
    #: bracket with host-speed samples on its own)
    WARM_BLOCK = 100

    def __init__(self, seed: int, smoke: bool, scratch: str, clock: Any) -> None:
        self.seed = seed
        self.smoke = smoke
        self.clock = clock
        base, self.burst_seed, order_seed = child_seeds(seed, self.name, 3)
        self.n_cold, self.n_warm = (3, 60) if smoke else (12, 1000)
        self.config = {
            "fault_counts": [0, 2],
            "latency": {
                "width": 4, "height": 4, "warmup_cycles": 50,
                "measure_cycles": 300, "drain_cycles": 500, "num_faults": 8,
            },
        }
        self.seeds = [(base + i) % (2**31) for i in range(self.n_cold)]
        rng = np.random.default_rng(order_seed)
        self.warm_order = [int(i) for i in rng.integers(0, self.n_cold, self.n_warm)]
        self.burst = 2  # the box's core count
        self.server = Server(os.path.join(scratch, "cache"))
        self.stats: Dict[str, Any] = {}
        self.replies: List[Dict[str, Any]] = []

    def warm_up(self) -> None:
        async def go() -> None:
            for _ in range(21):  # one cold request, then hits on it
                await self.server.client.sweep(
                    self.EXPERIMENT, self.config, seed=self.burst_seed + 1
                )

        asyncio.run(go())

    def run_once(self, runtime: bool = True, tracer: Any = None) -> Pass:
        self.server.wipe_cache()
        gc.collect()
        return asyncio.run(self._mix(tracer))

    async def _request(self, seed: int, tracer: Any, kind: str, failures: List[str]):
        """One request and its raw ms; an error reply counts as a failed operation."""
        from repro.service.client import ServiceError

        t0 = perf_counter()
        try:
            with _span(tracer, f"service.client.{kind}"):
                reply = await self.server.client.sweep(
                    self.EXPERIMENT, self.config, seed=seed
                )
        except ServiceError as exc:
            failures.append(f"{kind} seed {seed}: {exc}")
            reply = None
        return reply, (perf_counter() - t0) * 1e3

    async def _mix(self, tracer: Any) -> Pass:
        client, clock = self.server.client, self.clock
        failures: List[str] = []
        cold_ms, warm_ms, cold = [], [], []
        cycles, raw_s, ref_s = 0, 0.0, 0.0
        before = (await client.stats())["counters"]
        t_start = perf_counter()
        for seed in self.seeds:  # one unit per cold request
            slow = clock.start()
            reply, ms = await self._request(seed, tracer, "cold", failures)
            ref = clock.stop(slow, ms / 1e3)
            raw_s, ref_s = raw_s + ms / 1e3, ref_s + ref
            cold.append(reply)
            cold_ms.append(ref * 1e3)
            if reply is not None:
                cycles += reply["compute"]["sweep"]["cycles"]
                if reply["cached"]:
                    failures.append(f"cold seed {seed} was served from the cache")
        for lo in range(0, self.n_warm, self.WARM_BLOCK):  # one unit per block
            slow = clock.start()
            block = []
            for i in self.warm_order[lo : lo + self.WARM_BLOCK]:
                reply, ms = await self._request(self.seeds[i], tracer, "warm", failures)
                block.append(ms)
                if reply is not None and cold[i] is not None and not (
                    reply["cached"] and reply["sha256"] == cold[i]["sha256"]
                ):
                    failures.append(f"warm reply {i} does not carry the cold sha256")
            raw = sum(block) / 1e3
            ref = clock.stop(slow, raw)
            raw_s, ref_s = raw_s + raw, ref_s + ref
            warm_ms += [ms * ref / raw for ms in block]
        # the burst's requests overlap, so they share one span and one unit
        slow = clock.start()
        t0 = perf_counter()
        with _span(tracer, "service.client.burst"):
            burst = await asyncio.gather(
                *(
                    self._request(self.burst_seed, None, "burst", failures)
                    for _ in range(self.burst)
                )
            )
        raw = perf_counter() - t0
        t_end = t0 + raw
        raw_s, ref_s = raw_s + raw, ref_s + clock.stop(slow, raw)
        self.stats = await client.stats()
        computed = self.stats["counters"]["service.computations"] - before.get(
            "service.computations", 0
        )
        if computed != self.n_cold + 1:
            failures.append(
                f"{computed} computations for {self.n_cold} cold requests and "
                f"one burst of {self.burst}"
            )
        first = next((r for r, _ in burst if r is not None), None)
        if first is not None:
            cycles += first["compute"]["sweep"]["cycles"]
        if any(r is not None and r["sha256"] != first["sha256"] for r, _ in burst):
            failures.append("burst replies differ")
        for line in failures:
            print(f"service_mix: {line}", file=sys.stderr)
        self.replies = [r for r in cold if r is not None]
        shas = [r["sha256"] if r else None for r in cold + [first]]
        return Pass(
            wall_s=ref_s,
            raw_s=raw_s,
            cycles=cycles,
            ops=self.n_cold + self.n_warm + self.burst,
            failed=len(failures),
            cold_ms=cold_ms,
            warm_ms=warm_ms,
            digest=digest_of(shas),
            window=(t_start, t_end),
            extras={"counters_before": before},
        )

    def verify(self, last: Pass) -> Tuple[int, int]:
        # checked request by request inside the mix (sha256 of every warm
        # reply, one computation per burst); nothing is left to re-run
        return 0, 0

    def close(self) -> None:
        self.server.close()


WORKLOADS = {
    cls.name: cls
    for cls in (LaneSweep8x8, FigSuite4x4, Campaign4x4, SingleRun8x8, ServiceMix)
}
NAMES = tuple(WORKLOADS)
