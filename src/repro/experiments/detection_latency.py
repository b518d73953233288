"""Experiment ``detection_latency`` — online fault observability (extension).

The paper assumes an existing detection mechanism (NoCAlert) and charges
+3 % area / +1 % power for it; this extension quantifies the *behavioural*
side of that assumption on our fabric: after a fault is injected, how
many cycles pass before live traffic first exercises the faulty
component (the earliest moment an invariant-checking detector can flag
it)?

Two regimes matter:

* **primary-resource faults** (RC unit, VA arbiter set, SA arbiter,
  crossbar mux) become observable as soon as traffic touches the
  resource — fast at moderate load;
* **correction-circuitry faults** (duplicate RC, bypass path, secondary
  path) are *latent spares*: invisible until their primary also fails —
  the classic latent-fault detection problem, reported here as the
  fraction of unobservable injections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import NetworkConfig, RouterConfig, SimulationConfig
from ..core.protected_router import protected_router_factory
from ..faults.detection import NetworkDetector
from ..faults.injector import RandomFaultSchedule
from ..network.simulator import NoCSimulator
from ..traffic.generator import SyntheticTraffic
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class DetectionLatencyConfig:
    """Unified-API config of the fault-observability experiment."""

    width: int = 4
    height: int = 4
    num_faults: int = 24
    injection_rate: float = 0.08
    measure_cycles: int = 4000
    seed: int = 1


def body(config: DetectionLatencyConfig, jobs: Optional[int]) -> ExperimentResult:
    """One instrumented simulation: nothing to shard."""
    width, height = config.width, config.height
    num_faults = config.num_faults
    injection_rate = config.injection_rate
    measure_cycles = config.measure_cycles
    seed = config.seed
    net = NetworkConfig(
        width=width, height=height, router=RouterConfig(num_vcs=4)
    )
    injector = RandomFaultSchedule(
        net.router,
        net.num_nodes,
        mean_interval=measure_cycles / (2 * num_faults),
        num_faults=num_faults,
        rng=seed + 31,
        first_fault_at=10,
        avoid_failure=True,
    )
    sim = NoCSimulator(
        net,
        SimulationConfig(
            warmup_cycles=0,
            measure_cycles=measure_cycles,
            drain_cycles=4000,
            seed=seed,
        ),
        SyntheticTraffic(net, injection_rate=injection_rate, rng=seed),
        router_factory=protected_router_factory(net),
        fault_schedule=injector,
    )
    detector = NetworkDetector(sim.routers)

    # wrap the step to register watches as faults land and poll the
    # detectors each cycle
    planned = dict()
    for cycle, site in injector.planned:
        planned.setdefault(cycle, []).append(site)
    original = sim._step
    unobservable = 0

    def stepped(cycle: int, inject_traffic: bool) -> None:
        original(cycle, inject_traffic)
        for c in list(planned):
            if c <= cycle:
                for site in planned.pop(c):
                    nonlocal_unobs = detector.watch(site, cycle)
                    if not nonlocal_unobs:
                        nonlocal_count[0] += 1
        detector.poll(cycle)

    nonlocal_count = [0]
    sim._step = stepped
    result = sim.run()
    unobservable = nonlocal_count[0]

    events = detector.events
    latencies = np.array([e.detection_latency for e in events], dtype=float)
    res = ExperimentResult(
        "detection_latency",
        "online fault observability under live traffic (extension)",
    )
    res.add("faults injected", result.faults_injected, num_faults)
    res.add(
        "latent-spare injections (unobservable)",
        unobservable,
        None,
        note="duplicate-RC / bypass / secondary-path sites stay invisible "
        "until their primary also fails",
    )
    res.add("observable faults detected", len(events), None)
    res.add(
        "still-latent at end of run",
        detector.pending,
        None,
        note="faulty components no traffic happened to exercise",
    )
    if len(latencies):
        res.add("mean detection latency", round(float(latencies.mean()), 1),
                None, unit="cycles")
        res.add("median detection latency",
                round(float(np.median(latencies)), 1), None, unit="cycles")
        res.add("max detection latency", int(latencies.max()), None,
                unit="cycles")
    res.add(
        "every observed detection after injection",
        bool(len(latencies) == 0 or latencies.min() >= 0),
        True,
    )
    res.extras["events"] = events
    res.extras["detector"] = detector
    return res


run = experiment(DetectionLatencyConfig, __name__)
