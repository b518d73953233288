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

The run is one protected sweep point whose fault schedule asks for a
recovery log, so the engine watches every landed fault with the same
:class:`repro.faults.recovery.RecoveryMonitor` ``fault_campaign`` reads,
and the rows are read off its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import NetworkConfig, RouterConfig, SimulationConfig
from ..faults.injector import RandomFaultSchedule
from ..faults.timeline import FaultTimeline
from ..network.simulator import SimulationResult
from ..traffic.generator import SyntheticTraffic
from .parallel import LanePoint
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

    def __post_init__(self) -> None:
        if self.num_faults < 1:
            raise ValueError("num_faults must be >= 1")
        if self.measure_cycles < 1:
            raise ValueError("measure_cycles must be >= 1")


def detection_traffic(net: NetworkConfig, config: DetectionLatencyConfig) -> SyntheticTraffic:
    """The point's uniform single-flit traffic (module-level factory)."""
    return SyntheticTraffic(net, injection_rate=config.injection_rate, rng=config.seed)


def detection_schedule(net: NetworkConfig, config: DetectionLatencyConfig) -> FaultTimeline:
    """Tolerable faults at uniform gaps over the measurement window, with
    a recovery log: the engine installs a recovery monitor for it."""
    schedule = RandomFaultSchedule(
        net.router,
        net.num_nodes,
        mean_interval=config.measure_cycles / (2 * config.num_faults),
        num_faults=config.num_faults,
        rng=config.seed + 31,
        first_fault_at=10,
        avoid_failure=True,
    )
    schedule.recovery_log = True
    return schedule


def points(config: DetectionLatencyConfig) -> list[LanePoint]:
    """One protected run: nothing to shard, but it streams and resumes."""
    net = NetworkConfig(
        width=config.width, height=config.height, router=RouterConfig(num_vcs=4)
    )
    sim_config = SimulationConfig(
        warmup_cycles=0,
        measure_cycles=config.measure_cycles,
        drain_cycles=4000,
        seed=config.seed,
    )
    return [
        LanePoint(
            config=net,
            sim_config=sim_config,
            make_traffic=detection_traffic,
            traffic_args=(net, config),
            make_schedule=detection_schedule,
            schedule_args=(net, config),
            router_kind="protected",
            label="detection",
        )
    ]


def report(
    config: DetectionLatencyConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    (result,) = results
    records = result.recovery["records"]
    events = [r for r in records if r["detected_at"] is not None]
    latencies = np.array(
        [r["detected_at"] - r["landed_at"] for r in events], dtype=float
    )
    res = ExperimentResult(
        "detection_latency",
        "online fault observability under live traffic (extension)",
    )
    res.add("faults injected", result.faults_injected, config.num_faults)
    res.add(
        "latent-spare injections (unobservable)",
        sum(r["latent"] for r in records),
        None,
        note="duplicate-RC / bypass / secondary-path sites stay invisible "
        "until their primary also fails",
    )
    res.add("observable faults detected", len(events), None)
    res.add(
        "still-latent at end of run",
        sum(not r["latent"] and r["detected_at"] is None for r in records),
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
    return res


run = experiment(DetectionLatencyConfig, __name__)
