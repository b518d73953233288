"""Experiment ``load_latency`` — load–latency curves, fault-free vs faulty.

Extension beyond the paper's Figures 7/8: the classic NoC evaluation
curve.  Sweeping offered load shows *where* the tolerated-fault overhead
comes from — at low load the protected router absorbs faults almost for
free (the +1-cycle penalties are rare and uncontended); approaching
saturation, bypass serialisation and secondary-path mux sharing cost
real bandwidth, so the faulty curve saturates earlier.  The crossover
structure ("faults shift the saturation knee left") is the shape this
experiment pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import NetworkConfig, RouterConfig, SimulationConfig
from ..faults.injector import RandomFaultSchedule
from ..network.simulator import SimulationResult
from ..traffic.generator import SyntheticTraffic
from .parallel import LanePoint
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class LoadLatencyConfig:
    """Unified-API config of the load-latency sweep."""

    rates: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25)
    width: int = 4
    height: int = 4
    num_faults: int = 48
    seed: int = 1
    measure: int = 3000

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("need at least one rate")


@dataclass(frozen=True)
class LoadPoint:
    """One sweep point: offered load and the two measured latencies."""

    injection_rate: float
    fault_free_latency: float
    faulty_latency: float

    @property
    def overhead(self) -> float:
        return self.faulty_latency / self.fault_free_latency - 1.0


def _make_traffic(net: NetworkConfig, rate: float, seed: int) -> SyntheticTraffic:
    from ..traffic.generator import COHERENCE_MIX

    return SyntheticTraffic(net, injection_rate=rate, mix=COHERENCE_MIX, rng=seed)


def _make_schedule(net: NetworkConfig, faults: int, seed: int) -> RandomFaultSchedule:
    return RandomFaultSchedule(
        net.router, net.num_nodes, mean_interval=5.0, num_faults=faults,
        rng=seed + 101, first_fault_at=0, avoid_failure=True,
    )


def points(config: LoadLatencyConfig) -> list[LanePoint]:
    """Two points per rate, fault-free then faulty, each independently seeded.

    Traffic is the coherence mix (1-flit control + 5-flit data on two
    virtual networks) — multi-flit packets are what make secondary-path
    mux sharing and bypass serialisation visible.  All points share one
    structural key, so the whole sweep steps as lanes.
    """
    net = NetworkConfig(
        width=config.width, height=config.height,
        router=RouterConfig(num_vcs=4, num_vnets=2),
    )
    sim_config = SimulationConfig(
        warmup_cycles=500,
        measure_cycles=config.measure,
        drain_cycles=max(4000, config.measure),
        seed=config.seed,
        watchdog_cycles=20_000,
    )
    seed = config.seed
    return [
        LanePoint(
            config=net,
            sim_config=sim_config,
            make_traffic=_make_traffic,
            traffic_args=(net, rate, seed),
            make_schedule=_make_schedule if faults else None,
            schedule_args=(net, faults, seed) if faults else (),
            router_kind="protected",
            label=f"rate={rate:.2f}:{'faulty' if faults else 'ff'}",
        )
        for rate in config.rates
        for faults in (0, config.num_faults)
    ]


def report(
    config: LoadLatencyConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    rates = list(config.rates)
    curve_points = [
        LoadPoint(
            rate,
            results[2 * i].avg_network_latency,
            results[2 * i + 1].avg_network_latency,
        )
        for i, rate in enumerate(rates)
    ]
    res = ExperimentResult(
        "load_latency",
        "load-latency curves, fault-free vs faulty (extension)",
    )
    for p in curve_points:
        res.add(
            f"latency @ {p.injection_rate:.2f} flits/node/cycle (fault-free)",
            round(p.fault_free_latency, 2),
            None,
            unit="cycles",
        )
        res.add(
            f"latency @ {p.injection_rate:.2f} flits/node/cycle (faulty)",
            round(p.faulty_latency, 2),
            None,
            unit="cycles",
        )
    overheads = [p.overhead for p in curve_points]
    res.add("overhead at lowest load", round(overheads[0], 3), None)
    res.add("overhead at highest load", round(overheads[-1], 3), None)
    res.add(
        "fault overhead grows with load",
        overheads[-1] > overheads[0],
        True,
        note="the contention-driven mechanism behind Figures 7/8",
    )
    res.extras["points"] = curve_points
    from .charts import curve

    res.extras["chart"] = (
        "fault-free:\n"
        + curve(rates, [p.fault_free_latency for p in curve_points])
        + "\nfaulty:\n"
        + curve(rates, [p.faulty_latency for p in curve_points])
    )
    return res


run = experiment(LoadLatencyConfig, __name__)
