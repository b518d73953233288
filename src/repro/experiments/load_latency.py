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
from typing import Optional, Sequence

from ..config import NetworkConfig, RouterConfig, SimulationConfig
from ..faults.injector import RandomFaultSchedule
from ..traffic.generator import SyntheticTraffic
from .report import ExperimentResult, override_seed
from .resilient import sweep_runtime


@dataclass(frozen=True)
class LoadLatencyConfig:
    """Unified-API config of the load-latency sweep."""

    rates: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25)
    width: int = 4
    height: int = 4
    num_faults: int = 48
    seed: int = 1
    measure: int = 3000


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


def sweep(
    rates: Sequence[float],
    width: int = 4,
    height: int = 4,
    num_faults: int = 48,
    seed: int = 1,
    measure: int = 3000,
    jobs: Optional[int] = None,
) -> list[LoadPoint]:
    """Measure the fault-free and faulty curves over ``rates``.

    Traffic is the coherence mix (1-flit control + 5-flit data on two
    virtual networks) — multi-flit packets are what make secondary-path
    mux sharing and bypass serialisation visible.
    """
    points, _ = sweep_sharded(
        rates, width=width, height=height, num_faults=num_faults,
        seed=seed, measure=measure, jobs=jobs,
    )
    return points


def sweep_sharded(
    rates: Sequence[float],
    width: int = 4,
    height: int = 4,
    num_faults: int = 48,
    seed: int = 1,
    measure: int = 3000,
    jobs: Optional[int] = None,
) -> tuple[list[LoadPoint], "SweepReport"]:
    """The sweep through the lane engine: 2 points per rate (fault-free,
    faulty), each an independent seeded simulation.

    All points share one structural key (same mesh, protected router,
    XY routing), so the whole sweep steps as lanes of a single
    :class:`repro.network.batched.BatchedLaneEngine` per worker —
    bit-identical to one ``NoCSimulator`` per point.
    """
    from .parallel import LanePoint, run_lane_sweep

    if not rates:
        raise ValueError("need at least one rate")
    net = NetworkConfig(
        width=width, height=height,
        router=RouterConfig(num_vcs=4, num_vnets=2),
    )
    sim_config = SimulationConfig(
        warmup_cycles=500,
        measure_cycles=measure,
        drain_cycles=max(4000, measure),
        seed=seed,
        watchdog_cycles=20_000,
    )
    points = []
    for rate in rates:
        for faults in (0, num_faults):
            points.append(
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
            )
    values, report = run_lane_sweep(points, jobs=jobs)
    curve_points = [
        LoadPoint(
            rate,
            values[2 * i].avg_network_latency,
            values[2 * i + 1].avg_network_latency,
        )
        for i, rate in enumerate(rates)
    ]
    return curve_points, report


def run(
    config: Optional[LoadLatencyConfig] = None,
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    out_dir=None,
    resume=None,
) -> ExperimentResult:
    """Unified entry point (``run(config, *, jobs, seed, out_dir, resume)``).

    ``config`` is a :class:`LoadLatencyConfig`; ``out_dir``/``resume``
    attach the resilient sweep runtime.
    """
    config = override_seed(config or LoadLatencyConfig(), seed)
    with sweep_runtime(out_dir=out_dir, resume=resume):
        return _run_experiment(config, jobs)


def _run_experiment(
    config: LoadLatencyConfig, jobs: Optional[int]
) -> ExperimentResult:
    rates = list(config.rates)
    points, sweep_report = sweep_sharded(
        rates,
        width=config.width,
        height=config.height,
        num_faults=config.num_faults,
        seed=config.seed,
        measure=config.measure,
        jobs=jobs,
    )
    res = ExperimentResult(
        "load_latency",
        "load-latency curves, fault-free vs faulty (extension)",
    )
    for p in points:
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
    overheads = [p.overhead for p in points]
    res.add("overhead at lowest load", round(overheads[0], 3), None)
    res.add("overhead at highest load", round(overheads[-1], 3), None)
    res.add(
        "fault overhead grows with load",
        overheads[-1] > overheads[0],
        True,
        note="the contention-driven mechanism behind Figures 7/8",
    )
    res.extras["points"] = points
    res.extras["sweep"] = sweep_report
    from .charts import curve

    res.extras["chart"] = (
        "fault-free:\n"
        + curve(rates, [p.fault_free_latency for p in points])
        + "\nfaulty:\n"
        + curve(rates, [p.faulty_latency for p in points])
    )
    return res
