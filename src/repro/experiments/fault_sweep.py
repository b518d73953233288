"""Experiment ``fault_sweep`` — latency overhead vs number of faults.

Companion to Figures 7/8 (extension): the paper reports one operating
point ("in the presence of multiple faults"); this sweep varies the
number of simultaneously tolerated faults and traces how the latency
overhead accumulates.  The shape: near-linear growth at low fault counts
(independent +1-cycle penalties), super-linear once secondary-path mux
sharing starts interacting with congestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..network.simulator import SimulationResult
from ..traffic.apps import app_profile
from .latency import QUICK_CONFIG, LatencyConfig, suite_schedule, suite_traffic, tolerated
from .parallel import LanePoint
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class FaultSweepConfig:
    """Unified-API config of the fault-count sweep.

    A zero-fault baseline runs first whether or not ``fault_counts``
    names it.
    """

    fault_counts: tuple[int, ...] = (0, 8, 16, 32, 64)
    app: str = "ocean"
    latency: LatencyConfig = QUICK_CONFIG

    def __post_init__(self) -> None:
        if not self.fault_counts or any(n < 0 for n in self.fault_counts):
            raise ValueError("fault_counts must be one or more counts >= 0")
        app_profile(self.app)  # unknown application: ValueError


def _counts(config: FaultSweepConfig) -> list[int]:
    counts = list(config.fault_counts)
    return counts if counts[0] == 0 else [0] + counts


def points(config: FaultSweepConfig) -> list[LanePoint]:
    """One independent, fully seeded simulation per fault count.

    Every point shares the structural key, so the lane engine steps the
    whole sweep as lanes.
    """
    cfg = config.latency
    net = cfg.network()
    sim_config = cfg.simulation()
    return [
        LanePoint(
            config=net,
            sim_config=sim_config,
            make_traffic=suite_traffic,
            traffic_args=(net, config.app, cfg.seed, cfg.rate_scale),
            make_schedule=suite_schedule if n > 0 else None,
            schedule_args=(
                (net, cfg.warmup_cycles, max(n, 1), cfg.seed)
                if n > 0
                else ()
            ),
            router_kind="protected",
            label=f"{config.app}@{n}faults",
        )
        for n in _counts(config)
    ]


def report(
    config: FaultSweepConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    app = config.app
    rows = [
        (n, tolerated(result, f"{app}@{n}faults").avg_network_latency)
        for n, result in zip(_counts(config), results)
    ]
    base_latency = rows[0][1]

    res = ExperimentResult(
        "fault_sweep",
        f"latency overhead vs tolerated-fault count — {app} (extension)",
    )
    overheads = []
    for n, lat in rows:
        ovh = lat / base_latency - 1.0
        overheads.append(ovh)
        res.add(
            f"latency @ {n} faults", round(lat, 2), None, unit="cycles"
        )
        if n:
            res.add(f"overhead @ {n} faults", round(ovh, 4), None)
    res.add(
        "overhead non-decreasing in fault count",
        all(b >= a - 0.015 for a, b in zip(overheads, overheads[1:])),
        True,
        note="small non-monotonic wiggle allowed: fault placement is random",
    )
    res.add(
        "zero faults costs nothing",
        overheads[0] == 0.0,
        True,
    )
    res.extras["rows"] = rows
    from .charts import curve

    res.extras["chart"] = curve(
        [float(n) for n, _ in rows],
        [lat for _, lat in rows],
        x_label="faults",
        y_label="latency",
    )
    return res


run = experiment(FaultSweepConfig, __name__)
