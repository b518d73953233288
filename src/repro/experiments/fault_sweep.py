"""Experiment ``fault_sweep`` — latency overhead vs number of faults.

Companion to Figures 7/8 (extension): the paper reports one operating
point ("in the presence of multiple faults"); this sweep varies the
number of simultaneously tolerated faults and traces how the latency
overhead accumulates.  The shape: near-linear growth at low fault counts
(independent +1-cycle penalties), super-linear once secondary-path mux
sharing starts interacting with congestion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..traffic.apps import app_profile
from .latency import QUICK_CONFIG, LatencyConfig, suite_schedule, suite_traffic
from .report import ExperimentResult
from .resilient import sweep_runtime


@dataclass(frozen=True)
class FaultSweepConfig:
    """Unified-API config of the fault-count sweep."""

    fault_counts: Optional[tuple[int, ...]] = None
    app: str = "ocean"
    latency: Optional[LatencyConfig] = None


def run(
    config: Optional[FaultSweepConfig] = None,
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    out_dir=None,
    resume=None,
) -> ExperimentResult:
    """Unified entry point (``run(config, *, jobs, seed, out_dir, resume)``).

    ``config`` is a :class:`FaultSweepConfig`; ``out_dir``/``resume``
    attach the resilient runtime.
    """
    config = config or FaultSweepConfig()
    cfg = config.latency
    if seed is not None:
        cfg = replace(cfg or QUICK_CONFIG, seed=seed)
    with sweep_runtime(out_dir=out_dir, resume=resume):
        return _run_experiment(config.fault_counts, config.app, cfg, jobs)


def _run_experiment(
    fault_counts: Optional[Sequence[int]],
    app: str,
    cfg: LatencyConfig | None,
    jobs: Optional[int],
) -> ExperimentResult:
    from .parallel import LanePoint, run_lane_sweep

    fault_counts = list(fault_counts or (0, 8, 16, 32, 64))
    if fault_counts[0] != 0:
        fault_counts = [0] + fault_counts
    cfg = cfg or QUICK_CONFIG
    profile = app_profile(app)
    net = cfg.network()
    sim_config = cfg.simulation()

    # one independent, fully seeded simulation per fault count — every
    # point shares the structural key, so the batched engine steps the
    # whole sweep as lanes; results reassemble in index order either way
    points = [
        LanePoint(
            config=net,
            sim_config=sim_config,
            make_traffic=suite_traffic,
            traffic_args=(net, profile.name, cfg.seed, cfg.rate_scale),
            make_schedule=suite_schedule if n > 0 else None,
            schedule_args=(
                (net, cfg.warmup_cycles, max(n, 1), cfg.seed)
                if n > 0
                else ()
            ),
            router_kind="protected",
            label=f"{app}@{n}faults",
        )
        for n in fault_counts
    ]
    results, sweep_report = run_lane_sweep(points, jobs=jobs)

    base_latency = None
    rows: list[tuple[int, float]] = []
    for n, result in zip(fault_counts, results):
        if result.blocked:
            raise RuntimeError(
                f"{app}@{n}faults: network blocked — fault schedule "
                "should have been tolerable"
            )
        lat = result.avg_network_latency
        if n == 0:
            base_latency = lat
        rows.append((n, lat))
    assert base_latency is not None

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
    res.extras["sweep"] = sweep_report
    from .charts import curve

    res.extras["chart"] = curve(
        [float(n) for n, _ in rows],
        [lat for _, lat in rows],
        x_label="faults",
        y_label="latency",
    )
    return res
