"""Experiment ``design_space`` — router provisioning exploration (extension).

Sweeps the two sizing knobs the paper fixes (4 VCs, 4-flit buffers) and
reports their three-way trade-off:

* performance — fault-free latency at a reference load,
* reliability — SPF (more VCs = more inherent redundancy to share),
* cost — area overhead of the correction circuitry (relatively smaller
  in bigger routers).

The paper's Section VIII-E covers the SPF column of this table; the
performance and cost columns complete the designer's picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import NetworkConfig, RouterConfig, SimulationConfig
from ..reliability.spf import analyze_spf
from ..reliability.stages import RouterGeometry
from ..synthesis.area import area_overhead
from ..traffic.generator import SyntheticTraffic
from .report import ExperimentResult, override_seed
from .resilient import sweep_runtime


@dataclass(frozen=True)
class DesignSpaceConfig:
    """Unified-API config of the VC/buffer provisioning grid."""

    vc_counts: tuple[int, ...] = (2, 4, 8)
    buffer_depths: tuple[int, ...] = (2, 4, 8)
    rate: float = 0.15
    seed: int = 1
    measure: int = 2000


def _grid_traffic(
    net: NetworkConfig, rate: float, seed: int
) -> SyntheticTraffic:
    """Traffic factory for one grid point (module-level → picklable)."""
    return SyntheticTraffic(net, injection_rate=rate, rng=seed)


def run(
    config: Optional[DesignSpaceConfig] = None,
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    out_dir=None,
    resume=None,
) -> ExperimentResult:
    """Unified entry point (``run(config, *, jobs, seed, out_dir, resume)``).

    ``config`` is a :class:`DesignSpaceConfig`; ``out_dir``/``resume``
    attach the resilient sweep runtime.
    """
    config = override_seed(config or DesignSpaceConfig(), seed)
    with sweep_runtime(out_dir=out_dir, resume=resume):
        return _run_experiment(config, jobs)


def _run_experiment(
    config: DesignSpaceConfig, jobs: Optional[int]
) -> ExperimentResult:
    from .parallel import LanePoint, run_lane_sweep

    vc_counts = list(config.vc_counts)
    buffer_depths = list(config.buffer_depths)
    rate, seed, measure = config.rate, config.seed, config.measure
    res = ExperimentResult(
        "design_space",
        "VC/buffer provisioning: latency x SPF x area (extension)",
    )
    # the simulation grid is the expensive part: one point per (VC
    # count, buffer depth), structurally distinct, so the lane sweep
    # runs each on the per-point event engine and reports why; the
    # SPF/area columns stay analytic
    grid = [(v, d) for v in vc_counts for d in buffer_depths]
    sim_config = SimulationConfig(
        warmup_cycles=400, measure_cycles=measure, drain_cycles=4000,
        seed=seed,
    )
    points = []
    for v, d in grid:
        net = NetworkConfig(
            width=4, height=4,
            router=RouterConfig(num_vcs=v, buffer_depth=d),
        )
        points.append(
            LanePoint(
                config=net,
                sim_config=sim_config,
                make_traffic=_grid_traffic,
                traffic_args=(net, rate, seed),
                router_kind="protected",
                label=f"{v}vc-{d}deep",
            )
        )
    values, sweep_report = run_lane_sweep(points, jobs=jobs)
    lat_by_point = dict(zip(grid, (r.avg_network_latency for r in values)))
    points = {}
    for v in vc_counts:
        geom = RouterGeometry(num_vcs=v)
        ovh = area_overhead(geom)
        spf = analyze_spf(ovh, RouterConfig(num_vcs=v)).spf
        for d in buffer_depths:
            lat = lat_by_point[(v, d)]
            points[(v, d)] = (lat, spf, ovh)
            res.add(
                f"latency @ {v} VCs, depth {d}", round(lat, 2), None,
                unit="cycles",
            )
        res.add(f"SPF @ {v} VCs", round(spf, 2), None)
        res.add(f"area overhead @ {v} VCs", round(ovh, 3), None)

    # shape assertions the table must exhibit
    vmin, vmax = min(vc_counts), max(vc_counts)
    dmin, dmax = min(buffer_depths), max(buffer_depths)
    res.add(
        "deeper buffers never hurt latency",
        all(
            points[(v, dmax)][0] <= points[(v, dmin)][0] + 0.5
            for v in vc_counts
        ),
        True,
    )
    res.add(
        "more VCs raise SPF",
        points[(vmax, dmin)][1] > points[(vmin, dmin)][1],
        True,
    )
    res.add(
        "bigger routers dilute the correction-area overhead",
        points[(vmax, dmin)][2] < points[(vmin, dmin)][2],
        True,
    )
    res.extras["points"] = points
    res.extras["sweep"] = sweep_report
    return res
