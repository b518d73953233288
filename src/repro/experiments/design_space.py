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
from typing import Sequence

from ..config import NetworkConfig, RouterConfig, SimulationConfig
from ..network.simulator import SimulationResult
from ..reliability.spf import analyze_spf
from ..reliability.stages import RouterGeometry
from ..synthesis.area import area_overhead
from ..traffic.generator import SyntheticTraffic
from .parallel import LanePoint
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class DesignSpaceConfig:
    """Unified-API config of the VC/buffer provisioning grid."""

    vc_counts: tuple[int, ...] = (2, 4, 8)
    buffer_depths: tuple[int, ...] = (2, 4, 8)
    rate: float = 0.15
    seed: int = 1
    measure: int = 2000

    def __post_init__(self) -> None:
        if not self.vc_counts or not self.buffer_depths:
            raise ValueError("vc_counts and buffer_depths must not be empty")


def _grid_traffic(
    net: NetworkConfig, rate: float, seed: int
) -> SyntheticTraffic:
    """Traffic factory for one grid point (module-level → picklable)."""
    return SyntheticTraffic(net, injection_rate=rate, rng=seed)


def points(config: DesignSpaceConfig) -> list[LanePoint]:
    """One simulation per (VC count, buffer depth), in grid order.

    The points are structurally distinct, so the lane sweep runs each as a
    ``run_point`` task, whose ``run()`` picks the engine by load; the SPF
    and area columns of the report stay analytic.
    """
    sim_config = SimulationConfig(
        warmup_cycles=400, measure_cycles=config.measure, drain_cycles=4000,
        seed=config.seed,
    )
    out = []
    for v in config.vc_counts:
        for d in config.buffer_depths:
            net = NetworkConfig(
                width=4, height=4,
                router=RouterConfig(num_vcs=v, buffer_depth=d),
            )
            out.append(
                LanePoint(
                    config=net,
                    sim_config=sim_config,
                    make_traffic=_grid_traffic,
                    traffic_args=(net, config.rate, config.seed),
                    router_kind="protected",
                    label=f"{v}vc-{d}deep",
                )
            )
    return out


def report(
    config: DesignSpaceConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    vc_counts = list(config.vc_counts)
    buffer_depths = list(config.buffer_depths)
    res = ExperimentResult(
        "design_space",
        "VC/buffer provisioning: latency x SPF x area (extension)",
    )
    grid = [(v, d) for v in vc_counts for d in buffer_depths]
    lat_by_point = dict(zip(grid, (r.avg_network_latency for r in results)))
    grid_rows = {}
    for v in vc_counts:
        geom = RouterGeometry(num_vcs=v)
        ovh = area_overhead(geom)
        spf = analyze_spf(ovh, RouterConfig(num_vcs=v)).spf
        for d in buffer_depths:
            lat = lat_by_point[(v, d)]
            grid_rows[(v, d)] = (lat, spf, ovh)
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
            grid_rows[(v, dmax)][0] <= grid_rows[(v, dmin)][0] + 0.5
            for v in vc_counts
        ),
        True,
    )
    res.add(
        "more VCs raise SPF",
        grid_rows[(vmax, dmin)][1] > grid_rows[(vmin, dmin)][1],
        True,
    )
    res.add(
        "bigger routers dilute the correction-area overhead",
        grid_rows[(vmax, dmin)][2] < grid_rows[(vmin, dmin)][2],
        True,
    )
    res.extras["points"] = grid_rows
    return res


run = experiment(DesignSpaceConfig, __name__)
