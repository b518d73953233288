"""Experiment ``energy`` — per-flit energy, fault-free vs faulty (extension).

Prices the simulator's event counters with the 45 nm per-event energy
model: tolerated faults cost energy (secondary-path demux charges, VC
transfer re-writes, duplicate RC computations) on top of the latency the
paper reports.  The headline shape: the energy-per-flit overhead under
the Figure 7/8 fault regime stays in the single-digit percent range —
cheaper than the latency overhead, because only fault-adjacent flits pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..network.simulator import SimulationResult
from ..synthesis.energy import EnergyModel, energy_of_run
from ..traffic.apps import app_profile
from .latency import QUICK_CONFIG, LatencyConfig, app_points, tolerated
from .parallel import LanePoint
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class EnergyConfig:
    """Unified-API config of the per-flit energy experiment."""

    app: str = "ocean"
    latency: LatencyConfig = QUICK_CONFIG
    model: Optional[EnergyModel] = None

    def __post_init__(self) -> None:
        app_profile(self.app)  # unknown application: ValueError


def points(config: EnergyConfig) -> list[LanePoint]:
    """The application's fault-free and faulty run: a two-lane sweep."""
    return app_points(config.latency, app_profile(config.app))


def report(
    config: EnergyConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    app = config.app
    ff, fy = (tolerated(r, app) for r in results)
    model = config.model or EnergyModel()
    e_ff = energy_of_run(ff, model)
    e_fy = energy_of_run(fy, model)

    res = ExperimentResult(
        "energy", f"per-flit energy under faults — {app} (extension)"
    )
    res.add("fault-free energy/flit", round(e_ff.pj_per_flit, 3), None, unit="pJ")
    res.add("faulty energy/flit", round(e_fy.pj_per_flit, 3), None, unit="pJ")
    overhead = e_fy.pj_per_flit / e_ff.pj_per_flit - 1.0
    res.add("energy/flit overhead", round(overhead, 4), None)
    for key in ("secondary_path", "vc_transfers"):
        res.add(
            f"fault-only energy: {key}",
            round(e_fy.breakdown_pj[key], 1),
            None,
            unit="pJ",
            note="zero in the fault-free run" if e_ff.breakdown_pj[key] == 0 else "",
        )
    res.add(
        "energy overhead below latency overhead",
        overhead
        <= (fy.avg_network_latency / ff.avg_network_latency - 1.0) + 0.02,
        True,
        note="only fault-adjacent flits pay energy; every flit queues",
    )
    res.extras["fault_free"] = e_ff
    res.extras["faulty"] = e_fy
    return res


run = experiment(EnergyConfig, __name__)
