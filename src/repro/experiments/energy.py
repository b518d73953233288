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
from typing import Optional

from ..synthesis.energy import EnergyModel, energy_of_run
from ..traffic.apps import app_profile
from .latency import QUICK_CONFIG, LatencyConfig, run_app
from .report import ExperimentResult, override_seed


@dataclass(frozen=True)
class EnergyConfig:
    """Unified-API config of the per-flit energy experiment."""

    app: str = "ocean"
    latency: Optional[LatencyConfig] = None
    model: Optional[EnergyModel] = None


def run(
    config: Optional[EnergyConfig] = None,
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    out_dir=None,
    resume=None,
) -> ExperimentResult:
    """Unified entry point (``run(config, *, jobs, seed, out_dir, resume)``).

    ``config`` is an :class:`EnergyConfig`.  The experiment is a
    fault-free/faulty pair of serial simulations, so
    ``jobs``/``out_dir``/``resume`` are accepted for API uniformity and
    ignored.
    """
    del jobs, out_dir, resume  # two serial runs: nothing to shard
    config = config or EnergyConfig()
    return _run_experiment(config, seed)


def _run_experiment(
    config: EnergyConfig, seed: Optional[int]
) -> ExperimentResult:
    app = config.app
    cfg = override_seed(config.latency or QUICK_CONFIG, seed)
    model = config.model or EnergyModel()
    profile = app_profile(app)
    ff = run_app(profile, cfg, faulty=False)
    fy = run_app(profile, cfg, faulty=True)
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
