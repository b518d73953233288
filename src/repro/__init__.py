"""repro — reproduction of Poluri & Louri, "An Improved Router Design for
Reliable On-Chip Networks" (IPDPS 2014).

Public API tour
---------------
* :mod:`repro.router` — the generic 4-stage VC router substrate.
* :mod:`repro.core` — the paper's contribution: the protected router.
* :mod:`repro.network` — the cycle-accurate mesh simulator.
* :mod:`repro.faults` — permanent-fault sites and injection schedules.
* :mod:`repro.reliability` — FORC/FIT/SOFR/MTTF/SPF analysis.
* :mod:`repro.synthesis` — 45 nm gate-level area/power/timing proxy.
* :mod:`repro.comparison` — BulletProof / Vicis / RoCo reliability models.
* :mod:`repro.traffic` — synthetic patterns and SPLASH-2/PARSEC surrogates.
* :mod:`repro.experiments` — regenerates every paper table and figure.
* :mod:`repro.observability` — zero-cost metrics/tracing/profiling layer.

Every package face resolves a name on first touch (:mod:`repro._lazy`):
``import repro`` or ``import repro.network`` imports no submodule, and
``repro.NoCSimulator``, ``repro.run_sweep``, ``repro.sweep_runtime`` etc.
import only the module that defines them::

    import repro

    result = repro.run_experiment("table3", quick=True)
    with repro.sweep_runtime(out_dir="runs/sweep"):
        ...
"""

from ._lazy import lazy_face
from .config import NetworkConfig, RouterConfig, SimulationConfig

__version__ = "2.15.0"

#: the headline names, each imported from its defining module on first touch
__getattr__, __dir__ = lazy_face(__name__, {
    "network.simulator": "NoCSimulator SimulationResult",
    "core.protected_router": "ProtectedRouter",
    "router.router": "BaselineRouter",
    # sweep engine and the resilient runtime (docs/resilience.md)
    "experiments.parallel": "run_sweep map_sweep SweepTask SweepReport SweepError"
    " PointFailure PartialSweepReport PartialSweepError",
    "experiments.resilient": "RetryPolicy CheckpointStore ResumeError sweep_runtime",
    # experiment harness; the unified fault schedule and online campaigns
    "experiments.runner": "run_experiment",
    "experiments.report": "ExperimentResult",
    "faults.schedule": "FaultSchedule",
    "faults.timeline": "FaultTimeline",
    "experiments.fault_campaign": "CampaignConfig run_fault_campaign=run",
    "observability": "Observability ObservabilityConfig MetricsRegistry EventTracer",
})

__all__ = [
    "BaselineRouter",
    "CampaignConfig",
    "CheckpointStore",
    "EventTracer",
    "ExperimentResult",
    "FaultSchedule",
    "FaultTimeline",
    "MetricsRegistry",
    "NetworkConfig",
    "NoCSimulator",
    "Observability",
    "ObservabilityConfig",
    "PartialSweepError",
    "PartialSweepReport",
    "PointFailure",
    "ProtectedRouter",
    "ResumeError",
    "RetryPolicy",
    "RouterConfig",
    "SimulationConfig",
    "SimulationResult",
    "SweepError",
    "SweepReport",
    "SweepTask",
    "run_experiment",
    "run_fault_campaign",
    "run_sweep",
    "map_sweep",
    "sweep_runtime",
    "__version__",
]

