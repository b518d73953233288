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

The headline classes are re-exported here lazily, so ``import repro``
stays cheap while ``repro.NoCSimulator``, ``repro.run_sweep``,
``repro.sweep_runtime`` etc. resolve on first touch::

    import repro

    result = repro.run_experiment("table3", quick=True)
    with repro.sweep_runtime(out_dir="runs/sweep"):
        ...
"""

from .config import NetworkConfig, RouterConfig, SimulationConfig

__version__ = "2.13.0"

#: lazily resolved facade: exported name -> (module, attribute)
_LAZY = {
    # simulator surface
    "NoCSimulator": ("repro.network", "NoCSimulator"),
    "SimulationResult": ("repro.network", "SimulationResult"),
    "ProtectedRouter": ("repro.core", "ProtectedRouter"),
    "BaselineRouter": ("repro.router", "BaselineRouter"),
    # sweep engine
    "run_sweep": ("repro.experiments.parallel", "run_sweep"),
    "map_sweep": ("repro.experiments.parallel", "map_sweep"),
    "SweepTask": ("repro.experiments.parallel", "SweepTask"),
    "SweepReport": ("repro.experiments.parallel", "SweepReport"),
    "SweepError": ("repro.experiments.parallel", "SweepError"),
    "PointFailure": ("repro.experiments.parallel", "PointFailure"),
    # resilient runtime (docs/resilience.md)
    "PartialSweepReport": ("repro.experiments.parallel", "PartialSweepReport"),
    "PartialSweepError": ("repro.experiments.parallel", "PartialSweepError"),
    "RetryPolicy": ("repro.experiments.resilient", "RetryPolicy"),
    "CheckpointStore": ("repro.experiments.resilient", "CheckpointStore"),
    "ResumeError": ("repro.experiments.resilient", "ResumeError"),
    "sweep_runtime": ("repro.experiments.resilient", "sweep_runtime"),
    # experiment harness
    "run_experiment": ("repro.experiments", "run_experiment"),
    "ExperimentResult": ("repro.experiments", "ExperimentResult"),
    # unified fault-schedule API + online campaigns (docs/campaigns.md)
    "FaultSchedule": ("repro.faults", "FaultSchedule"),
    "FaultTimeline": ("repro.faults", "FaultTimeline"),
    "CampaignConfig": ("repro.experiments.fault_campaign", "CampaignConfig"),
    "run_fault_campaign": ("repro.experiments.fault_campaign", "run"),
    # observability
    "Observability": ("repro.observability", "Observability"),
    "ObservabilityConfig": ("repro.observability", "ObservabilityConfig"),
    "MetricsRegistry": ("repro.observability", "MetricsRegistry"),
    "EventTracer": ("repro.observability", "EventTracer"),
}

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


def __getattr__(name: str):
    import importlib

    entry = _LAZY.get(name)
    if entry is not None:
        module, attr = entry
        value = getattr(importlib.import_module(module), attr)
        globals()[name] = value  # cache: __getattr__ runs once per name
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
