"""Experiment ``fig7`` — paper Figure 7: SPLASH-2 latency under faults.

"Overall NoC latency has increased by 10 % ... for SPLASH-2 benchmark
applications ... in the presence of multiple faults."
"""

from __future__ import annotations

from typing import Optional

from .latency import LatencyConfig, SuiteRunConfig, coerce_suite_config, suite_experiment
from .report import ExperimentResult
from .resilient import sweep_runtime

PAPER_OVERALL_OVERHEAD = 0.10


def run(
    config: "LatencyConfig | SuiteRunConfig | None" = None,
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    out_dir=None,
    resume=None,
) -> ExperimentResult:
    """Unified entry point (``run(config, *, jobs, seed, out_dir, resume)``).

    ``config`` is a :class:`~repro.experiments.latency.LatencyConfig` or
    :class:`~repro.experiments.latency.SuiteRunConfig`.
    ``out_dir``/``resume`` attach the resilient sweep runtime
    (checkpointed, resumable — see ``docs/resilience.md``).
    """
    cfg = coerce_suite_config(config, seed)
    with sweep_runtime(out_dir=out_dir, resume=resume):
        return suite_experiment(
            "fig7",
            "SPLASH-2 latency, fault-free vs faulty (Figure 7)",
            "splash2",
            PAPER_OVERALL_OVERHEAD,
            cfg=cfg.latency,
            apps=cfg.apps,
            jobs=jobs,
        )
