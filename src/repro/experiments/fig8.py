"""Experiment ``fig8`` — paper Figure 8: PARSEC latency under faults.

"Overall NoC latency has increased by ... 13 % for ... PARSEC benchmark
applications ... in the presence of multiple faults."
"""

from __future__ import annotations

from typing import Optional

from .latency import LatencyConfig, SuiteRunConfig, coerce_suite_config, suite_experiment
from .report import ExperimentResult
from .resilient import sweep_runtime

PAPER_OVERALL_OVERHEAD = 0.13


def run(
    config: "LatencyConfig | SuiteRunConfig | None" = None,
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    out_dir=None,
    resume=None,
) -> ExperimentResult:
    """Unified entry point (``run(config, *, jobs, seed, out_dir, resume)``).

    See :func:`repro.experiments.fig7.run`; this is the PARSEC suite.
    """
    cfg = coerce_suite_config(config, seed)
    with sweep_runtime(out_dir=out_dir, resume=resume):
        return suite_experiment(
            "fig8",
            "PARSEC latency, fault-free vs faulty (Figure 8)",
            "parsec",
            PAPER_OVERALL_OVERHEAD,
            cfg=cfg.latency,
            apps=cfg.apps,
            jobs=jobs,
        )
