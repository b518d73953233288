"""Experiment ``fig7`` — paper Figure 7: SPLASH-2 latency under faults.

"Overall NoC latency has increased by 10 % ... for SPLASH-2 benchmark
applications ... in the presence of multiple faults."
"""

from __future__ import annotations

from typing import Sequence

from ..network.simulator import SimulationResult
from .latency import SuiteRunConfig, suite_points, suite_report
from .parallel import LanePoint
from .report import ExperimentResult, experiment

PAPER_OVERALL_OVERHEAD = 0.10


def points(config: SuiteRunConfig) -> list[LanePoint]:
    return suite_points("splash2", config.latency, config.apps)


def report(
    config: SuiteRunConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    return suite_report(
        "fig7",
        "SPLASH-2 latency, fault-free vs faulty (Figure 7)",
        "splash2",
        PAPER_OVERALL_OVERHEAD,
        config,
        results,
    )


#: ``run(config, *, jobs, seed, out_dir, resume)``; ``config`` is a
#: :class:`SuiteRunConfig` or a bare :class:`~repro.experiments.latency.LatencyConfig`
run = experiment(SuiteRunConfig, __name__)
