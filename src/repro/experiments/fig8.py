"""Experiment ``fig8`` — paper Figure 8: PARSEC latency under faults.

"Overall NoC latency has increased by ... 13 % for ... PARSEC benchmark
applications ... in the presence of multiple faults."
"""

from __future__ import annotations

from typing import Sequence

from ..network.simulator import SimulationResult
from .latency import SuiteRunConfig, suite_points, suite_report
from .parallel import LanePoint
from .report import ExperimentResult, experiment

PAPER_OVERALL_OVERHEAD = 0.13


def points(config: SuiteRunConfig) -> list[LanePoint]:
    return suite_points("parsec", config.latency, config.apps)


def report(
    config: SuiteRunConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    return suite_report(
        "fig8",
        "PARSEC latency, fault-free vs faulty (Figure 8)",
        "parsec",
        PAPER_OVERALL_OVERHEAD,
        config,
        results,
    )


#: as :data:`repro.experiments.fig7.run`, on the PARSEC suite
run = experiment(SuiteRunConfig, __name__)
