"""Experiment ``table2`` — paper Table II: FIT of the correction circuitry."""

from __future__ import annotations

from typing import Optional

from ..reliability.stages import RouterGeometry, correction_stages, total_fit
from .report import ExperimentResult, experiment

#: Values as printed in the paper's Table II.
PAPER_TABLE2 = {"RC": 117.0, "VA": 60.0, "SA": 53.0, "XB": 416.0}
PAPER_TOTAL = 646.0


def body(geom: RouterGeometry, jobs: Optional[int]) -> ExperimentResult:
    """Closed-form: nothing to seed or shard."""
    stages = correction_stages(geom)
    res = ExperimentResult(
        "table2", "FIT rates of the correction circuitry (per 1e9 h)"
    )
    for stage, inv in stages.items():
        res.add(f"FIT({stage} correction)", round(inv.fit(), 1), PAPER_TABLE2[stage])
    res.add("FIT(total correction)", round(total_fit(stages), 1), PAPER_TOTAL)
    res.extras["stages"] = stages
    return res


run = experiment(RouterGeometry, __name__)
