"""Experiment ``critical_path`` — Section VI-B: per-stage critical paths.

"critical paths of VA, SA and XB stages have increased by 20 %, 10 % and
25 %"; RC is negligible (spatial redundancy).
"""

from __future__ import annotations

from typing import Optional

from ..reliability.stages import RouterGeometry
from ..synthesis.timing import analyze_critical_path
from .report import ExperimentResult, experiment

PAPER_OVERHEADS = {"RC": 0.0, "VA": 0.20, "SA": 0.10, "XB": 0.25}


def body(geom: RouterGeometry, jobs: Optional[int]) -> ExperimentResult:
    """Closed-form: nothing to seed or shard."""
    rep = analyze_critical_path(geom)
    res = ExperimentResult(
        "critical_path", "Critical-path impact per stage (Section VI-B)"
    )
    for stage in ("RC", "VA", "SA", "XB"):
        note = "paper: 'negligible impact'" if stage == "RC" else ""
        res.add(
            f"{stage} critical-path increase",
            round(rep.overhead(stage), 3),
            PAPER_OVERHEADS[stage],
            note=note,
        )
        res.add(
            f"{stage} baseline path",
            round(rep.baseline_ps[stage], 1),
            None,
            unit="ps",
        )
    res.add(
        "baseline min clock period",
        round(rep.min_clock_period_baseline_ps, 1),
        None,
        unit="ps",
    )
    res.add(
        "protected min clock period",
        round(rep.min_clock_period_protected_ps, 1),
        None,
        unit="ps",
    )
    res.extras["report"] = rep
    return res


run = experiment(RouterGeometry, __name__)
