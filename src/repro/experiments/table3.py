"""Experiment ``table3`` — paper Table III: SPF comparison.

BulletProof 2.07 @ 52 %, Vicis 6.55 @ 42 %, RoCo < 5.5, proposed 11.4 @
31 %.  Also reports the exact faults-to-failure law of the proposed router
under uniformly random fault placement (the paper uses the min/max average
convention; the exact mean is lower — both shown).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..comparison.spf_table import build_spf_table, proposed_router_wins
from ..config import RouterConfig
from ..reliability.spf import faults_to_failure
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class Table3Config:
    """Unified-API config of the Table III reproduction."""

    router: Optional[RouterConfig] = None


PAPER_ROWS = {
    "BulletProof": (0.52, 3.15, 2.07),
    "Vicis": (0.42, 9.3, 6.55),
    "RoCo": (None, 5.5, 5.5),
    "Proposed Router": (0.31, 15.0, 11.4),
}


def body(config: Table3Config, jobs: Optional[int]) -> ExperimentResult:
    router = config.router or RouterConfig()
    rows = build_spf_table(router)
    res = ExperimentResult("table3", "SPF comparison (Table III)")
    for row in rows:
        p_area, p_faults, p_spf = PAPER_ROWS[row.architecture]
        if row.area_overhead is not None:
            res.add(
                f"{row.architecture}: area overhead",
                round(row.area_overhead, 3),
                p_area,
            )
        res.add(
            f"{row.architecture}: faults to failure",
            round(row.mean_faults_to_failure, 2),
            p_faults,
        )
        res.add(
            f"{row.architecture}: SPF",
            round(row.spf, 2),
            p_spf,
            note="paper reports an upper bound (<5.5)"
            if row.spf_is_upper_bound
            else "",
        )
    res.add(
        "proposed router has highest SPF",
        proposed_router_wins(rows),
        True,
    )
    exact = faults_to_failure(router)
    res.add(
        "proposed: exact mean faults to failure",
        round(exact.mean, 2),
        None,
        note="uniformly random fault placement; the paper's 15 is the "
        "average of min (2) and max (28)",
    )
    res.add("proposed: exact min faults", exact.minimum, 2)
    res.add(
        "proposed: exact max faults",
        exact.maximum,
        28,
        note="the paper caps XB at 2 and counts no SA2 or correction faults",
    )
    res.extras["rows"] = rows
    res.extras["faults_to_failure"] = exact
    return res


run = experiment(Table3Config, __name__)
