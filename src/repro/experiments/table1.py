"""Experiment ``table1`` — paper Table I: FIT of the baseline pipeline.

Reproduces the per-stage FIT values of the 5x5, 4-VC router in an 8x8
mesh from the FORC/TDDB model and the component inventories.

Note: the paper's VA row prints 1478, but its own component census
(100 x 7.4 + 20 x 36.7) evaluates to 1474; we report against the printed
value and flag the discrepancy.
"""

from __future__ import annotations

from typing import Optional

from ..reliability.stages import RouterGeometry, baseline_stages, total_fit
from .report import ExperimentResult, experiment

#: Values as printed in the paper's Table I.
PAPER_TABLE1 = {"RC": 117.0, "VA": 1478.0, "SA": 203.0, "XB": 1024.0}
PAPER_TOTAL = 2822.0

#: Paper Table I per-component FIT values.
PAPER_COMPONENT_FITS = {
    "6-bit comparator": 11.7,
    "4:1 arbiter": 7.4,
    "20:1 arbiter": 36.7,
    "1-bit 4:1 mux": 4.8,
    "5:1 arbiter": 9.3,
    "32-bit 5:1 mux": 204.8,
}


def body(geom: RouterGeometry, jobs: Optional[int]) -> ExperimentResult:
    """Closed-form: nothing to seed or shard."""
    stages = baseline_stages(geom)
    res = ExperimentResult(
        "table1", "FIT values of baseline pipeline stages (per 1e9 h)"
    )
    # per-component sanity rows
    from ..reliability.components import arbiter, comparator, mux

    comps = {
        "6-bit comparator": comparator(6),
        "4:1 arbiter": arbiter(4),
        "20:1 arbiter": arbiter(20),
        "1-bit 4:1 mux": mux(4, 1),
        "5:1 arbiter": arbiter(5),
        "32-bit 5:1 mux": mux(5, 32),
    }
    for name, comp in comps.items():
        res.add(f"FIT({name})", round(comp.fit(), 2), PAPER_COMPONENT_FITS[name])
    for stage, inv in stages.items():
        note = ""
        if stage == "VA":
            note = (
                "paper prints 1478 but its own census (100x7.4 + 20x36.7) "
                "gives 1474"
            )
        res.add(f"FIT({stage} stage)", round(inv.fit(), 1), PAPER_TABLE1[stage],
                note=note)
    res.add("FIT(total pipeline)", round(total_fit(stages), 1), PAPER_TOTAL)
    res.extras["stages"] = stages
    return res


run = experiment(RouterGeometry, __name__)
