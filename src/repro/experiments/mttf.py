"""Experiment ``mttf`` — paper Section VII, Equations 4-7.

Baseline MTTF ~354,358 h; protected MTTF ~2,190,696 h (paper Eq. 5);
improvement ~6x.  Also reports the textbook E[max] formula (see
:mod:`repro.reliability.mttf` for why the two differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..reliability.mttf import analyze_mttf
from ..reliability.stages import RouterGeometry
from .report import ExperimentResult, experiment

PAPER_MTTF_BASELINE = 354_358.0
PAPER_MTTF_PROTECTED = 2_190_696.0
PAPER_IMPROVEMENT = 6.0


@dataclass(frozen=True)
class MTTFConfig:
    """Unified-API config of the MTTF analysis."""

    geom: Optional[RouterGeometry] = None


def body(config: MTTFConfig, jobs: Optional[int]) -> ExperimentResult:
    """Closed forms only: nothing to seed or shard."""
    geom = config.geom or RouterGeometry()
    rep = analyze_mttf(geom)
    res = ExperimentResult("mttf", "MTTF analysis (Equations 4-7)")
    res.add("baseline pipeline FIT", round(rep.baseline_fit, 1), 2822.0)
    res.add("correction circuitry FIT", round(rep.correction_fit, 1), 646.0)
    res.add(
        "MTTF baseline", round(rep.mttf_baseline_hours), PAPER_MTTF_BASELINE,
        unit="h",
    )
    res.add(
        "MTTF protected (paper Eq.5)",
        round(rep.mttf_protected_hours),
        PAPER_MTTF_PROTECTED,
        unit="h",
    )
    res.add(
        "reliability improvement (paper)",
        round(rep.improvement, 2),
        PAPER_IMPROVEMENT,
    )
    res.add(
        "MTTF protected (exact E[max] formula)",
        round(rep.mttf_protected_exact_hours),
        None,
        unit="h",
        note="textbook expected-max of two exponentials: "
        "1/l1 + 1/l2 - 1/(l1+l2); the paper's Eq. 5 uses '+'",
    )
    res.add(
        "reliability improvement (exact)",
        round(rep.improvement_exact, 2),
        None,
    )
    res.extras["report"] = rep
    return res


run = experiment(MTTFConfig, __name__)
