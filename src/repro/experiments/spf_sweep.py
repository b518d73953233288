"""Experiment ``spf_sweep`` — Section VIII-E sensitivity: SPF vs VC count.

"This SPF value increases further beyond 11 if the number of VCs per
input is increased beyond 4.  If the number of VCs per input port is
decreased to 2, the SPF value is 7."  Beside the paper-convention SPF
(min/max average) each VC count also gets the exact mean faults to
failure under random placement and its SPF, mean / (1 + overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import RouterConfig
from ..reliability.spf import faults_to_failure, spf_vs_vc_count
from ..synthesis.area import area_overhead_vs_vcs
from .report import ExperimentResult, experiment

PAPER_SPF = {2: 7.0, 4: 11.4}


@dataclass(frozen=True)
class SPFSweepConfig:
    """Unified-API config of the SPF-vs-VC-count sweep."""

    vc_counts: tuple[int, ...] = (2, 3, 4, 6, 8)


def body(config: SPFSweepConfig, jobs: Optional[int]) -> ExperimentResult:
    """Analytic: nothing to seed or shard."""
    vc_counts = list(config.vc_counts)
    overheads = area_overhead_vs_vcs(vc_counts)
    sweep = spf_vs_vc_count(overheads)
    res = ExperimentResult(
        "spf_sweep", "SPF vs number of VCs per input port (Section VIII-E)"
    )
    for v, r in sweep.items():
        res.add(
            f"SPF @ {v} VCs (area ovh {overheads[v]:.0%})",
            round(r.spf, 2),
            PAPER_SPF.get(v),
        )
        mean = faults_to_failure(RouterConfig(num_vcs=v)).mean
        res.add(f"exact mean faults to failure @ {v} VCs", round(mean, 2))
        res.add(f"exact SPF @ {v} VCs", round(mean / (1 + overheads[v]), 2))
    spfs = [sweep[v].spf for v in sorted(sweep)]
    res.add(
        "SPF monotonically increases with VCs",
        all(a < b for a, b in zip(spfs, spfs[1:])),
        True,
    )
    if 4 in sweep:
        above = [v for v in sweep if v > 4]
        if above:
            res.add(
                "SPF beyond 4 VCs exceeds the 4-VC value",
                all(sweep[v].spf > sweep[4].spf for v in above),
                True,
            )
    # ``extras["sweep"]`` is a SweepReport wherever it appears (the CLI
    # prints it after a ``--jobs`` run)
    res.extras["spf"] = sweep
    res.extras["overheads"] = overheads
    return res


run = experiment(SPFSweepConfig, __name__)
