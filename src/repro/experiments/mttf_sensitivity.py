"""Experiment ``mttf_sensitivity`` — MTTF vs operating point (extension).

The FORC/TDDB model (paper Eq. 2) makes voltage and temperature
first-class inputs; the paper evaluates only 1 V / 300 K.  This sweep
reports how the baseline and protected MTTFs degrade with hotter or
higher-voltage operation — the classic TDDB acceleration — and verifies
the paper's ~6x improvement ratio is *invariant* across operating
points, since both FIT totals scale by the same FORC factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..reliability.mttf import mttf_from_fit, mttf_two_component_paper
from ..reliability.stages import (
    RouterGeometry,
    baseline_stages,
    correction_stages,
    total_fit,
)
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class MTTFSensitivityConfig:
    """Unified-API config of the operating-point sensitivity sweep."""

    temps_k: tuple[float, ...] = (300.0, 330.0, 360.0)
    vdds: tuple[float, ...] = (0.9, 1.0, 1.1)
    geom: Optional[RouterGeometry] = None


def body(config: MTTFSensitivityConfig, jobs: Optional[int]) -> ExperimentResult:
    """Closed-form: nothing to seed or shard."""
    temps_k: Sequence[float] = list(config.temps_k)
    vdds: Sequence[float] = list(config.vdds)
    geom = config.geom or RouterGeometry()
    base = baseline_stages(geom)
    corr = correction_stages(geom)

    res = ExperimentResult(
        "mttf_sensitivity",
        "MTTF vs temperature and voltage (TDDB acceleration, extension)",
    )
    ratios = []
    for t in temps_k:
        l1 = total_fit(base, temp_k=t)
        l2 = total_fit(corr, temp_k=t)
        mb = mttf_from_fit(l1)
        mp = mttf_two_component_paper(l1, l2)
        ratios.append(mp / mb)
        res.add(f"MTTF baseline @ {t:.0f} K", round(mb), None, unit="h")
        res.add(f"MTTF protected @ {t:.0f} K", round(mp), None, unit="h")
    for v in vdds:
        l1 = total_fit(base, vdd=v)
        l2 = total_fit(corr, vdd=v)
        mp = mttf_two_component_paper(l1, l2)
        ratios.append(mp / mttf_from_fit(l1))
        res.add(f"MTTF protected @ {v:.1f} V", round(mp), None, unit="h")

    mttfs_t = [
        mttf_from_fit(total_fit(base, temp_k=t)) for t in sorted(temps_k)
    ]
    res.add(
        "hotter silicon fails sooner",
        all(a > b for a, b in zip(mttfs_t, mttfs_t[1:])),
        True,
    )
    mttfs_v = [mttf_from_fit(total_fit(base, vdd=v)) for v in sorted(vdds)]
    res.add(
        "higher voltage fails sooner",
        all(a > b for a, b in zip(mttfs_v, mttfs_v[1:])),
        True,
    )
    res.add(
        "improvement ratio invariant across operating points",
        max(ratios) - min(ratios) < 1e-6,
        True,
        note="both FIT totals scale by the same FORC factor, so the "
        "paper's ~6x holds at every corner",
    )
    res.add("improvement ratio", round(ratios[0], 2), 6.0)
    res.extras["ratios"] = ratios
    return res


run = experiment(MTTFSensitivityConfig, __name__)
