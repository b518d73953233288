"""Experiment ``reliability_curves`` — R(t) of baseline vs protected.

Extension: the paper reports only the MTTF point estimates; the same
model yields the full survival curves R(t) (exponential for the SOFR
baseline, the two-component parallel form for the protected router).
The interesting engineering quantity is the *mission-time multiplier*:
for a target survival probability (say 95 %), how much longer can the
protected router stay in service?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..reliability.mttf import (
    protected_reliability_curve,
    reliability_curve,
)
from ..reliability.stages import (
    RouterGeometry,
    baseline_stages,
    correction_stages,
    total_fit,
)
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class ReliabilityCurvesConfig:
    """Unified-API config of the survival-curve analysis."""

    geom: Optional[RouterGeometry] = None
    horizon_hours: float = 2e6
    points: int = 4000
    targets: tuple[float, ...] = (0.99, 0.95, 0.90)


def mission_time(fit_curve, horizon: np.ndarray, target: float) -> float:
    """Largest time with survival probability >= target (interpolated)."""
    if not 0 < target < 1:
        raise ValueError("target probability must be in (0, 1)")
    r = fit_curve
    idx = np.searchsorted(-r, -target)  # r is decreasing
    if idx == 0:
        return 0.0
    if idx >= len(horizon):
        return float(horizon[-1])
    # linear interpolation between the bracketing samples
    t0, t1 = horizon[idx - 1], horizon[idx]
    r0, r1 = r[idx - 1], r[idx]
    if r0 == r1:
        return float(t0)
    return float(t0 + (r0 - target) * (t1 - t0) / (r0 - r1))


def body(config: ReliabilityCurvesConfig, jobs: Optional[int]) -> ExperimentResult:
    """Closed-form: nothing to seed or shard."""
    geom = config.geom or RouterGeometry()
    horizon_hours, points = config.horizon_hours, config.points
    targets = config.targets
    l1 = total_fit(baseline_stages(geom))
    l2 = total_fit(correction_stages(geom))
    hours = np.linspace(0.0, horizon_hours, points)
    r_base = reliability_curve(l1, hours)
    r_prot = protected_reliability_curve(l1, l2, hours)

    res = ExperimentResult(
        "reliability_curves",
        "survival curves R(t), baseline vs protected (extension)",
    )
    for t_year in (1, 5, 10):
        t = t_year * 8760.0
        i = int(np.searchsorted(hours, t))
        i = min(i, points - 1)
        res.add(
            f"R(baseline) after {t_year}y", round(float(r_base[i]), 4), None
        )
        res.add(
            f"R(protected) after {t_year}y", round(float(r_prot[i]), 4), None
        )
    for target in targets:
        mb = mission_time(r_base, hours, target)
        mp = mission_time(r_prot, hours, target)
        res.add(f"mission time @ R>={target} (baseline)", round(mb), None, unit="h")
        res.add(f"mission time @ R>={target} (protected)", round(mp), None, unit="h")
        res.add(
            f"mission-time multiplier @ R>={target}",
            round(mp / mb, 1) if mb > 0 else float("inf"),
            None,
            note="redundancy helps most at high survival targets",
        )
    res.extras["hours"] = hours
    res.extras["baseline"] = r_base
    res.extras["protected"] = r_prot
    return res


run = experiment(ReliabilityCurvesConfig, __name__)
