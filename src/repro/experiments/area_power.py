"""Experiment ``area_power`` — Section VI-A: area and power overheads.

Correction circuitry alone: +28 % area, +29 % power; with the fault-
detection mechanism: +31 % area, +30 % power.
"""

from __future__ import annotations

from typing import Optional

from ..reliability.stages import RouterGeometry
from ..synthesis.area import analyze_area
from ..synthesis.power import analyze_power
from .report import ExperimentResult, experiment

PAPER = {
    "area_correction": 0.28,
    "area_total": 0.31,
    "power_correction": 0.29,
    "power_total": 0.30,
}


def body(geom: RouterGeometry, jobs: Optional[int]) -> ExperimentResult:
    """Closed-form: nothing to seed or shard."""
    area = analyze_area(geom)
    power = analyze_power(geom)
    res = ExperimentResult(
        "area_power", "Area & power overhead (Section VI-A, 45 nm proxy)"
    )
    res.add(
        "area overhead (correction only)",
        round(area.correction_overhead, 3),
        PAPER["area_correction"],
    )
    res.add(
        "area overhead (with detection)",
        round(area.total_overhead, 3),
        PAPER["area_total"],
    )
    res.add(
        "power overhead (correction only)",
        round(power.correction_overhead, 3),
        PAPER["power_correction"],
    )
    res.add(
        "power overhead (with detection)",
        round(power.total_overhead, 3),
        PAPER["power_total"],
    )
    res.add("baseline router area", round(area.baseline_um2), None, unit="um^2",
            note="proxy absolute value; ratios are the reproduction target")
    res.add("protected router area", round(area.protected_um2), None, unit="um^2")
    res.extras["area"] = area
    res.extras["power"] = power
    return res


run = experiment(RouterGeometry, __name__)
