"""Power analysis (paper Section VI-A).

"...increases the ... average power (dynamic+static) consumption of the
protected router by 29 % with respect to that of the baseline router.
Incorporating fault detection mechanism, the resulting ... power overhead
is 30 %."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..reliability.stages import RouterGeometry
from .netlists import baseline_netlist, correction_netlist, detection_netlist


@dataclass(frozen=True)
class PowerReport:
    """Average power (nW) and overhead fractions for one geometry."""

    baseline_static_nw: float
    baseline_dynamic_nw: float
    correction_static_nw: float
    correction_dynamic_nw: float
    detection_nw: float

    @property
    def baseline_nw(self) -> float:
        return self.baseline_static_nw + self.baseline_dynamic_nw

    @property
    def correction_nw(self) -> float:
        return self.correction_static_nw + self.correction_dynamic_nw

    @property
    def correction_overhead(self) -> float:
        """Correction circuitry only (paper: ~29 %)."""
        return self.correction_nw / self.baseline_nw

    @property
    def total_overhead(self) -> float:
        """Correction + detection (paper: ~30 %)."""
        return (self.correction_nw + self.detection_nw) / self.baseline_nw


def analyze_power(geom: RouterGeometry | None = None) -> PowerReport:
    """Proxy-synthesise the netlists and report power overheads."""
    geom = geom or RouterGeometry()
    base = baseline_netlist(geom)
    corr = correction_netlist(geom)
    det = detection_netlist(geom)
    return PowerReport(
        baseline_static_nw=base.static_power_nw,
        baseline_dynamic_nw=base.dynamic_power_nw,
        correction_static_nw=corr.static_power_nw,
        correction_dynamic_nw=corr.dynamic_power_nw,
        detection_nw=det.total_power_nw,
    )


def power_overhead(
    geom: RouterGeometry | None = None, with_detection: bool = True
) -> float:
    rep = analyze_power(geom)
    return rep.total_overhead if with_detection else rep.correction_overhead
