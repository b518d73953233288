"""MTTF analysis (paper Section VII, Equations 1 and 4-7).

* Equation 1: ``MTTF = 1 / FIT`` (FIT in failures per 1e9 hours, so
  ``MTTF_hours = 1e9 / FIT``).
* Equation 4: baseline router — SOFR over the four pipeline stages; any
  single fault is fatal.
* Equation 5: the protected router keeps working while *either* the
  baseline pipeline *or* the correction circuitry is fault-free; the paper
  computes

      MTTF = 1/l1 + 1/l2 + 1/(l1 + l2)                       (paper Eq. 5)

  Note: the standard expected maximum of two independent exponential
  lifetimes is ``1/l1 + 1/l2 - 1/(l1+l2)`` (minus, not plus).  The paper's
  plus sign is what produces its headline 2,190,696 h / ~6x numbers, so
  :func:`mttf_two_component_paper` reproduces it exactly, while
  :func:`mttf_two_component_exact` provides the textbook formula
  (1,614,009 h, ~4.6x).  EXPERIMENTS.md discusses the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stages import RouterGeometry, baseline_stages, correction_stages, total_fit


HOURS_PER_BILLION = 1e9


def mttf_from_fit(fit: float) -> float:
    """Equation 1: MTTF in hours from a FIT rate (failures / 1e9 h)."""
    if fit <= 0:
        raise ValueError("FIT must be positive")
    return HOURS_PER_BILLION / fit


def mttf_two_component_paper(fit1: float, fit2: float) -> float:
    """Paper Equation 5 (as printed): 1/l1 + 1/l2 + 1/(l1+l2), in hours."""
    if fit1 <= 0 or fit2 <= 0:
        raise ValueError("FIT rates must be positive")
    return HOURS_PER_BILLION * (1 / fit1 + 1 / fit2 + 1 / (fit1 + fit2))


def mttf_two_component_exact(fit1: float, fit2: float) -> float:
    """E[max(T1, T2)] for independent exponentials: 1/l1 + 1/l2 - 1/(l1+l2)."""
    if fit1 <= 0 or fit2 <= 0:
        raise ValueError("FIT rates must be positive")
    return HOURS_PER_BILLION * (1 / fit1 + 1 / fit2 - 1 / (fit1 + fit2))


@dataclass(frozen=True)
class MTTFReport:
    """Everything the Section VII reproduction reports."""

    baseline_fit: float
    correction_fit: float
    mttf_baseline_hours: float
    mttf_protected_hours: float
    mttf_protected_exact_hours: float
    improvement: float
    improvement_exact: float

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("baseline pipeline FIT", self.baseline_fit),
            ("correction circuitry FIT", self.correction_fit),
            ("MTTF baseline (h)", self.mttf_baseline_hours),
            ("MTTF protected, paper Eq.5 (h)", self.mttf_protected_hours),
            ("MTTF protected, exact E[max] (h)", self.mttf_protected_exact_hours),
            ("improvement (paper)", self.improvement),
            ("improvement (exact)", self.improvement_exact),
        ]


def analyze_mttf(geom: RouterGeometry | None = None, **fit_kwargs) -> MTTFReport:
    """Run the full Section VII analysis for a router geometry."""
    geom = geom or RouterGeometry()
    l1 = total_fit(baseline_stages(geom), **fit_kwargs)
    l2 = total_fit(correction_stages(geom), **fit_kwargs)
    base = mttf_from_fit(l1)
    prot = mttf_two_component_paper(l1, l2)
    prot_exact = mttf_two_component_exact(l1, l2)
    return MTTFReport(
        baseline_fit=l1,
        correction_fit=l2,
        mttf_baseline_hours=base,
        mttf_protected_hours=prot,
        mttf_protected_exact_hours=prot_exact,
        improvement=prot / base,
        improvement_exact=prot_exact / base,
    )


def reliability_curve(
    fit: float, hours: np.ndarray
) -> np.ndarray:
    """Survival probability R(t) = exp(-l t) for a SOFR component."""
    lam = fit / HOURS_PER_BILLION
    return np.exp(-lam * np.asarray(hours, dtype=float))


def protected_reliability_curve(
    fit1: float, fit2: float, hours: np.ndarray
) -> np.ndarray:
    """R(t) of the two-component parallel system (either part alive)."""
    r1 = reliability_curve(fit1, hours)
    r2 = reliability_curve(fit2, hours)
    return r1 + r2 - r1 * r2
