"""The fidelity suite's one table: how close each paper row must come.

Every row that one of the nine paper artefacts reports with a ``paper``
value is keyed here by ``(experiment, row label)``.  The paper value
itself is never written here: it is read off the row (``Row.paper``), so
the experiment modules stay the one place the paper's numbers live.  An
entry is one of

* :class:`Near` -- within ``abs`` of the paper value, or ``rel`` of it;
* :class:`Exactly` -- a value the reproduction differs from the paper by
  design, with the reason beside it;
* :class:`Below` -- a word of the paper ("negligible") read as a bound.

``test_fidelity.py`` applies the analytic entries in tier-1 and fails on a
paper row without an entry, or an entry without a row; ``figures.py``
applies the two figure headlines to their five-seed medians at paper
scale; ``render.py`` prints each entry beside its row in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union


@dataclass(frozen=True)
class Near:
    """``|measured - paper| <= abs + rel * |paper|``."""

    abs: float = 0.0
    rel: float = 0.0

    def holds(self, measured: Any, paper: Any) -> bool:
        return abs(measured - paper) <= self.abs + self.rel * abs(paper)

    def describe(self) -> str:
        if self.abs:
            return f"±{self.abs:g}"
        if self.rel >= 1e-3:
            return f"±{self.rel:.0%}".replace("%", " %")
        return "= paper"


@dataclass(frozen=True)
class Exactly:
    """The reproduction's own value, different from the paper's by design."""

    value: Any
    why: str

    def holds(self, measured: Any, paper: Any) -> bool:
        return measured == self.value

    def describe(self) -> str:
        return f"= {self.value:,.10g} ({self.why})"


@dataclass(frozen=True)
class Below:
    """A bound standing for a word of the paper."""

    bound: float
    why: str

    def holds(self, measured: Any, paper: Any) -> bool:
        return measured < self.bound

    def describe(self) -> str:
        return f"< {self.bound:g} ({self.why})"


Tolerance = Union[Near, Exactly, Below]

#: equal to the paper value (to float noise; booleans and ints exactly)
SAME = Near(rel=1e-9)

TOLERANCES: dict[tuple[str, str], Tolerance] = {
    # Table I: the FORC model reproduces the component column exactly
    ("table1", "FIT(6-bit comparator)"): SAME,
    ("table1", "FIT(4:1 arbiter)"): SAME,
    ("table1", "FIT(20:1 arbiter)"): SAME,
    ("table1", "FIT(1-bit 4:1 mux)"): SAME,
    ("table1", "FIT(5:1 arbiter)"): SAME,
    ("table1", "FIT(32-bit 5:1 mux)"): SAME,
    ("table1", "FIT(RC stage)"): SAME,
    ("table1", "FIT(VA stage)"): Exactly(
        1474.0, "the paper's own census 100 x 7.4 + 20 x 36.7; its printed row is 4 higher"
    ),
    ("table1", "FIT(SA stage)"): Exactly(
        203.5, "the census 25 x 4.8 + 5 x 7.4 + 5 x 9.3; the paper truncates it"
    ),
    ("table1", "FIT(XB stage)"): SAME,
    ("table1", "FIT(total pipeline)"): Exactly(
        2818.5, "the sum of the four census stage rows"
    ),
    # Table II: exact to the decimal
    ("table2", "FIT(RC correction)"): SAME,
    ("table2", "FIT(VA correction)"): SAME,
    ("table2", "FIT(SA correction)"): SAME,
    ("table2", "FIT(XB correction)"): SAME,
    ("table2", "FIT(total correction)"): SAME,
    # MTTF, Equations 4-7, on Table I's census total
    ("mttf", "baseline pipeline FIT"): Exactly(2818.5, "Table I's census total"),
    ("mttf", "correction circuitry FIT"): SAME,
    ("mttf", "MTTF baseline"): Near(rel=0.01),
    ("mttf", "MTTF protected (paper Eq.5)"): Near(rel=0.01),
    ("mttf", "reliability improvement (paper)"): Exactly(
        6.18, "the ratio of the paper's own Eq. 5 and Eq. 4 values; it prints '~6x'"
    ),
    # Table III: the comparison rows are the published constants
    ("table3", "BulletProof: area overhead"): SAME,
    ("table3", "BulletProof: faults to failure"): SAME,
    ("table3", "BulletProof: SPF"): SAME,
    ("table3", "Vicis: area overhead"): SAME,
    ("table3", "Vicis: faults to failure"): SAME,
    ("table3", "Vicis: SPF"): SAME,
    ("table3", "RoCo: faults to failure"): SAME,
    ("table3", "RoCo: SPF"): SAME,
    ("table3", "Proposed Router: area overhead"): Near(abs=0.03),
    ("table3", "Proposed Router: faults to failure"): SAME,
    ("table3", "Proposed Router: SPF"): Near(abs=0.5),
    ("table3", "proposed router has highest SPF"): SAME,
    ("table3", "proposed: exact min faults"): SAME,
    ("table3", "proposed: exact max faults"): Exactly(
        34, "the paper caps XB at 2 and counts no SA2 or correction faults"
    ),
    # SPF vs VC count (Section VIII-E); the area overhead comes from the proxy
    ("spf_sweep", "SPF @ 2 VCs (area ovh 35%)"): Near(abs=0.6),
    ("spf_sweep", "SPF @ 4 VCs (area ovh 30%)"): Near(abs=0.5),
    ("spf_sweep", "SPF monotonically increases with VCs"): SAME,
    ("spf_sweep", "SPF beyond 4 VCs exceeds the 4-VC value"): SAME,
    # Section VI-A, 45 nm proxy: within 3 points
    ("area_power", "area overhead (correction only)"): Near(abs=0.03),
    ("area_power", "area overhead (with detection)"): Near(abs=0.03),
    ("area_power", "power overhead (correction only)"): Near(abs=0.03),
    ("area_power", "power overhead (with detection)"): Near(abs=0.03),
    # Section VI-B, gate-chain model: within 4 points
    ("critical_path", "RC critical-path increase"): Below(0.06, "the paper: 'negligible'"),
    ("critical_path", "VA critical-path increase"): Near(abs=0.04),
    ("critical_path", "SA critical-path increase"): Near(abs=0.04),
    ("critical_path", "XB critical-path increase"): Near(abs=0.04),
    # Figures 7-8: the median over seeds 1-5 at paper scale, ±3 pp
    ("fig7", "overall latency increase"): Near(abs=0.03),
    ("fig8", "overall latency increase"): Near(abs=0.03),
}
