"""RoCo router model (Kim et al., ISCA 2006).

RoCo (Row-Column) decomposes the router into independent row and column
modules with decoupled arbiters and two smaller 2x2-ish crossbars.  Fault
tolerance comes from graceful degradation: a fault in one module leaves
the other module routing its dimension ("a permanent fault in one of the
components does not affect the other component and the router continues to
function in a degraded fashion"); lookahead routing covers RC faults and
VA-stage arbiters can be shared with SA.  It "cannot tolerate faults in
virtual channel allocation and crossbar stages" beyond that degradation.

The paper derives 5.5 faults to cause failure for RoCo and — since the
area overhead is not published (N/A) — bounds its SPF above by 5.5
("the SPF of RoCo is < 5.5").

:class:`RoCoModel` reproduces that accounting and adds a behavioural
row/column degradation model used by tests and the extended analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass
class RowColumnState:
    """Health of RoCo's two independent halves."""

    row_faults: int = 0
    col_faults: int = 0
    #: faults each half absorbs before dying (lookahead routing + shared
    #: arbiters give each half a small tolerance)
    per_half_tolerance: int = 2

    def hit_row(self) -> None:
        self.row_faults += 1

    def hit_col(self) -> None:
        self.col_faults += 1

    @property
    def row_alive(self) -> bool:
        return self.row_faults <= self.per_half_tolerance

    @property
    def col_alive(self) -> bool:
        return self.col_faults <= self.per_half_tolerance

    @property
    def degraded(self) -> bool:
        """Exactly one half dead: the router still forwards one dimension."""
        return self.row_alive != self.col_alive

    @property
    def failed(self) -> bool:
        """Both halves dead: the router is disconnected."""
        return not self.row_alive and not self.col_alive


@dataclass(frozen=True)
class RoCoModel:
    """Published Table III accounting for RoCo."""

    published_mean_faults: float = 5.5
    area_overhead: Optional[float] = None  # N/A in the paper

    @property
    def published_spf_bound(self) -> float:
        """SPF < mean faults (area overhead > 0 but unpublished)."""
        return self.published_mean_faults

    def spf(self, assumed_overhead: float = 0.0) -> float:
        """SPF under an assumed overhead (0 gives the upper bound)."""
        if assumed_overhead < 0:
            raise ValueError("overhead must be >= 0")
        return self.published_mean_faults / (1.0 + assumed_overhead)

    def mean_faults_to_failure(self, per_half_tolerance: int = 2) -> float:
        """Mean faults to failure when each fault lands on the row or the
        column half with probability 1/2, until both halves are dead.

        A Markov chain on the two hit counters, each capped at
        ``per_half_tolerance + 1`` (dead).  A fault on a dead half changes
        nothing, so from a state with ``m`` live moves the mean is
        (2 + sum of the next states' means) / m.
        """
        dead = per_half_tolerance + 1
        mean = {(dead, dead): Fraction(0)}
        for r in range(dead, -1, -1):
            for c in range(dead, -1, -1):
                if (r, c) != (dead, dead):
                    live = [m for m in ((r + 1, c), (r, c + 1)) if max(m) <= dead]
                    mean[r, c] = sum((mean[m] for m in live), Fraction(2)) / len(live)
        return float(mean[0, 0])
