"""BulletProof router model (Constantinides et al., HPCA 2006).

BulletProof achieves defect tolerance through N-modular redundancy (NMR)
and component-level sparing.  This module provides:

* :class:`NMRUnit` — a working N-modular-redundancy voter: N replicas
  compute, the majority wins; tolerates ``floor((N-1)/2)`` faulty
  replicas.  Used directly (it is a real mechanism, exercised by tests)
  and by the reliability model.
* :class:`SparedComponent` — component-level sparing: ``spares`` cold
  spares behind one unit; fails after ``spares + 1`` faults.
* :class:`BulletProofModel` — the switch-level reliability model used for
  the paper's Table III comparison.  The paper compares against the
  BulletProof design point with similar area overhead to the proposed
  router ("We choose a design that incurs approximately the same area
  overhead"), whose published figures are **52 % area overhead** and a
  **mean of 3.15 faults to cause failure**, hence SPF 3.15/1.52 = 2.07.

The model decomposes the switch into spared component groups and derives
min/mean/max faults-to-failure exactly, calibrated to the published
design point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from ..reliability.spf import poly_times


class NMRUnit:
    """N-modular redundancy with a majority voter.

    ``compute(inputs)`` runs the replicated function on each healthy
    replica and returns the majority output; replicas marked faulty
    produce corrupted values.  ``failed`` is True when a majority can no
    longer be guaranteed.
    """

    def __init__(self, func, n: int = 3) -> None:
        if n < 1 or n % 2 == 0:
            raise ValueError("NMR needs an odd number of replicas >= 1")
        self.func = func
        self.n = n
        self.faulty = [False] * n

    def mark_faulty(self, replica: int) -> None:
        self.faulty[replica] = True

    @property
    def faults(self) -> int:
        return sum(self.faulty)

    @property
    def tolerable_faults(self) -> int:
        """Replica faults tolerated: floor((N-1)/2)."""
        return (self.n - 1) // 2

    @property
    def failed(self) -> bool:
        return self.faults > self.tolerable_faults

    def compute(self, *args):
        """Majority-vote output; raises if voting cannot produce one."""
        outputs = []
        for i in range(self.n):
            value = self.func(*args)
            if self.faulty[i]:
                value = ("corrupt", i, value)  # a distinguishable wrong value
            outputs.append(value)
        counts = Counter(outputs)
        winner, votes = counts.most_common(1)[0]
        if votes <= self.n // 2:
            raise RuntimeError("NMR voter: no majority (unit failed)")
        return winner


class SparedComponent:
    """A unit with ``spares`` cold spares; the (spares+1)-th fault kills it."""

    def __init__(self, name: str, spares: int = 1) -> None:
        if spares < 0:
            raise ValueError("spares must be >= 0")
        self.name = name
        self.spares = spares
        self.faults = 0

    def hit(self) -> None:
        self.faults += 1

    @property
    def failed(self) -> bool:
        return self.faults > self.spares


@dataclass(frozen=True)
class BulletProofModel:
    """Reliability model of the area-comparable BulletProof design point.

    ``groups`` lists (name, instances, spares-per-instance): the switch
    fails when any instance exhausts its spares.  The default structure —
    four port-datapath groups and the allocator/voter core, each protected
    by a single component-level spare — approximates the published
    (3.15 faults, 52 % area) design point: min 2 faults (a unit and its
    spare), max 1 + sum(spares) = 6, and
    :meth:`mean_faults_to_failure` lands near the published mean from
    their fault-injection campaign.
    """

    area_overhead: float = 0.52
    published_mean_faults: float = 3.15
    groups: tuple[tuple[str, int, int], ...] = (
        ("port datapath", 4, 1),
        ("allocator core", 1, 1),
    )

    @property
    def published_spf(self) -> float:
        return self.published_mean_faults / (1.0 + self.area_overhead)

    # ------------------------------------------------------------------
    def site_spares(self) -> list[int]:
        """Flat list of spares per faultable instance."""
        out = []
        for _, instances, spares in self.groups:
            out.extend([spares] * instances)
        return out

    def min_faults_to_failure(self) -> int:
        return min(s + 1 for s in self.site_spares())

    def max_faults_to_failure(self) -> int:
        """Every instance loaded to its spare limit, plus one more."""
        return sum(s for s in self.site_spares()) + 1

    def mean_faults_to_failure(self) -> float:
        """Mean faults to failure when each fault lands on a uniformly
        random instance until one exceeds its spares.

        After m faults every instance i holds at most s_i hits with
        probability m! / k^m [x^m] prod_i sum_{j <= s_i} x^j / j! (the
        exponential generating function of the hit counts); the mean is
        the sum of these survival probabilities over m.
        """
        spares = self.site_spares()
        egf = [Fraction(1)]
        for s in spares:
            egf = poly_times(egf, [Fraction(1, factorial(j)) for j in range(s + 1)])
        k = len(spares)
        return float(sum(c * factorial(m) / k**m for m, c in enumerate(egf)))

    def spf(self, mean_faults: float | None = None) -> float:
        mean = (
            self.published_mean_faults if mean_faults is None else mean_faults
        )
        return mean / (1.0 + self.area_overhead)
