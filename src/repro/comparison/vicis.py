"""Vicis router model (Fick et al., DAC 2009).

Vicis tolerates faults with: ECC on the datapath, a crossbar bypass bus,
input-port swapping, and network-level adaptive rerouting.  This module
implements the *mechanisms* (they are real, tested code) and a reliability
model for the Table III comparison:

* :class:`HammingSECDED` — a working Hamming(38,32) single-error-correct /
  double-error-detect codec, the ECC Vicis places on its datapath.
* :func:`best_port_swap` — Vicis's port-swapping step as a maximum
  bipartite matching (healthy physical ports onto required directions),
  solved with :mod:`networkx`.
* :class:`VicisModel` — published comparison constants: **42 % area
  overhead**, **9.3 mean faults to failure** (their fault-injection
  result), SPF 9.3/1.42 = 6.55.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


class HammingSECDED:
    """Hamming single-error-correcting, double-error-detecting code.

    For ``data_bits`` payload bits the codec uses ``r`` parity bits with
    ``2**r >= data_bits + r + 1`` plus one overall parity bit (SECDED).
    Words are handled as Python ints.
    """

    def __init__(self, data_bits: int = 32) -> None:
        if data_bits < 1:
            raise ValueError("need at least one data bit")
        self.data_bits = data_bits
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.parity_bits = r
        self.code_bits = data_bits + r + 1  # +1 overall parity

    # -- bit layout: positions 1..n (1-based, Hamming convention); powers
    #    of two hold parity, the rest hold data; overall parity is bit 0.
    def _data_positions(self) -> list[int]:
        n = self.data_bits + self.parity_bits
        return [p for p in range(1, n + 1) if p & (p - 1) != 0]

    def encode(self, data: int) -> int:
        """Return the codeword for ``data`` (raises on overflow)."""
        if data < 0 or data >= (1 << self.data_bits):
            raise ValueError(f"data does not fit in {self.data_bits} bits")
        n = self.data_bits + self.parity_bits
        word = [0] * (n + 1)  # index 1..n
        for pos, i in zip(self._data_positions(), range(self.data_bits)):
            word[pos] = (data >> i) & 1
        for r in range(self.parity_bits):
            p = 1 << r
            parity = 0
            for pos in range(1, n + 1):
                if pos & p and pos != p:
                    parity ^= word[pos]
            word[p] = parity
        code = 0
        for pos in range(1, n + 1):
            code |= word[pos] << pos
        overall = bin(code).count("1") & 1
        return code | overall  # bit 0 = overall parity

    def decode(self, code: int) -> tuple[int, str]:
        """Decode a codeword.

        Returns ``(data, status)`` where status is "ok", "corrected", or
        "uncorrectable" (double error detected; data is best-effort).
        """
        n = self.data_bits + self.parity_bits
        word = [(code >> pos) & 1 for pos in range(n + 1)]
        syndrome = 0
        for r in range(self.parity_bits):
            p = 1 << r
            parity = 0
            for pos in range(1, n + 1):
                if pos & p:
                    parity ^= word[pos]
            if parity:
                syndrome |= p
        overall = bin(code).count("1") & 1
        status = "ok"
        if syndrome and overall:
            # single error at position `syndrome` (could be a parity bit)
            if syndrome <= n:
                word[syndrome] ^= 1
            status = "corrected"
        elif syndrome and not overall:
            status = "uncorrectable"
        elif not syndrome and overall:
            # error in the overall parity bit itself
            status = "corrected"
        data = 0
        for pos, i in zip(self._data_positions(), range(self.data_bits)):
            data |= word[pos] << i
        return data, status

    def corrupt(self, code: int, bit_positions: Sequence[int]) -> int:
        """Flip codeword bits (0 = overall parity, 1..n = Hamming bits)."""
        for b in bit_positions:
            if b < 0 or b > self.data_bits + self.parity_bits:
                raise ValueError(f"bit {b} outside the codeword")
            code ^= 1 << b
        return code


def best_port_swap(
    healthy_ports: Sequence[int], required_directions: Sequence[int]
) -> Optional[dict[int, int]]:
    """Vicis port swapping: map healthy physical ports onto directions.

    Returns a direction -> physical-port assignment covering every
    required direction, or ``None`` when there are not enough healthy
    ports.  Any healthy port can serve any direction (the swap network is
    a full crossbar in Vicis); maximum bipartite matching keeps the
    formulation general for partial swap networks.
    """
    import networkx as nx  # here, not at import: see network/topology.py

    g = nx.Graph()
    dirs = [("d", d) for d in required_directions]
    ports = [("p", p) for p in healthy_ports]
    g.add_nodes_from(dirs, bipartite=0)
    g.add_nodes_from(ports, bipartite=1)
    for d in required_directions:
        for p in healthy_ports:
            g.add_edge(("d", d), ("p", p))
    if not dirs:
        return {}
    matching = nx.bipartite.maximum_matching(g, top_nodes=dirs)
    assignment = {}
    for d in required_directions:
        partner = matching.get(("d", d))
        if partner is None:
            return None
        assignment[d] = partner[1]
    return assignment


@dataclass(frozen=True)
class VicisModel:
    """Published Table III constants for Vicis.

    The ECC/bypass/port-swap mechanisms let Vicis absorb many faults in a
    degraded mode; the published fault-injection study reports failure
    after 9.3 faults on average at a 42 % area overhead.
    """

    area_overhead: float = 0.42
    published_mean_faults: float = 9.3

    @property
    def published_spf(self) -> float:
        return self.published_mean_faults / (1.0 + self.area_overhead)

    def spf(self, mean_faults: float | None = None) -> float:
        mean = (
            self.published_mean_faults if mean_faults is None else mean_faults
        )
        return mean / (1.0 + self.area_overhead)

    def mean_faults_to_failure(
        self, num_ports: int = 5, ecc_tolerance: int = 6
    ) -> float:
        """Mean faults to failure of a coarse behavioural model: each fault
        lands on the datapath, the crossbar or a uniformly random port,
        one third each; ECC absorbs ``ecc_tolerance`` datapath faults, the
        bypass bus one crossbar fault, and port swapping survives until
        fewer than two healthy ports remain.

        A Markov chain on (datapath hits, crossbar hits, dead ports); a
        fault on an already dead port is a self-loop.
        """
        third = Fraction(1, 3)
        mean: dict[tuple[int, int, int], Fraction] = {}
        for d in range(ecc_tolerance, -1, -1):
            for x in (1, 0):
                for j in range(max(num_ports - 2, 0), -1, -1):
                    rest = 1 + third * (
                        mean.get((d + 1, x, j), 0)
                        + mean.get((d, x + 1, j), 0)
                        + Fraction(num_ports - j, num_ports) * mean.get((d, x, j + 1), 0)
                    )
                    mean[d, x, j] = rest / (1 - third * Fraction(j, num_ports))
        return float(mean[0, 0, 0])
