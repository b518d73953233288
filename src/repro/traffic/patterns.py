"""Synthetic spatial traffic patterns.

Classic NoC destination distributions used by the examples, tests, and
ablation benches.  Each pattern maps a source node to either a fixed
destination (permutation patterns) or a distribution over destinations
(uniform/hotspot).  All patterns operate on a ``width x height`` mesh with
row-major node numbering.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from ..config import NetworkConfig


class TrafficPattern:
    """A spatial destination distribution, as the traffic draw reads it.

    ``SyntheticTraffic`` parses three shapes: :class:`UniformRandom` (no
    parameters), :class:`Hotspot` (``hotspots`` and ``fraction``) and the
    permutations (a destination ``table``).
    """

    name = "abstract"

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config


class UniformRandom(TrafficPattern):
    """Every other node is an equally likely destination."""

    name = "uniform_random"


class _PermutationPattern(TrafficPattern):
    """Fixed source->destination permutation; self-targets fall back to
    a uniform draw so every source can still inject."""

    def _permute(self, sources: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def table(self) -> np.ndarray:
        """Destination of every node (a node mapped to itself is redrawn)."""
        return np.asarray(self._permute(np.arange(self.config.num_nodes)))


class Transpose(_PermutationPattern):
    """(x, y) -> (y, x).  Requires a square mesh."""

    name = "transpose"

    def __init__(self, config: NetworkConfig) -> None:
        super().__init__(config)
        if config.width != config.height:
            raise ValueError("transpose needs a square mesh")

    def _permute(self, sources: np.ndarray) -> np.ndarray:
        w = self.config.width
        x, y = sources % w, sources // w
        return x * w + y


class BitComplement(_PermutationPattern):
    """Node i -> (N-1) - i."""

    name = "bit_complement"

    def _permute(self, sources: np.ndarray) -> np.ndarray:
        return (self.config.num_nodes - 1) - sources


class BitReverse(_PermutationPattern):
    """Node i -> bit-reversed(i).  Requires a power-of-two node count."""

    name = "bit_reverse"

    def __init__(self, config: NetworkConfig) -> None:
        super().__init__(config)
        n = config.num_nodes
        if n & (n - 1):
            raise ValueError("bit_reverse needs a power-of-two node count")
        self._bits = n.bit_length() - 1
        table = np.arange(n)
        rev = np.zeros(n, dtype=np.int64)
        for b in range(self._bits):
            rev |= ((table >> b) & 1) << (self._bits - 1 - b)
        self._table = rev

    def _permute(self, sources: np.ndarray) -> np.ndarray:
        return self._table[sources]


class Tornado(_PermutationPattern):
    """(x, y) -> (x + ceil(w/2) - 1 mod w, y): stresses one direction."""

    name = "tornado"

    def _permute(self, sources: np.ndarray) -> np.ndarray:
        w = self.config.width
        x, y = sources % w, sources // w
        nx_ = (x + (w + 1) // 2 - 1) % w
        return y * w + nx_


class Neighbor(_PermutationPattern):
    """(x, y) -> (x+1 mod w, y): minimal-distance reference pattern."""

    name = "neighbor"

    def _permute(self, sources: np.ndarray) -> np.ndarray:
        w = self.config.width
        x, y = sources % w, sources // w
        return y * w + (x + 1) % w


class Hotspot(TrafficPattern):
    """A fraction of traffic targets a small set of hotspot nodes.

    Models directory/memory-controller hotspotting: with probability
    ``fraction`` a packet goes to a (uniformly chosen) hotspot node,
    otherwise to a uniform-random node.
    """

    name = "hotspot"

    def __init__(
        self,
        config: NetworkConfig,
        hotspots: Optional[list[int]] = None,
        fraction: float = 0.2,
    ) -> None:
        super().__init__(config)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if hotspots is None:
            # default: the four centre-ish nodes
            w, h = config.width, config.height
            hotspots = [
                config.node_id(w // 2, h // 2),
                config.node_id(max(w // 2 - 1, 0), h // 2),
                config.node_id(w // 2, max(h // 2 - 1, 0)),
                config.node_id(max(w // 2 - 1, 0), max(h // 2 - 1, 0)),
            ]
        self.hotspots = sorted(set(hotspots))
        if not self.hotspots:
            raise ValueError("need at least one hotspot node")
        for hs in self.hotspots:
            if not 0 <= hs < config.num_nodes:
                raise ValueError(f"hotspot {hs} outside the mesh")
        self.fraction = fraction


_PATTERNS = {
    cls.name: cls
    for cls in (
        UniformRandom,
        Transpose,
        BitComplement,
        BitReverse,
        Tornado,
        Neighbor,
        Hotspot,
    )
}


def make_pattern(name: str, config: NetworkConfig, **kwargs) -> TrafficPattern:
    """Construct a pattern by name (see ``available_patterns``)."""
    try:
        cls = _PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; available: {sorted(_PATTERNS)}"
        ) from None
    return cls(config, **kwargs)


def available_patterns() -> list[str]:
    return sorted(_PATTERNS)
