"""Experiment ``network_reliability`` — fabric-level MTTF (extension).

Beyond the paper's per-router analysis: Monte-Carlo time-to-failure of
the whole 8x8 fabric for baseline vs protected routers — first router
lost, 4th router lost, and mesh disconnection (healthy routers no longer
all mutually reachable).  The protected router's ~6x per-router gain
compounds at fabric scale because the fabric's life is governed by its
*weakest* routers (a minimum over 64 samples), which redundancy lifts
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import NetworkConfig
from ..reliability.network_level import analyze_network_reliability
from .report import ExperimentResult, experiment


@dataclass(frozen=True)
class NetworkReliabilityConfig:
    """Unified-API config of the fabric-level Monte Carlo."""

    trials: int = 300
    width: int = 8
    height: int = 8
    seed: int = 1


def body(
    config: NetworkReliabilityConfig, jobs: Optional[int]
) -> ExperimentResult:
    trials, width, height = config.trials, config.width, config.height
    seed = config.seed
    net = NetworkConfig(width=width, height=height)
    base = analyze_network_reliability(
        net, "baseline", trials=trials, rng=seed, jobs=jobs
    )
    prot = analyze_network_reliability(
        net, "protected", trials=trials, rng=seed + 1, jobs=jobs
    )
    res = ExperimentResult(
        "network_reliability",
        f"{width}x{height} fabric-level MTTF, baseline vs protected (extension)",
    )
    for label, b, p in (
        ("first router failure", base.mean_first_failure, prot.mean_first_failure),
        (f"{base.k}-th router failure", base.mean_kth_failure, prot.mean_kth_failure),
        ("mesh disconnection", base.mean_disconnection, prot.mean_disconnection),
    ):
        res.add(f"baseline: {label}", round(b), None, unit="h")
        res.add(f"protected: {label}", round(p), None, unit="h")
        res.add(f"gain: {label}", round(p / b, 2), None)
    res.add(
        "protected gains >= 2x on every fabric metric",
        all(
            p / b >= 2.0
            for b, p in (
                (base.mean_first_failure, prot.mean_first_failure),
                (base.mean_kth_failure, prot.mean_kth_failure),
                (base.mean_disconnection, prot.mean_disconnection),
            )
        ),
        True,
    )
    res.extras["baseline"] = base
    res.extras["protected"] = prot
    res.extras["sweep"] = prot.sweep
    return res


run = experiment(NetworkReliabilityConfig, __name__)
