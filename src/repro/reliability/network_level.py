"""Network-level reliability analysis (extension beyond the paper).

The paper quantifies reliability per router (MTTF, SPF).  At system
scale the question becomes: how long until the *fabric* degrades — first
router lost, k routers lost, or the mesh disconnecting so that healthy
cores can no longer all reach each other.

This module Monte-Carlo-samples router lifetimes from the per-router FIT
rates (baseline: first pipeline fault kills a router; protected: the
two-component parallel model of paper Eq. 5) and combines them with the
topology's connectivity (the healthy routers must stay connected,
matching XY-routed meshes where a dead router forwards nothing).

Vectorised with NumPy: all router lifetimes for all trials are drawn in
one call; only the union-find connectivity pass walks per-trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from ..config import NetworkConfig
from ..network.topology import Topology
from .mttf import HOURS_PER_BILLION
from .stages import RouterGeometry, baseline_stages, correction_stages, total_fit


RouterModel = Literal["baseline", "protected"]


def sample_router_lifetimes(
    num_routers: int,
    trials: int,
    model: RouterModel = "protected",
    geom: RouterGeometry | None = None,
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
) -> np.ndarray:
    """Lifetimes in hours, shape (trials, num_routers).

    Baseline routers die at their first pipeline fault (rate = Table I
    total).  Protected routers die when both the pipeline and the
    correction circuitry have failed (max of two exponentials — the
    physically meaningful reading of paper Eq. 5).
    """
    if num_routers < 1 or trials < 1:
        raise ValueError("need >= 1 router and >= 1 trial")
    geom = geom or RouterGeometry()
    rng = np.random.default_rng(rng)
    l1 = total_fit(baseline_stages(geom)) / HOURS_PER_BILLION
    if model == "baseline":
        return rng.exponential(1.0 / l1, size=(trials, num_routers))
    if model == "protected":
        l2 = total_fit(correction_stages(geom)) / HOURS_PER_BILLION
        t1 = rng.exponential(1.0 / l1, size=(trials, num_routers))
        t2 = rng.exponential(1.0 / l2, size=(trials, num_routers))
        return np.maximum(t1, t2)
    raise ValueError(f"unknown router model {model!r}")


@dataclass(frozen=True)
class NetworkReliabilityReport:
    """Monte-Carlo summary of fabric-level failure times (hours)."""

    model: str
    num_routers: int
    trials: int
    mean_first_failure: float
    mean_kth_failure: float
    k: int
    mean_disconnection: float
    #: shard/timing breakdown when run through the parallel sweep engine
    sweep: object = None

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("mean time to first router failure (h)", self.mean_first_failure),
            (f"mean time to {self.k}-th router failure (h)", self.mean_kth_failure),
            ("mean time to mesh disconnection (h)", self.mean_disconnection),
        ]


def _undirected_neighbors(topo: Topology) -> list[list[int]]:
    """Adjacency lists of the undirected fabric graph.

    Every mesh link has its reverse twin, so strong connectivity of the
    healthy sub-fabric is plain undirected connectivity (union-find).
    """
    n = topo.config.num_nodes
    neigh: list[set[int]] = [set() for _ in range(n)]
    for (a, _), (b, _) in topo.links.items():
        neigh[a].add(b)
        neigh[b].add(a)
    return [sorted(s) for s in neigh]


def _first_disconnecting_kill(
    ordering: np.ndarray, neighbors: list[list[int]]
) -> int:
    """First kill count (1-based) at which the survivors disconnect; 0 if
    the fabric stays connected through every prefix.

    Routers die in ``ordering`` order.  Survivor connectivity is *not*
    monotone in the death count — one or zero survivors count as
    connected again — so a bisection is unsound; instead one reverse
    pass re-adds routers to a union-find (O(n alpha) total, vs. a full
    graph rebuild + SCC scan per kill in the reference) and records
    connectivity for *every* prefix, then the forward-first failure wins.
    """
    n = len(neighbors)
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    alive = [False] * n
    components = 0
    connected = [True] * (n + 1)  # connected[j]: first j dead
    for j in range(n - 1, -1, -1):
        r = int(ordering[j])
        alive[r] = True
        components += 1
        for nb in neighbors[r]:
            if alive[nb]:
                ra, rb = find(r), find(nb)
                if ra != rb:
                    parent[ra] = rb
                    components -= 1
        connected[j] = (n - j) <= 1 or components == 1
    for i in range(1, n + 1):
        if not connected[i]:
            return i
    return 0


def _fabric_trial_chunk(
    network: NetworkConfig,
    model: RouterModel,
    seeds: list[np.random.SeedSequence],
    k: int,
    geom: Optional[RouterGeometry],
) -> np.ndarray:
    """One worker chunk of fabric trials: (first, kth, disconnection)
    per trial, shape ``(len(seeds), 3)``.

    Each trial samples its lifetimes from its own spawned child seed, so
    the outcome is independent of how trials are chunked across workers.
    Lifetime draws keep the per-seed streams of the reference; the
    first/k-th columns come from one batched sort and disconnection from
    a union-find pass per trial — bit-identical to the per-kill
    `networkx` oracle in ``tests/oracles.py`` and ~10-100x faster.
    """
    n = network.num_nodes
    neighbors = _undirected_neighbors(Topology(network))
    trials = len(seeds)
    lifetimes = np.empty((trials, n))
    for t, seed in enumerate(seeds):
        lifetimes[t] = sample_router_lifetimes(n, 1, model, geom, seed)[0]
    order = np.sort(lifetimes, axis=1)
    ordering = np.argsort(lifetimes, axis=1)
    out = np.empty((trials, 3))
    out[:, 0] = order[:, 0]
    out[:, 1] = order[:, k - 1]
    for t in range(trials):
        i = _first_disconnecting_kill(ordering[t], neighbors)
        idx = ordering[t, i - 1] if i else ordering[t, -1]
        out[t, 2] = lifetimes[t, idx]
    return out


def analyze_network_reliability(
    network: NetworkConfig | None = None,
    model: RouterModel = "protected",
    trials: int = 500,
    k: int = 4,
    geom: RouterGeometry | None = None,
    rng: np.random.Generator | int | None = None,
    jobs: int | None = None,
) -> NetworkReliabilityReport:
    """Fabric-level failure-time statistics for one router model.

    *Disconnection* means the healthy routers no longer form a strongly
    connected sub-fabric (some healthy pair cannot communicate at all,
    even with ideal rerouting — a lower bound on XY's tolerance, which
    in practice disconnects even earlier).

    ``jobs`` shards the Monte-Carlo trials across worker processes
    (0 = all cores); per-trial ``SeedSequence.spawn`` seeding keeps the
    result bit-identical for any ``jobs`` value.
    """
    from ..experiments.parallel import run_trials

    net = network or NetworkConfig()
    n = net.num_nodes
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    rows, report = run_trials(
        _fabric_trial_chunk, lambda seeds: (net, model, seeds, k, geom),
        trials, rng, jobs,
    )
    return NetworkReliabilityReport(
        model=model,
        num_routers=n,
        trials=trials,
        mean_first_failure=float(rows[:, 0].mean()),
        mean_kth_failure=float(rows[:, 1].mean()),
        k=k,
        mean_disconnection=float(rows[:, 2].mean()),
        sweep=report,
    )


def protection_gain(
    network: NetworkConfig | None = None,
    trials: int = 300,
    rng: int = 1,
) -> dict[str, float]:
    """Fabric-level gains of the protected router over the baseline."""
    network = network or NetworkConfig()
    base = analyze_network_reliability(
        network, "baseline", trials=trials, rng=rng
    )
    prot = analyze_network_reliability(
        network, "protected", trials=trials, rng=rng + 1
    )
    return {
        "first_failure": prot.mean_first_failure / base.mean_first_failure,
        "kth_failure": prot.mean_kth_failure / base.mean_kth_failure,
        "disconnection": prot.mean_disconnection / base.mean_disconnection,
    }
