"""Scalar oracles: the slow, obviously right loops the fast or exact code
in ``repro`` is checked against.

* :func:`faults_to_failure_samples`, :func:`bulletproof_samples`,
  :func:`roco_samples`, :func:`vicis_samples` and :func:`max_lifetime_samples`
  sample what :func:`repro.reliability.spf.faults_to_failure`, the
  comparison models' ``mean_faults_to_failure`` and
  :func:`repro.reliability.mttf.mttf_two_component_exact` compute exactly;
  :func:`assert_within_standard_errors` compares the two.
* :func:`trial_counts_reference` and :func:`fabric_trial_chunk_reference`
  return bit for bit what ``spf_simulation._trial_counts`` and
  ``network_level._fabric_trial_chunk`` return faster.
* :func:`neighbour` walks a route hop by hop.
* :func:`draw_sites_reference` is ``draw_sites(avoid_failure=True)`` with
  the whole Section VIII predicate checked after every drawn site.
"""

from __future__ import annotations

import numpy as np

from repro.comparison import RowColumnState
from repro.config import (
    PORT_EAST,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
    NetworkConfig,
    RouterConfig,
)
from repro.core.failure import protected_router_failed
from repro.core.protected_router import ProtectedRouter
from repro.faults.sites import RouterFaultState, enumerate_sites, network_sites
from repro.network.topology import Topology
from repro.reliability.mttf import HOURS_PER_BILLION
from repro.reliability.network_level import sample_router_lifetimes
from repro.reliability.spf_simulation import _PROBE_NODE, functional_failure
from repro.router.flit import reset_packet_ids
from repro.router.routing import XYRouting


def assert_within_standard_errors(exact: float, samples, k: float = 3.0) -> None:
    """The sample mean lies within ``k`` standard errors of ``exact``."""
    samples = np.asarray(samples, dtype=float)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - exact) <= k * se, (samples.mean(), exact, se)


def faults_to_failure_samples(
    config: RouterConfig | None = None,
    trials: int = 4000,
    rng=None,
    exact: bool = False,
    include_va2: bool = False,
) -> np.ndarray:
    """Inject the router's sites in random order until the Section VIII
    predicate fails; one count per trial (all sites if it never does)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    config = config or RouterConfig()
    rng = np.random.default_rng(rng)
    sites = list(enumerate_sites(config, include_va2=include_va2))
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        state = RouterFaultState(config)
        for n, i in enumerate(rng.permutation(len(sites)), 1):
            state.inject(sites[int(i)])
            if protected_router_failed(state, exact=exact):
                break
        counts[t] = n
    return counts


def bulletproof_samples(model, trials, rng) -> np.ndarray:
    """Faults land on uniformly random instances until one exceeds its
    spares; one ``integers`` call per fault."""
    rng = np.random.default_rng(rng)
    spares = model.site_spares()
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        hits, n = [0] * len(spares), 0
        while True:
            i = int(rng.integers(len(spares)))
            hits[i] += 1
            n += 1
            if hits[i] > spares[i]:
                break
        counts[t] = n
    return counts


def roco_samples(model, trials, rng, per_half_tolerance=2) -> np.ndarray:
    """Faults land on the row or the column half until both are dead."""
    rng = np.random.default_rng(rng)
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        state, n = RowColumnState(per_half_tolerance=per_half_tolerance), 0
        while not state.failed:
            n += 1
            if rng.integers(2) == 0:
                state.hit_row()
            else:
                state.hit_col()
        counts[t] = n
    return counts


def vicis_samples(model, trials, rng, num_ports=5, ecc_tolerance=6) -> np.ndarray:
    """Faults land on the datapath, the crossbar or a random port until
    ECC, the bypass bus or port swapping runs out."""
    rng = np.random.default_rng(rng)
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        datapath = crossbar = n = 0
        dead: set = set()
        while True:
            n += 1
            kind = rng.integers(3)
            if kind == 0:
                datapath += 1
                if datapath > ecc_tolerance:
                    break
            elif kind == 1:
                crossbar += 1
                if crossbar > 1:
                    break
            else:
                dead.add(int(rng.integers(num_ports)))
                if len(dead) > num_ports - 2:
                    break
        counts[t] = n
    return counts


def max_lifetime_samples(fit1, fit2, samples, rng) -> np.ndarray:
    """max(T1, T2) in hours for exponential lifetimes of the two FITs."""
    rng = np.random.default_rng(rng)
    t1 = rng.exponential(HOURS_PER_BILLION / fit1, size=samples)
    t2 = rng.exponential(HOURS_PER_BILLION / fit2, size=samples)
    return np.maximum(t1, t2)


def trial_counts_reference(config, net, sites, trials, rng, max_cycles) -> np.ndarray:
    """The live-router campaign with a fresh router per trial and one full
    probe sweep after *every* injection."""
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        reset_packet_ids()
        router = ProtectedRouter(_PROBE_NODE, config, XYRouting(net))
        order = rng.permutation(len(sites))
        n = 0
        for i in order:
            router.inject_fault(sites[int(i)])
            n += 1
            if functional_failure(router, net, max_cycles=max_cycles):
                break
        counts[t] = n
    return counts


def fabric_trial_chunk_reference(network, model, seeds, k, geom) -> np.ndarray:
    """Fabric trials with a full `networkx` connectivity check after every
    router death: (first, k-th, disconnection) time per trial."""
    n = network.num_nodes
    topo = Topology(network)
    out = np.empty((len(seeds), 3))
    for t, seed in enumerate(seeds):
        lifetimes = sample_router_lifetimes(n, 1, model, geom, seed)[0]
        order = np.sort(lifetimes)
        killed: set[int] = set()
        ordering = np.argsort(lifetimes)
        disconnection = lifetimes[ordering[-1]]  # all dead fallback
        for idx in ordering:
            killed.add(int(idx))
            if not topo.is_connected(frozenset(killed)):
                disconnection = lifetimes[int(idx)]
                break
        out[t] = (order[0], order[k - 1], disconnection)
    return out


def neighbour(net: NetworkConfig, node: int, port: int) -> int:
    """Node reached by leaving ``node`` through ``port``."""
    x, y = net.coords(node)
    if port == PORT_NORTH:
        y -= 1
    elif port == PORT_SOUTH:
        y += 1
    elif port == PORT_EAST:
        x += 1
    elif port == PORT_WEST:
        x -= 1
    else:
        raise ValueError(f"port {port} has no neighbour")
    if not (0 <= x < net.width and 0 <= y < net.height):
        raise ValueError(f"route walked off the mesh at ({x},{y})")
    return net.node_id(x, y)


def draw_sites_reference(config, num_routers, count, gen, *, protected=True, include_va2=True):
    """The greedy tolerated draw over the whole predicate: every site of a
    random order of the pool is injected and kept unless its router then
    fails.  Returns what it placed, fewer than ``count`` if it ran out."""
    pool = network_sites(config, num_routers, protected, include_va2)
    states = [RouterFaultState(config) for _ in range(num_routers)]
    picked: list = []
    for i in gen.permutation(len(pool)):
        if len(picked) == count:
            break
        site = pool[int(i)]
        st = states[site.router]
        st.inject(site)
        if protected_router_failed(st, exact=True):
            st.heal(site)
            continue
        picked.append(site)
    return picked
