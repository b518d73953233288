"""Simulation-based faults-to-failure measurement.

The paper derives its faults-to-failure count *theoretically* ("For our
router, we used a theoretical approach ... based on the fault tolerant
methodology"), while noting that BulletProof and Vicis used "an
experimental approach through simulations".  This module provides that
experimental approach for the proposed router: inject faults one at a
time into a *live simulated* router and declare failure when the router
demonstrably stops doing its job — some input-to-output flow that the
mesh needs can no longer deliver flits.

This is a behavioural cross-check of the Section VIII predicates: the
two must agree (a predicate-failed router must fail functionally, and
vice versa), which :func:`functional_failure` lets tests assert, and the
Monte-Carlo mean here should track the exact mean of
:func:`repro.reliability.spf.faults_to_failure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import NetworkConfig, PORT_LOCAL, RouterConfig
from ..core.protected_router import ProtectedRouter
from ..faults.sites import FaultSite, enumerate_sites
from ..router.flit import Packet, reset_packet_ids
from ..router.routing import XYRouting


class _CollectingScheduler:
    """Minimal scheduler for driving a lone router."""

    def __init__(self) -> None:
        self.delivered: list[tuple[int, int]] = []  # (out_port, out_vc)

    def deliver_flit(self, src_node, out_port, out_vc, flit) -> None:
        self.delivered.append((out_port, out_vc))

    def return_credit(self, node, in_port, wire_vc) -> None:
        pass


#: node id of the centre of the 3x3 probe mesh
_PROBE_NODE = 4

#: (input port, destination node) pairs covering every input->output flow
#: the centre router of a 3x3 mesh must support under XY routing
def _probe_flows(net: NetworkConfig) -> list[tuple[int, int]]:
    routing = XYRouting(net)
    flows = []
    for in_port in range(net.router.num_ports):
        for dest in range(net.num_nodes):
            if dest == _PROBE_NODE:
                out = PORT_LOCAL
            else:
                out = routing.output_port(_PROBE_NODE, dest)
            if in_port == out and in_port != PORT_LOCAL:
                continue  # U-turns don't occur under XY
            flows.append((in_port, dest))
    return flows


def functional_failure(
    router: ProtectedRouter,
    net: NetworkConfig,
    max_cycles: int = 60,
    flows: Optional[list[tuple[int, int]]] = None,
) -> bool:
    """Drive one probe packet through every (input, destination) flow.

    Returns True when some flow cannot deliver — the experimental
    counterpart of the Section VIII failure predicates.  The router's
    dynamic state is reset between probes so each flow is tested in
    isolation (fault state is preserved).  ``flows`` lets campaign loops
    pass the :func:`_probe_flows` list once instead of rebuilding the
    routing function per call.
    """
    if flows is None:
        flows = _probe_flows(net)
    for in_port, dest in flows:
        if not _flow_delivers(router, in_port, dest, max_cycles):
            return True
    return False


def _flow_delivers(
    router: ProtectedRouter, in_port: int, dest: int, max_cycles: int
) -> bool:
    router.clear_dynamic_state()
    sched = _CollectingScheduler()
    src = 3 if dest != 3 else 5  # any node != dest for packet validity
    pkt = Packet(src=src, dest=dest, size_flits=1)
    for flit in pkt.flits():
        router.receive_flit(in_port, 0, flit, 0)
    for cycle in range(max_cycles):
        router.xb_phase(sched, cycle)
        router.sa_phase(cycle)
        router.va_phase(cycle)
        router.rc_phase(cycle)
        if sched.delivered:
            return True
    return False


@dataclass(frozen=True)
class SimulatedSPF:
    """Result of the simulation-based faults-to-failure campaign."""

    mean: float
    std: float
    minimum: int
    maximum: int
    samples: np.ndarray


def _trial_counts(
    config: RouterConfig,
    net: NetworkConfig,
    sites: list[FaultSite],
    trials: int,
    rng: np.random.Generator,
    max_cycles: int,
) -> np.ndarray:
    """Fast campaign loop, bit-identical to the scalar oracle in
    ``tests/oracles.py`` (fresh router, a probe after every injection).

    Three amortisations:

    * the routing function and probe-flow list are built once; the
      router is built afresh whenever a probe needs fewer faults than it
      holds (a build costs a tenth of one probe sweep);
    * each trial draws the same single ``rng.permutation`` as the
      reference, so the consumed random stream is unchanged;
    * the failure count is found by bisection over the fault-prefix
      length instead of probing after every injection.  Faults only
      remove capability (they set fault flags that disable resources and
      never clear others), so "prefix of length m fails" is monotone in
      ``m`` and the first failing prefix is the smallest failing one —
      O(log n) probe sweeps replace O(n).
    """
    routing = XYRouting(net)
    flows = _probe_flows(net)
    n_sites = len(sites)
    counts = np.empty(trials, dtype=np.int64)
    router: ProtectedRouter  # the trial's, rebuilt to drop faults

    def fails(order: np.ndarray, m: int, injected: int) -> tuple[bool, int]:
        """Probe the prefix ``order[:m]``; router holds ``injected`` faults."""
        nonlocal router
        if m < injected:
            router = ProtectedRouter(_PROBE_NODE, config, routing)
            injected = 0
        for i in order[injected:m]:
            router.inject_fault(sites[int(i)])
        failed = functional_failure(
            router, net, max_cycles=max_cycles, flows=flows
        )
        return failed, m

    for t in range(trials):
        reset_packet_ids()
        router = ProtectedRouter(_PROBE_NODE, config, routing)
        order = rng.permutation(n_sites)
        failed, injected = fails(order, n_sites, 0)
        if not failed:
            counts[t] = n_sites  # reference's exhausted-sites fallback
            continue
        lo, hi = 0, n_sites  # healthy router passes; full set fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            failed, injected = fails(order, mid, injected)
            if failed:
                hi = mid
            else:
                lo = mid
        counts[t] = hi
    return counts


def simulated_faults_to_failure(
    config: RouterConfig | None = None,
    trials: int = 30,
    rng: np.random.Generator | int | None = None,
    include_va2: bool = False,
    max_cycles: int = 60,
) -> SimulatedSPF:
    """Monte-Carlo: inject random faults into a live router until a probe
    flow stops delivering.

    Every step runs real probe traffic, so trial counts are modest; it
    exists to validate, not to replace, the exact count of
    :func:`repro.reliability.spf.faults_to_failure`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    config = config or RouterConfig()
    net = NetworkConfig(width=3, height=3, router=config)
    rng = np.random.default_rng(rng)
    sites = list(
        enumerate_sites(config, router=_PROBE_NODE, protected=True,
                        include_va2=include_va2)
    )
    counts = _trial_counts(config, net, sites, trials, rng, max_cycles)
    return SimulatedSPF(
        mean=float(counts.mean()),
        std=float(counts.std()),
        minimum=int(counts.min()),
        maximum=int(counts.max()),
        samples=counts,
    )
