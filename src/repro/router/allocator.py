"""Two-stage separable virtual-channel and switch allocators.

Paper Figures 3a and 3b.  For a router with ``pi`` input ports, ``po``
output ports and ``v`` VCs per port:

* **VA stage 1** — every input VC owns a set of ``po`` arbiters, each
  ``v:1``: given the RC result, the arbiter for that output port picks one
  free VC at the downstream router.  (5-port, 4-VC router: 100 ``4:1``
  arbiters — exactly the count in the paper's Table I.)
* **VA stage 2** — one ``pi*v : 1`` arbiter per downstream VC resolves
  input VCs that picked the same downstream VC.  (20 ``20:1`` arbiters.)
* **SA stage 1** — one ``v:1`` arbiter per input port picks which VC of the
  port may bid for the switch.  (5 ``4:1`` arbiters.)
* **SA stage 2** — one ``pi:1`` arbiter per output port resolves
  competition for that port's crossbar mux.  (5 ``5:1`` arbiters.)

Both units implement the *baseline* (unprotected) behaviour: each checks
the router's fault sets before asking an arbiter, and a faulty arbiter is
never asked, which blocks the affected flits exactly as the paper
describes.  Switch allocation asks only the SA stage-2 arbiter its path
plan names, and a plan never names a faulty one.  The protected router's
units (:mod:`repro.core.ft_va`, :mod:`repro.core.ft_sa`) subclass these and
override the hook methods marked below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .arbiter import RoundRobinArbiter
from .crossbar import PathPlan
from .vc import VCState, VirtualChannel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .router import BaseRouter


@dataclass(slots=True)
class SAGrant:
    """A switch-allocation winner: ``vc``'s front flit crosses next cycle."""

    in_port: int
    vc: VirtualChannel
    plan: PathPlan


class VAUnit:
    """Baseline two-stage separable virtual-channel allocator."""

    def __init__(self, router: "BaseRouter") -> None:
        self.router = router
        cfg = router.config
        P, V = cfg.num_ports, cfg.num_vcs
        #: stage 1: [input port][physical slot][output port] -> v:1 arbiter
        self.stage1 = [
            [[RoundRobinArbiter(V) for _ in range(P)] for _ in range(V)]
            for _ in range(P)
        ]
        #: stage 2: [output port][downstream wire VC] -> pi*v:1 arbiter
        self.stage2 = [
            [RoundRobinArbiter(P * V) for _ in range(V)] for _ in range(P)
        ]
        #: precomputed vnet lookups — ``allocate`` runs per waiting VC per
        #: cycle, so the modular arithmetic of ``vnet_of_vc``/``vcs_of_vnet``
        #: is hoisted out of the hot loop
        self._vnet_of_vc = [cfg.vnet_of_vc(d) for d in range(V)]
        self._vnet_vcs = [list(cfg.vcs_of_vnet(vn)) for vn in range(cfg.num_vnets)]

    # -- hooks the protected router overrides --------------------------------
    def _stage1_arbiters(self, port: int, slot: int):
        """Arbiter set used by the VC in (port, slot), or ``None`` if blocked.

        Baseline: the VC's own set, unless it is faulty.  Returns a tuple
        ``(owner_slot, arbiter_row)`` so the FT override can lend another
        VC's arbiters.
        """
        if (port, slot) in self.router.faults.va1:
            return None
        return slot, self.stage1[port][slot]

    def _on_stage2_fault(self, vc: VirtualChannel, out_port: int, dvc: int) -> None:
        """Called when a stage-2 arbiter is faulty.  Baseline: nothing —
        the flit stays blocked (and the paper's FIT model calls the router
        failed).  The protected unit records an exclusion so the retry
        (+1 cycle, Section V-B3) picks a different downstream VC."""

    # ------------------------------------------------------------------------
    def allocate(self, cycle: int) -> None:
        """Run both VA stages for every VC in ``WAITING_VA`` state."""
        router = self.router
        stats = router.stats
        out_ports = router.out_ports
        vnet_of_vc = self._vnet_of_vc
        vnet_vcs = self._vnet_vcs
        V = router.config.num_vcs
        waiting = VCState.WAITING_VA

        # ---- stage 1: each waiting VC picks a free downstream VC ----
        # proposals: (out_port, dvc) -> list of (flat requester id, vc, meta)
        proposals: dict[tuple[int, int], list[tuple[int, VirtualChannel, int, int, Optional[int]]]] = {}
        for p, in_port in enumerate(router.in_ports):
            if in_port.nonidle == 0:
                continue
            for s, vc in enumerate(in_port.slots):
                if vc.state is not waiting:
                    continue
                r = vc.route
                assert r is not None, "VC in WAITING_VA without a route"
                arbs = self._stage1_arbiters(p, s)
                if arbs is None:
                    stats.va_blocked_cycles += 1
                    continue
                owner_slot, arb_row = arbs
                free = out_ports[r].free_vcs(vnet_vcs[vnet_of_vc[vc.index]])
                excluded = vc.va_excluded
                if excluded:
                    free = [d for d in free if d not in excluded]
                if not free:
                    stats.va_no_free_vc_cycles += 1
                    continue
                choice = arb_row[r].grant(free)
                flat = p * V + s
                borrowed = owner_slot if owner_slot != s else None
                proposals.setdefault((r, choice), []).append(
                    (flat, vc, p, s, borrowed)
                )

        # ---- stage 2: resolve conflicts per downstream VC ----
        tracer = router.tracer
        faults_va2 = router.faults.va2
        for (r, dvc), reqs in proposals.items():
            if (r, dvc) in faults_va2:
                for _, vc, _, _, _ in reqs:
                    self._on_stage2_fault(vc, r, dvc)
                    stats.va_stage2_fault_retries += 1
                    if tracer is not None:
                        tracer.emit(
                            cycle,
                            "va_retry",
                            router.node,
                            out_port=r,
                            out_vc=dvc,
                            packet=vc.packet_id,
                        )
                continue
            winner = self.stage2[r][dvc].grant([flat for flat, *_ in reqs])
            for flat, vc, p, s, borrowed in reqs:
                if flat != winner:
                    continue
                vc.out_vc = dvc
                vc.state = VCState.ACTIVE
                router._in_va -= 1
                router._in_sa += 1
                vc.va_excluded = None
                out_ports[r].allocated[dvc] = vc.packet_id
                stats.va_grants += 1
                if borrowed is not None:
                    stats.va_borrowed_grants += 1
                if tracer is not None:
                    tracer.emit(
                        cycle,
                        "va_grant",
                        router.node,
                        in_port=p,
                        in_slot=s,
                        out_port=r,
                        out_vc=dvc,
                        packet=vc.packet_id,
                        borrowed=borrowed,
                    )
                break


class SAUnit:
    """Baseline two-stage separable switch allocator."""

    def __init__(self, router: "BaseRouter") -> None:
        self.router = router
        cfg = router.config
        P, V = cfg.num_ports, cfg.num_vcs
        #: stage 1: [input port] -> v:1 arbiter over physical slots
        self.stage1 = [RoundRobinArbiter(V) for _ in range(P)]
        #: stage 2: [output/arb port] -> pi:1 arbiter over input ports
        self.stage2 = [RoundRobinArbiter(P) for _ in range(P)]

    # -- hooks the protected router overrides --------------------------------
    def _stage1_winner(self, port: int, candidates: list[int], cycle: int) -> Optional[int]:
        """Pick the physical slot that bids for the switch for ``port``.

        Baseline: the port's ``v:1`` arbiter; faulty arbiter grants nothing.
        The FT override adds the bypass path (rotating default winner) and
        may trigger a VC transfer, consuming the cycle.
        """
        if port in self.router.faults.sa1:
            self.router.stats.sa_blocked_cycles += 1
            return None
        return self.stage1[port].grant(candidates)

    def allocate(self, cycle: int) -> list[SAGrant]:
        """Run both SA stages; returns winners that cross the XB next cycle."""
        router = self.router
        out_ports = router.out_ports
        plan_path = router.crossbar.plan_path
        active = VCState.ACTIVE

        # ---- stage 1: one candidate VC per input port ----
        # A VC may bid for the switch when it is ACTIVE, holds a buffered
        # flit, has downstream credit, and the crossbar can reach its route
        # (the readiness predicate, inlined: it runs for every port*VC slot
        # of every busy router every cycle).
        stage1_winners: list[tuple[int, VirtualChannel, PathPlan]] = []
        for p, in_port in enumerate(router.in_ports):
            if in_port.nonidle == 0:
                continue
            candidates = []
            for s, vc in enumerate(in_port.slots):
                if vc.state is not active or not vc.buffer:
                    continue
                r = vc.route
                if out_ports[r].credits[vc.out_vc] <= 0:
                    continue
                if plan_path(r) is not None:
                    candidates.append(s)
            if not candidates:
                continue
            winner = self._stage1_winner(p, candidates, cycle)
            if winner is None:
                continue
            vc = in_port.slots[winner]
            stage1_winners.append((p, vc, plan_path(vc.route)))

        # ---- stage 2: resolve per physical arbiter/mux ----
        by_arb: dict[int, list[tuple[int, VirtualChannel, PathPlan]]] = {}
        for p, vc, plan in stage1_winners:
            by_arb.setdefault(plan.arb_port, []).append((p, vc, plan))

        grants: list[SAGrant] = []
        tracer = router.tracer
        stats = router.stats
        for arb_port, reqs in by_arb.items():
            winner_port = self.stage2[arb_port].grant([p for p, _, _ in reqs])
            for p, vc, plan in reqs:
                if p != winner_port:
                    continue
                out_ports[plan.dest].credits[vc.out_vc] -= 1
                stats.sa_grants += 1
                if plan.secondary:
                    stats.secondary_path_grants += 1
                if tracer is not None:
                    tracer.emit(
                        cycle,
                        "sa_grant",
                        router.node,
                        in_port=p,
                        out_port=plan.dest,
                        packet=vc.packet_id,
                        secondary=plan.secondary,
                    )
                grants.append(SAGrant(p, vc, plan))
                break
        return grants
