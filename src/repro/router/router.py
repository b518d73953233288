"""The router: 4-stage pipeline driver, credits, and output-side state.

Pipeline (paper Figure 2): a head flit entering at cycle *t* performs
routing computation (RC) at *t+1*, VC allocation (VA) at *t+2*, switch
allocation (SA) at *t+3*, and crossbar traversal (XB) at *t+4*; body and
tail flits use only SA and XB.  The simulator realises this by executing,
each cycle, the phases in reverse pipeline order (XB first, RC last) so a
flit advances exactly one stage per cycle.

The router is built from pluggable units — RC unit, VA unit, SA unit,
crossbar — so that :class:`BaselineRouter` and the protected router
(:class:`repro.core.protected_router.ProtectedRouter`) share this driver
and differ only in the units and the fault-handling hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..config import RouterConfig
from ..faults.sites import RouterFaultState
from .allocator import SAGrant, SAUnit, VAUnit
from .crossbar import Crossbar
from .flit import Flit
from .input_port import InputPort
from .routing import RoutingFunction
from .vc import VCState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.simulator import EventScheduler
    from ..observability import EventTracer


class OutputPort:
    """Output-side state: credits and downstream-VC allocation tracking.

    ``credits[d]`` counts free buffer slots of downstream wire-VC ``d``;
    ``allocated[d]`` holds the packet id that currently owns ``d`` (set by
    VA, cleared when this router forwards the packet's tail — the standard
    reallocation-on-tail policy).
    """

    __slots__ = ("port", "num_vcs", "credits", "allocated")

    def __init__(self, port: int, num_vcs: int, buffer_depth: int) -> None:
        self.port = port
        self.num_vcs = num_vcs
        self.credits = [buffer_depth] * num_vcs
        self.allocated: list[Optional[int]] = [None] * num_vcs

    def free_vcs(self, vnet_vcs: Iterable[int]) -> list[int]:
        """Downstream VCs of the given vnet not owned by any packet."""
        alloc = self.allocated
        return [d for d in vnet_vcs if alloc[d] is None]


class RCUnit:
    """Baseline routing-computation unit: one (unprotected) unit per port.

    A permanent fault in the unit means "the entire pipeline is affected"
    (Section V-A): head flits at that port can no longer be routed and
    block.  ``compute`` returns the output port or ``None`` when blocked.

    With an *adaptive* routing function (e.g. west-first), the unit
    selects among the permitted candidates at routing time: it prefers
    outputs that are reachable through a healthy normal crossbar path,
    then by downstream credit availability — which both balances load and
    routes around outputs whose paths have died (fault-aware routing, an
    extension beyond the paper's XY setup).
    """

    def __init__(self, router: "BaseRouter") -> None:
        self.router = router

    def compute(self, in_port: int, flit: Flit) -> Optional[int]:
        if in_port in self.router.faults.rc_primary:
            return None
        return self.select_route(flit)

    def select_route(self, flit: Flit) -> int:
        """The routing decision proper (fault gating handled by callers)."""
        router = self.router
        row = router.route_row
        if row is not None:
            # non-adaptive routing: the simulator installed this node's
            # row of the precomputed route table
            return row[flit.dest]
        routing = router.routing
        if not routing.adaptive:
            return routing.output_port(router.node, flit.dest)
        cands = routing.candidate_ports(router.node, flit.dest)
        crossbar = router.crossbar
        out_ports = router.out_ports
        best, best_key = None, None
        for c in cands:
            plan = crossbar.plan_path(c)
            if plan is None:
                continue
            credits = sum(out_ports[c].credits)
            key = (not plan.secondary, credits)
            if best_key is None or key > best_key:
                best, best_key = c, key
        if best is None:
            # every candidate unreachable: fall back to the preferred
            # direction; the pipeline will report it blocked
            return cands[0]
        return best


@dataclass
class RouterStats:
    """Per-router event counters."""

    flits_traversed: int = 0
    buffer_writes: int = 0
    va_grants: int = 0
    sa_grants: int = 0
    va_borrowed_grants: int = 0
    va_stage2_fault_retries: int = 0
    va_blocked_cycles: int = 0
    va_no_free_vc_cycles: int = 0
    va_borrow_wait_cycles: int = 0
    sa_blocked_cycles: int = 0
    sa_bypass_grants: int = 0
    vc_transfers: int = 0
    secondary_path_grants: int = 0
    rc_blocked_cycles: int = 0
    rc_duplicate_computations: int = 0
    unreachable_output_cycles: int = 0


class BaseRouter:
    """Shared pipeline driver; subclasses choose the units."""

    #: marker used by reports ("baseline" / "protected")
    kind = "base"

    def __init__(
        self,
        node: int,
        config: RouterConfig,
        routing: RoutingFunction,
    ) -> None:
        self.node = node
        self.config = config
        self.routing = routing
        self.faults = RouterFaultState(config)
        self.stats = RouterStats()

        P, V, D = config.num_ports, config.num_vcs, config.buffer_depth
        self.in_ports = [InputPort(p, V, D) for p in range(P)]
        self.out_ports = [OutputPort(p, V, D) for p in range(P)]

        self.crossbar = self._make_crossbar()
        self.rc_unit = self._make_rc_unit()
        self.va_unit = self._make_va_unit()
        self.sa_unit = self._make_sa_unit()

        #: SA winners of the previous cycle, traversing the XB this cycle
        self._xb_queue: list[SAGrant] = []
        #: count of non-idle VCs, used by the simulator to skip idle routers
        self._nonidle = 0
        #: stage occupancy: VCs in ``ROUTING`` / ``WAITING_VA`` / ``ACTIVE``.
        #: The router owns them and moves them at the four stage
        #: transitions (``receive_flit`` on an idle VC, RC success, the VA
        #: grant, the tail dequeue in ``xb_phase``); the fast stepper runs
        #: RC / VA / SA on this router only while the stage holds a VC.
        self._in_rc = 0
        self._in_va = 0
        self._in_sa = 0
        #: idle→busy transition callback; the simulator installs its
        #: active-router-set ``add`` so a router re-enters the schedule the
        #: moment a flit arrives.  ``None`` for standalone routers (tests).
        self.on_wake: Optional[Callable[[int], None]] = None
        #: this node's row of the shared route table
        #: (``route_row[dest] -> out_port``), installed by the simulator
        #: for non-adaptive routing functions; ``None`` -> compute per flit
        self.route_row: Optional[Sequence[int]] = None
        #: flit-lifecycle tracer (:mod:`repro.observability`); ``None`` —
        #: the default — makes every emission site a single attribute check
        self.tracer: Optional["EventTracer"] = None
        #: per-router recovery probe (:class:`repro.faults.recovery.
        #: RecoveryMonitor`), installed by the simulator for online fault
        #: campaigns; the simulator reports fault land/heal events into it
        #: (``fault_landed``/``fault_healed``) and polls its open watches.
        #: ``None`` — the default — keeps the fault path cost at a single
        #: attribute check.
        self.recovery: Optional[object] = None

    # -- unit factories (overridden by the protected router) ---------------
    def _make_crossbar(self) -> Crossbar:
        return Crossbar(self.config.num_ports, self.faults)

    def _make_rc_unit(self) -> RCUnit:
        return RCUnit(self)

    def _make_va_unit(self) -> VAUnit:
        return VAUnit(self)

    def _make_sa_unit(self) -> SAUnit:
        return SAUnit(self)

    # ----------------------------------------------------------------------
    # fault management
    # ----------------------------------------------------------------------
    def inject_fault(self, site) -> bool:
        """Inject a permanent fault and refresh cached path plans."""
        changed = self.faults.inject(site)
        if changed:
            self.crossbar.notify_fault_change()
        return changed

    def heal_fault(self, site) -> bool:
        changed = self.faults.heal(site)
        if changed:
            self.crossbar.notify_fault_change()
        return changed

    def clear_dynamic_state(self) -> None:
        """Drop everything in flight: buffers, credits, allocation, XB queue.

        The one owner of the occupancy counters' zeroing.  Faults, slot
        swaps, arbiter priorities and statistics are kept, so a probe
        campaign (``reliability/spf_simulation``) can test flow after flow
        on one faulted router.
        """
        depth = self.config.buffer_depth
        for ip in self.in_ports:
            ip.clear()
        for op in self.out_ports:
            for d in range(op.num_vcs):
                op.credits[d] = depth
                op.allocated[d] = None
        self._xb_queue.clear()
        self._nonidle = self._in_rc = self._in_va = self._in_sa = 0

    # ----------------------------------------------------------------------
    # busy tracking
    # ----------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True when the router has any pipeline work this cycle."""
        return self._nonidle > 0 or bool(self._xb_queue)

    def wake(self) -> None:
        """Force this router into the simulator's active set this cycle.

        Used by out-of-band state changes — today, fault injection — that
        mutate the router without a flit arriving.  The router runs its
        (possibly no-op) pipeline phases on the current cycle exactly as
        the reference full scan would, and is pruned again afterwards if
        it is still idle, so the active-set invariant (active == busy at
        cycle boundaries) is preserved.
        """
        if self.on_wake is not None:
            self.on_wake(self.node)

    # ----------------------------------------------------------------------
    # per-cycle phases (called by the network simulator, in this order)
    # ----------------------------------------------------------------------
    def xb_phase(self, sched: "EventScheduler", cycle: int) -> None:
        """Crossbar traversal: commit last cycle's SA grants."""
        queue = self._xb_queue
        if not queue:
            return
        tracer = self.tracer
        stats = self.stats
        node = self.node
        out_ports = self.out_ports
        in_ports = self.in_ports
        idle = VCState.IDLE
        for grant in queue:
            vc = grant.vc
            plan = grant.plan
            # The flit and bookkeeping captured at SA time are still valid:
            # the VC object is referenced directly and wormhole ordering
            # guarantees its front flit belongs to the granted packet.
            out_vc = vc.out_vc
            dest = plan.dest
            flit = vc.dequeue()
            flit.hops += 1
            stats.flits_traversed += 1
            if tracer is not None:
                tracer.emit(
                    cycle,
                    "xb",
                    node,
                    in_port=grant.in_port,
                    out_port=dest,
                    out_vc=out_vc,
                    packet=flit.packet_id,
                    flit=flit.flit_index,
                    secondary=plan.secondary,
                )
            if flit.is_tail:
                # the packet left SA; the VC idles or, with the next
                # packet's head already buffered, re-enters RC
                self._in_sa -= 1
                if vc.state is idle:
                    self._nonidle -= 1
                    in_ports[grant.in_port].nonidle -= 1
                else:
                    self._in_rc += 1
                # reallocation-on-tail: free the downstream VC for new VA
                out_ports[dest].allocated[out_vc] = None
            sched.deliver_flit(node, dest, out_vc, flit)
            # the freed input buffer slot becomes a credit upstream
            sched.return_credit(node, grant.in_port, vc.index)
        queue.clear()

    def sa_phase(self, cycle: int) -> None:
        """Switch allocation; winners traverse the crossbar next cycle."""
        if self._nonidle == 0:
            return
        self._xb_queue = self.sa_unit.allocate(cycle)

    def va_phase(self, cycle: int) -> None:
        """Virtual-channel allocation for head flits."""
        if self._nonidle == 0:
            return
        self.va_unit.allocate(cycle)

    def rc_phase(self, cycle: int) -> None:
        """Routing computation for newly arrived head flits."""
        if self._nonidle == 0:
            return
        crossbar = self.crossbar
        rc_compute = self.rc_unit.compute
        stats = self.stats
        tracer = self.tracer
        routing_state = VCState.ROUTING
        for in_port in self.in_ports:
            if in_port.nonidle == 0:
                continue
            for vc in in_port.slots:
                if vc.state is not routing_state:
                    continue
                out = rc_compute(in_port.port, vc.front())
                if out is None:
                    stats.rc_blocked_cycles += 1
                    continue
                if crossbar.plan_path(out) is None:
                    # output unreachable through any path: the packet is
                    # stuck; the watchdog / failure predicate reports it.
                    stats.unreachable_output_cycles += 1
                    continue
                vc.route = out
                vc.state = VCState.WAITING_VA
                self._in_rc -= 1
                self._in_va += 1
                if tracer is not None:
                    tracer.emit(
                        cycle,
                        "rc",
                        self.node,
                        in_port=in_port.port,
                        out_port=out,
                        packet=vc.packet_id,
                    )

    # ----------------------------------------------------------------------
    # link-side entry points (called by the simulator)
    # ----------------------------------------------------------------------
    def receive_flit(self, port: int, wire_vc: int, flit: Flit, cycle: int) -> None:
        """Buffer write: a flit arrives from the upstream link (or NIC)."""
        in_port = self.in_ports[port]
        vc = in_port.slots[in_port._wire_to_phys[wire_vc]]
        was_idle = vc.state == VCState.IDLE
        vc.enqueue(flit)
        self.stats.buffer_writes += 1
        if was_idle:
            in_port.nonidle += 1
            self._in_rc += 1
            self._nonidle += 1
            if self._nonidle == 1 and self.on_wake is not None:
                self.on_wake(self.node)

    def receive_credit(self, out_port: int, wire_vc: int) -> None:
        """A downstream buffer slot was freed."""
        op = self.out_ports[out_port]
        op.credits[wire_vc] += 1
        if op.credits[wire_vc] > self.config.buffer_depth:
            raise AssertionError(
                f"credit overflow on router {self.node} port {out_port} "
                f"vc {wire_vc}: flow-control protocol violated"
            )

    # ----------------------------------------------------------------------
    # diagnostics
    # ----------------------------------------------------------------------
    def buffered_flits(self) -> int:
        """Total flits buffered in all input VCs (drain check)."""
        return sum(p.total_occupancy for p in self.in_ports)

    def pending_grants(self) -> Sequence[SAGrant]:
        return tuple(self._xb_queue)

    def check_invariants(self) -> None:
        """Structural invariants, used by property tests."""
        cfg = self.config
        for in_port in self.in_ports:
            in_port.check_invariants()
        nonidle = 0
        for ip in self.in_ports:
            port_nonidle = sum(1 for vc in ip.slots if vc.state != VCState.IDLE)
            assert port_nonidle == ip.nonidle, (
                f"router {self.node} port {ip.port}: nonidle count "
                f"{ip.nonidle} != actual {port_nonidle}"
            )
            nonidle += port_nonidle
        assert nonidle == self._nonidle, (
            f"router {self.node}: busy count {self._nonidle} != actual {nonidle}"
        )
        for state, counted in (
            (VCState.ROUTING, self._in_rc),
            (VCState.WAITING_VA, self._in_va),
            (VCState.ACTIVE, self._in_sa),
        ):
            actual = sum(
                1 for ip in self.in_ports for vc in ip.slots if vc.state == state
            )
            assert counted == actual, (
                f"router {self.node}: {state.name} counter {counted} "
                f"!= actual {actual}"
            )
        for op in self.out_ports:
            for d in range(cfg.num_vcs):
                assert 0 <= op.credits[d] <= cfg.buffer_depth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(node={self.node})"


class BaselineRouter(BaseRouter):
    """The unprotected generic NoC router of paper Section II.

    Any permanent fault in a pipeline-stage component blocks the affected
    traffic — the paper's baseline reliability model therefore counts *any*
    single fault as router failure (MTTF analysis, Section VII).
    """

    kind = "baseline"
