"""Network interface controllers (NICs).

Each node's NIC owns the boundary between the core and the fabric:

* **Injection** — packets from the traffic generator wait in per-vnet
  source queues; the NIC performs NIC-side VC allocation on the router's
  *local input port* (one packet per VC at a time, reallocation on tail),
  respects credits, and injects at most one flit per cycle (the local link
  is one flit wide).
* **Ejection** — flits arriving on the router's local output port are
  consumed immediately (cores always sink traffic — this guarantees
  consumption and, with XY routing, freedom from network deadlock), the
  buffer credit is returned, and completed packets are reported to the
  statistics module.

Wake semantics (active-set / event-driven loops): ``on_wake`` fires on
the 0→1 transition of ``_queued`` in :meth:`NetworkInterface.enqueue`,
and the NIC stays in the simulator's active set until its last queued
packet finishes injecting — so an idle NIC costs nothing per cycle, and
a NIC stalled on credits needs no extra wake (the credit return is a
scheduled calendar event, which by itself blocks the event-driven loop
from skipping the cycle it lands on).
"""

from __future__ import annotations

from collections import deque
from dataclasses import astuple
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from ..config import PORT_LOCAL, RouterConfig
from ..observability.events import packet_event
from ..router.flit import Flit, Packet
from .stats import LatencySample, NetworkStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..observability import EventTracer
    from ..router.router import BaseRouter
    from .simulator import EventScheduler


class _ActiveInjection:
    """A packet mid-injection on one wire VC."""

    __slots__ = ("flits", "next_idx", "wire_vc")

    def __init__(self, flits: list[Flit], wire_vc: int) -> None:
        self.flits = flits
        self.next_idx = 0
        self.wire_vc = wire_vc

    @property
    def done(self) -> bool:
        return self.next_idx >= len(self.flits)


class NetworkInterface:
    """Injection/ejection endpoint attached to one router's local port."""

    def __init__(
        self,
        node: int,
        router: "BaseRouter",
        config: RouterConfig,
        stats: NetworkStats,
    ) -> None:
        self.node = node
        self.router = router
        self.config = config
        self.stats = stats
        V = config.num_vcs
        #: per-vnet FIFO of packets waiting to start injection
        self.source_queues: list[Deque[Packet]] = [
            deque() for _ in range(config.num_vnets)
        ]
        #: NIC-side credit count per wire VC of the router's local input port
        self.credits = [config.buffer_depth] * V
        #: active injection per vnet (at most one packet per vnet in flight
        #: from the source queue; queued packets follow on)
        self.active: list[Optional[_ActiveInjection]] = [None] * config.num_vnets
        #: the wire VC each vnet injects on: a vnet has at most one packet
        #: mid-injection and frees its VC on the tail, so its first VC is
        #: always free when the next packet starts
        self._vnet_vc = [config.vcs_of_vnet(vn)[0] for vn in range(config.num_vnets)]
        self._vnet_rr = 0
        self._n_vnets = config.num_vnets
        #: packets waiting in source queues or mid-injection; counted up in
        #: ``enqueue`` and down when the tail flit enters the router, so
        #: the simulator's drain predicate never re-scans the queues
        self._queued = 0
        #: empty→non-empty transition callback; the simulator installs its
        #: active-NIC-set ``add``.  ``None`` for standalone NICs (tests).
        self.on_wake: Optional[Callable[[int], None]] = None
        #: partial ejections: packet id -> head flit info
        self._eject_heads: Dict[int, Flit] = {}
        #: flit-lifecycle tracer (:mod:`repro.observability`); ``None`` —
        #: the default — makes every emission site a single attribute check
        self.tracer: Optional["EventTracer"] = None
        #: the tracer that takes each delivered packet's ``packet`` record
        self.packet_tracer: Optional["EventTracer"] = None

    # ------------------------------------------------------------------
    # injection side
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Accept a packet from the traffic generator."""
        if packet.src != self.node:
            raise ValueError(
                f"packet sourced at {packet.src} enqueued at NIC {self.node}"
            )
        if not (0 <= packet.vnet < self.config.num_vnets):
            raise ValueError(f"packet vnet {packet.vnet} out of range")
        self.source_queues[packet.vnet].append(packet)
        self.stats.packets_created += 1
        self._queued += 1
        if self._queued == 1 and self.on_wake is not None:
            self.on_wake(self.node)

    @property
    def queued_packets(self) -> int:
        """Packets waiting or mid-injection (drain bookkeeping)."""
        return self._queued

    def _try_start(self, vnet: int, cycle: int) -> None:
        """NIC-side VC allocation: bind the next queued packet to its vnet's VC."""
        queue = self.source_queues[vnet]
        if queue:
            packet = queue.popleft()
            self.active[vnet] = _ActiveInjection(
                list(packet.flits()), self._vnet_vc[vnet]
            )

    def step(self, cycle: int) -> int:
        """Inject up to one flit this cycle, round-robin across vnets.

        Returns the number of flits injected (0 or 1), so the simulator's
        in-flight accounting is a plain addition rather than a diff of the
        global ``flits_injected`` counter per NIC per cycle.
        """
        n_vnets = self._n_vnets
        active = self.active
        credits = self.credits
        stats = self.stats
        rr = self._vnet_rr
        for i in range(n_vnets):
            vnet = (rr + i) % n_vnets
            if active[vnet] is None:
                self._try_start(vnet, cycle)
            inj = active[vnet]
            if inj is None:
                continue
            d = inj.wire_vc
            if credits[d] <= 0:
                continue
            flit = inj.flits[inj.next_idx]
            inj.next_idx += 1
            credits[d] -= 1
            flit.injection_cycle = cycle
            self.router.receive_flit(PORT_LOCAL, d, flit, cycle)
            stats.flits_injected += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    cycle,
                    "inject",
                    self.node,
                    packet=flit.packet_id,
                    flit=flit.flit_index,
                    src=flit.src,
                    dest=flit.dest,
                    vnet=flit.vnet,
                    vc=d,
                )
            if flit.is_head:
                # counted here, not at VC allocation: under zero-credit
                # backpressure an allocated packet may not have entered
                # the router yet
                stats.packets_injected += 1
            if flit.is_tail:
                # reallocation on tail: the wire VC may host the next packet
                active[vnet] = None
                self._queued -= 1
            self._vnet_rr = (vnet + 1) % n_vnets
            return 1  # local link bandwidth: one flit per cycle
        return 0

    def receive_credit(self, wire_vc: int) -> None:
        """The router freed a slot of our local-input-port VC."""
        self.credits[wire_vc] += 1
        if self.credits[wire_vc] > self.config.buffer_depth:
            raise AssertionError(
                f"NIC {self.node} credit overflow on VC {wire_vc}"
            )

    # ------------------------------------------------------------------
    # ejection side
    # ------------------------------------------------------------------
    def eject(self, flit: Flit, wire_vc: int, cycle: int, sched: "EventScheduler") -> None:
        """Consume a flit arriving from the router's local output port."""
        if flit.dest != self.node:
            raise AssertionError(
                f"flit for node {flit.dest} ejected at node {self.node}: "
                "misroute"
            )
        self.stats.flits_ejected += 1
        # consuming the flit frees the NIC-side buffer slot -> credit back
        sched.return_nic_credit(self.node, wire_vc)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                cycle,
                "eject",
                self.node,
                packet=flit.packet_id,
                flit=flit.flit_index,
                src=flit.src,
                dest=flit.dest,
                vc=wire_vc,
            )
        if flit.is_head:
            self._eject_heads[flit.packet_id] = flit
        if flit.is_tail:
            head = self._eject_heads.pop(flit.packet_id, flit)
            sample = LatencySample(
                packet_id=flit.packet_id,
                src=flit.src,
                dest=flit.dest,
                vnet=flit.vnet,
                size_flits=flit.packet_len,
                creation_cycle=head.creation_cycle,
                injection_cycle=head.injection_cycle,
                ejection_cycle=cycle,
                hops=flit.hops,
            )
            self.stats.record_packet(sample)
            if self.packet_tracer is not None:  # the record a retiring lane emits too
                self.packet_tracer.extend([packet_event(*astuple(sample))], 1)
