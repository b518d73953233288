"""Batched lane engine: step whole sweeps as flat NumPy state arrays.

Every sweep experiment runs dozens of structurally identical fabrics that
differ only in injection rate, seed, or fault set.  This module
materialises N such sweep points ("lanes") into one set of flat NumPy
state arrays — VC state of shape ``(lanes, routers, ports, vcs)``, flit
buffers with a depth axis alongside, credit/allocation arrays on the
output side — and advances RC/VA/SA/XB for *all* lanes in one vectorised
step.  Per-lane fault sets are boolean masks over the same axes, and so
is the router kind (a baseline router is a protected one whose spares
are absent: see "Faults, heals and recovery"); drained or blocked lanes
retire independently and simply drop out of every phase's requester set.

Bit-identical by construction
-----------------------------
The engine mirrors :meth:`NoCSimulator._step_reference` exactly — the
same phase order (faults, XB, SA, VA, RC, link dispatch, injection), the
same two-stage separable allocators with per-arbiter round-robin
priority state, the same credit/event timing: a calendar ring of
``max(link_latency, credit_latency) + 1`` slots per event kind, indexed
``cycle % span`` exactly like :class:`EventScheduler`, so multi-cycle
link and credit latencies land on the same cycle they would serially.
Each lane's traffic source and fault schedule are the *same Python
objects* a serial run would use — the source drawn ahead into a table
exactly as per-cycle calls draw it, the schedule polled on the cycles its
``next_cycle()`` names — so RNG streams and fault arrival order are
identical by construction.  Finished lanes decode back into ordinary
:class:`NetworkStats`/:class:`RouterStats` objects;
``tests/test_golden_determinism.py`` pins them byte-identical to the
object engine per lane.

Lane refill
-----------
Lanes run on *local clocks*: every lane slot carries a start offset and
all cycle-dependent state (traffic generation, fault arrival, bypass
rotation, latency timestamps, inject/drain windows) is computed against
``cycle - off[lane]``.  When a lane retires, its result is decoded
immediately and the next pending structurally-identical point is
installed in the freed slot — the array form of a freshly built fabric:
every per-lane array slice returns to its power-on value.
A retiring lane is cleared *at retirement* (every VC idle, the XB queue
empty, nothing due at its NICs, its in-flight calendar events purged),
so a dead slot holds no requester and no kernel filters by liveness.  A
1000-point sweep therefore holds dense ``(lanes, ...)`` arrays at the
configured width for its whole duration; :attr:`lane_occupancy` reports
the achieved density.

Vectorisation strategy
----------------------
Phases operate on *compressed id arrays* rather than dense tensors — the
work per cycle scales with the number of busy VCs across all lanes, the
same property the object engine's active sets give a single fabric.
Every ``(lane, router, port, slot)`` has one flat id::

    vc   = ((lane * R + router) * P + port) * V + slot
    port = vc // V      node = vc // (P * V)      lane = vc // (R * P * V)

and the rest is the same algebra: output VC ``(node, o, w)`` is
``(node * P + o) * V + w``, a buffer cell ``vc * D + pos``, a ``va1_prio``
row ``(port * V + owner) * P + o``, a NIC queue ``node * NV + vnet``,
a packet-table row ``lane * cap + row``.  Each state array is allocated
once and seen two ways: n-d (``self.st``) by the scalar fault paths, lane
install and retirement, and as a 1-D ``reshape(-1)`` view of the same
memory (``self.st_``, the trailing underscore) by the seven per-cycle
kernels, which take one ``mask.nonzero()[0]`` per phase (C order: the
order the serial loops visit requesters in) and one index array per
gather or scatter.  A narrow step is bound by its operation count, not
its data — a gather of a few dozen ids costs a fifth of a ``//`` on
them — so the divisions of the algebra are static tables (``port_of``,
``node_of``, ``pidx_of`` ...), probes are ``.nonzero()[0]`` /
``count_nonzero`` / an index array's ``.size``, integer operands are 0-d
arrays (``_k``), index arrays are ``intp`` (NumPy converts any other
dtype on every use), and ids stay absolute where a kernel would
re-derive them: ``route`` is a packet's output port id, ``outvc`` its
output VC id.  The wiring is tables too: ``down_vc`` (output port id ->
the offset from its output VC ids to the wire-VC ids its link feeds) and
``credit_to`` (wire-VC id at an input port -> where its credit returns);
a port without a link leads past the end of every state array, so a
flit routed off the mesh raises ``IndexError`` at its next gather.
Same-stage arbiters are independent within a cycle, so one scatter-min
into a scratch cell per arbiter finds every grant without a sort
(``_rr_grant``), and VA stage 1 reads its pick off a table of (pointer,
free-VC bits of the output port: ``vfree``).

A flit is one ``int64`` word — flag bits 0-1, hop count above them (a
traversal is ``+ _HOP``), destination node, packet-table row on top — so
a buffer read or write is one gather or scatter, and a calendar event
carries the *id it lands on*: a link flit is ``(wire-VC id at the
downstream input port, word)``, an ejection ``(output-VC id, word)``, a
credit its index into ``credits``, where router and NIC credits are two
views of one buffer.  Three rings hold them (a cycle's ejection credits
join its XB's slot), and the SA -> XB queue is a ring of one slot: the
grants' id arrays as SA computed them.  ``RouterStats`` counters are
*queued*: a kernel appends the node ids it counted, and one ``bincount``
per counter runs where somebody reads (``counts``) and every
``_bin_every`` steps.  Buffer writes are counted by conservation: a
lane's total is its traversals plus its buffered flits.

The NIC boundary is arrays too.  Traffic is open-loop, so when a lane is
installed its source is compiled (:func:`repro.traffic.generator.compile_table`)
into a *packet table* — columns for queue-entry and creation cycle, src,
dest, vnet, size, then injection cycle, ejection cycle and hops — that a
packet lives in from draw to ejection; its row index is the packet id
the flit buffers carry.  Rows are stored sorted by ``(src, vnet)`` in
yield order, so each NIC source queue is a cursor into a contiguous run
(FIFO order is yield order, "queued" is ``entry cycle <= local cycle``);
NIC credits, active injections and the vnet round-robin are ``(L, R, ...)``
arrays stepped in one loop-free pass (the first vnet that can inject,
scanning from the round-robin pointer, is a round-robin grant); ejection
writes table columns; and a lane's :class:`NetworkStats` is reduced from
its table once, at retirement.  A source held by several lanes (the
fault-free and faulty run of one application, every count of a fault
sweep, the baseline and protected replay of one campaign timeline) is
one stream: it is compiled once and every holder gets the table.  The
scalar remnants are fault-site injection and healing and the recovery
monitors.

Faults, heals and recovery
--------------------------
Router kind is two ``(lanes,)`` masks, ``protected`` and ``roco``, set at
install from the lane's spec, and the kernels have one body each: the
``protected`` mask takes the spare out of the fault algebra (RC
``blocked = f_rc1 & (f_rc2 | ~prot)``, SA ``dead = f_sa1 & (f_sa1b |
~prot)``, no secondary path in a baseline lane's plans, no lender for a
baseline VC, exclusions recorded for protected retries only), so every
kind of one sweep shares an engine.  ``_set_site`` sets or clears one
fault bit the way ``BaseRouter.inject_fault`` / ``heal_fault`` do, and
on a ``roco`` lane charges a landing to a ``modules`` counter, whose dead
ports get ``f_rc1`` / ``f_xbm`` bits, as ``RoCoRouter`` does.  A lane's
schedule heals and then injects on the cycles its ``next_cycle()`` names,
exactly as ``NoCSimulator._inject_faults`` does.  ``RouterStats`` counters are binned
per ``(counter, lane, router)``, which is what lets a lane whose schedule
keeps a ``recovery_log`` carry the object engine's own
:class:`repro.faults.recovery.RecoveryMonitor`, fed :class:`_RouterView`
objects: landings and heals are reported from the fault stage, open
watches are polled after the last kernel on the lane's local clock, and
the summary lands on ``SimulationResult.recovery`` at retirement.

Routing is a table, ``rtab``; an adaptive function (``west_first``) adds
``rtab2``, its second candidate, which the RC kernel takes on a strictly
greater ``RCUnit.select_route`` key — ``(has a crossbar plan, not
secondary, the output port's credit sum)`` as one integer (``_route_key``).

A router's kind is its class.  :data:`LANE_ROUTERS` maps each lane kind
to the one router class it models, and :func:`lane_kind` reads the kind
off the routers a fabric is built from: a ``NoCSimulator.run()`` above the
break-even load is a width-1 engine of this class only when every router
is exactly one registered class (a subclass, such as
``comparison.ecc_sim``'s, is stepped), and :func:`router_factory` builds
the class a sweep point's kind names.  Every router a mesh of two or
more routers can have is a lane: such a router has at least 4 ports, so
at most 15 VCs, which VA stage 1's pick tables hold.  Observability
rides the lanes: a retiring lane's slice of the counter matrix goes
through the object engine's export, :func:`repro.observability.harvest`,
and a trace takes one ``packet`` event per delivered packet, built from
the columns the lane's ``NetworkStats`` is reduced from.

Frozen stretches
----------------
A baseline router fails on its first pipeline fault, so a fault campaign
holds lanes that block and then idle to their watchdog or drain horizon.
Once *every* lane is frozen — no kernel set ``_wrote`` at a state write
for two steps and no ring holds an event (``_quiet``) — each step repeats
the last until something outside the state moves, and ``_fast_forward``
jumps to that wake (a fault landing or heal, a NIC queue entry that finds
a credit, a lane's inject window or drain horizon ending, a watchdog
deadline), adding the last step's counter increments once per skipped
cycle (``skipped_cycles``).  Three write sites need care: VA stage 1
rewrites a converged pointer every cycle while its requester loses stage
2 to a faulty arbiter (compared, not assumed), an SA candidate at a
protected bypass port is never quiet (the rotation default moves with
the lane's clock), and a protected VA2 retry records an exclusion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type, cast

import numpy as np

from ..comparison.roco_router import RoCoRouter, charged_to_row, dead_ports
from ..config import PORT_LOCAL, NetworkConfig, SimulationConfig
from ..core.protected_router import ProtectedRouter
from ..faults.recovery import RecoveryMonitor
from ..faults.sites import FaultUnit
from ..observability import EventTracer, MetricsRegistry, Observability, global_config, harvest
from ..observability.events import packet_events
from ..observability.profiler import STAGE_NAMES, StageProfiler
from ..router.crossbar import carrier_port
from ..router.router import BaseRouter, BaselineRouter, RouterStats
from ..router.routing import RoutingFunction, make_routing
from ..traffic.generator import compile_table
from .simulator import (
    FaultSchedule,
    RouterFactory,
    SimulationResult,
    TrafficSource,
)
from .stats import NetworkStats
from .topology import Topology



def _k(n: int, dtype: type = np.intp) -> np.ndarray:
    """``n`` as a kernel operand: a 0-d array of the dtype it meets (which
    changes no result's dtype), not a Python int, which NumPy converts on
    every operation (0.7 µs of a 0.4 µs operation on a few dozen ids)."""
    return np.array(n, dtype)


# VC pipeline states (must match repro.router.vc.VCState integer values)
_IDLE, _ROUTING, _WAITING_VA, _ACTIVE = (_k(s, np.int8) for s in range(4))
#: 0 and 1 for the int32 counts (buffered flits, credits, a NIC's flit index)
_ZERO, _ONE = _k(0, np.int32), _k(1, np.int32)

# the flit word: flags in bits 0-1, then hops (low, so a traversal is one
# add), the destination node, and the packet-table row in the top bits
_HOP_SHIFT, _DEST_SHIFT, _PID_SHIFT = 2, 16, 32
_HOP_MASK = (1 << (_DEST_SHIFT - _HOP_SHIFT)) - 1
_DEST_MASK = (1 << (_PID_SHIFT - _DEST_SHIFT)) - 1
_MAX_ROWS = 1 << (63 - _PID_SHIFT)
_F_HEAD, _F_TAIL, _HOP, _ROW_SHIFT = _k(1), _k(2), _k(1 << _HOP_SHIFT), _k(_PID_SHIFT - _DEST_SHIFT)
_HOP_SHIFT, _DEST_SHIFT, _PID_SHIFT, _HOP_MASK, _DEST_MASK = map(_k, (
    _HOP_SHIFT, _DEST_SHIFT, _PID_SHIFT, _HOP_MASK, _DEST_MASK))

#: queue-entry cycle of an exhausted NIC source queue, fault cycle of a
#: slot with nothing left to poll (never due)
_NEVER = np.iinfo(np.int32).max

#: a ``_rr_grant`` scratch cell between uses: above any round-robin distance
_FAR = np.iinfo(np.int8).max

#: RouterStats field -> column index in the per-lane counter matrix
_RS_IDX: Dict[str, int] = {
    name: i for i, name in enumerate(RouterStats.__dataclass_fields__)
}

_I_TRAV = _RS_IDX["flits_traversed"]
_I_BUFW = _RS_IDX["buffer_writes"]
_I_VA_GRANT = _RS_IDX["va_grants"]
_I_SA_GRANT = _RS_IDX["sa_grants"]
_I_VA_BORROWED = _RS_IDX["va_borrowed_grants"]
_I_VA2_RETRY = _RS_IDX["va_stage2_fault_retries"]
_I_VA_BLOCK = _RS_IDX["va_blocked_cycles"]
_I_VA_NOFREE = _RS_IDX["va_no_free_vc_cycles"]
_I_VA_BORROW_WAIT = _RS_IDX["va_borrow_wait_cycles"]
_I_SA_BLOCK = _RS_IDX["sa_blocked_cycles"]
_I_SA_BYPASS = _RS_IDX["sa_bypass_grants"]
_I_VC_XFER = _RS_IDX["vc_transfers"]
_I_SEC = _RS_IDX["secondary_path_grants"]
_I_RC_BLOCK = _RS_IDX["rc_blocked_cycles"]
_I_RC_DUP = _RS_IDX["rc_duplicate_computations"]
_I_UNREACH = _RS_IDX["unreachable_output_cycles"]

#: lane kind -> the router class it models; which of them a lane is, is a mask
LANE_ROUTERS: Dict[str, Type[BaseRouter]] = {
    cls.kind: cls for cls in (BaselineRouter, ProtectedRouter, RoCoRouter)
}
LANE_KINDS = tuple(LANE_ROUTERS)

#: node ids the counter queue holds (128 kB; an array weighs 16 more): a
#: step queues under one id per input port (0.45 at 4x4, 0.79 at 8x8 on the
#: ledger's busiest steps), so it is binned every ``_COUNT_QUEUE // ports`` steps
_COUNT_QUEUE = 1 << 14


@dataclass
class LaneSpec:
    """One sweep point to run as a lane of the batched engine.

    The fault schedule is a per-lane, single-use, stateful object, and
    so is the traffic source unless several specs hold the *same* one:
    that is one stream, drawn once, and every holder runs it in full.
    Construct both exactly as a serial run would (same seeds from the
    same ``SeedSequence.spawn``) and the lane's RNG stream is identical
    to its serial run by construction.  The engine reads ``recovery_log``
    off the schedule, as ``NoCSimulator`` does.
    """

    traffic: TrafficSource
    fault_schedule: Optional[FaultSchedule] = None
    #: one of :data:`LANE_KINDS`; ``None`` takes the engine's ``router_kind``
    router_kind: Optional[str] = None


def lane_kind(routers: Iterable[BaseRouter]) -> Optional[str]:
    """The lane kind of a fabric built from ``routers``, or ``None``.

    Every router must be exactly one class of :data:`LANE_ROUTERS`: a
    subclass is somebody's own router, whatever it inherits.
    """
    classes = {type(r) for r in routers}
    if len(classes) != 1:
        return None
    (cls,) = classes
    return cls.kind if LANE_ROUTERS.get(cls.kind) is cls else None


def router_factory(kind: str, config: NetworkConfig) -> RouterFactory:
    """A factory building the router class of lane kind ``kind``."""
    if kind not in LANE_ROUTERS:
        raise ValueError(f"unknown router kind {kind!r}")
    cls = LANE_ROUTERS[kind]

    def make(node: int, routing: RoutingFunction) -> BaseRouter:
        return cls(node, config.router, routing)

    return make


class BatchedLaneEngine:
    """N structurally identical fabrics stepped as flat NumPy state.

    All lanes share one ``NetworkConfig``, ``SimulationConfig`` and
    routing kind (the *structural key*); they differ in their per-lane
    traffic sources, fault schedules and router kinds (``router_kind`` is
    the kind of a lane whose spec leaves it open).

    ``observability`` (default: the process-wide configuration) adds to
    each result its metrics and its trace (one ``packet`` event per
    delivered packet), and to the last retired the engine's stage profile
    (once, so a merge counts it once).  A handed ``Observability`` is one
    run's: its registry takes the harvest and its tracer the events, so
    hand one only to a one-lane engine.
    """

    def __init__(
        self,
        config: NetworkConfig,
        sim_config: SimulationConfig,
        lanes: List[LaneSpec],
        router_kind: str = "baseline",
        routing_kind: str = "xy",
        *,
        keep_samples: bool = False,
        pending: Optional[Iterable[LaneSpec]] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        if not lanes:
            raise ValueError("need at least one lane")
        # a minimal route crosses at most this many routers, ejection included
        longest = config.width + config.height - 1
        if config.num_nodes - 1 > _DEST_MASK or longest > _HOP_MASK:
            raise ValueError(
                f"a {config.width}x{config.height} fabric does not fit the flit "
                f"word ({_DEST_MASK + 1} nodes, {_HOP_MASK} hops)"
            )
        if config.router.num_vcs > 15:  # only a 1x1 fabric, which carries nothing
            raise ValueError(
                f"{config.router.num_vcs} VCs per port do not fit the VA stage-1 "
                "pick tables (15 VCs, the most a router of a mesh has)"
            )
        self.config = config
        self.sim_config = sim_config
        self.lanes = list(lanes)
        self.keep_samples = keep_samples
        #: the kind of a lane whose spec names none
        self.router_kind = router_kind

        rc = config.router
        self.L = L = len(self.lanes)
        self.R = R = config.num_nodes
        self.P = P = rc.num_ports
        self.V = V = rc.num_vcs
        self.D = D = rc.buffer_depth
        self.NV = rc.num_vnets
        self.VV = rc.vcs_per_vnet
        self.PV = P * V
        self.RP = R * P  # port ids per lane
        self.RPV = R * P * V  # VC ids per lane
        self.k_D, self.k_V, self.k_P, self.k_PV, self.k_RPV = map(_k, (D, V, P, self.PV, self.RPV))
        self.k_rot = _k(rc.bypass_rotation_period)
        self.link_lat = config.link_latency
        self.cred_lat = config.credit_latency
        # calendar span — mirrors ``EventScheduler``: an event written at
        # cycle t with latency k lands in slot (t + k) % span, delivered
        # when the read pointer reaches that slot k cycles later
        self.span = max(self.link_lat, self.cred_lat) + 1
        self._inject_until = (
            sim_config.warmup_cycles + sim_config.measure_cycles
        )
        routing = make_routing(config, routing_kind)
        #: an adaptive function's second candidate (-1: none), as ``rtab``
        self.rtab2: Optional[np.ndarray] = None
        if routing.adaptive:
            cands = [routing.candidate_ports(n, d) for n in range(R) for d in range(R)]
            if max(map(len, cands)) > 2:
                raise ValueError(f"routing {routing_kind!r} offers more than two candidates")
            table: list = [c[0] for c in cands]
            self.rtab2 = np.array([c[1] if len(c) > 1 else -1 for c in cands], dtype=np.int32)
        else:
            table = routing.route_table()
        #: (first-choice) output port of ``(node, dest)`` at ``node * R + dest``
        self.rtab = np.array(table, dtype=np.int32).reshape(-1)

        #: (array, power-on value) of every per-lane state array: allocated
        #: through ``state`` below, restored slot by slot in ``_install_lane``
        self._power_on: List[Tuple[np.ndarray, object]] = []

        def state(
            shape: tuple, value: object, dtype: type, buf: Optional[np.ndarray] = None
        ) -> Tuple[np.ndarray, np.ndarray]:
            """One allocation (or ``buf``), two views: ``(lane, ...)`` and flat."""
            arr = np.empty((L, *shape), dtype) if buf is None else buf.reshape(L, *shape)
            arr[...] = value
            self._power_on.append((arr, value))
            return arr, arr.reshape(-1)

        # --- per-VC state, physical-slot indexed -----------------------
        shape4 = (R, P, V)
        self.st, self.st_ = state(shape4, _IDLE, np.int8)  # VCState
        self.route, self.route_ = state(shape4, -1, np.intp)  # output port id
        self.outvc, self.outvc_ = state(shape4, -1, np.intp)  # output VC id
        self.excl, self.excl_ = state(shape4, 0, np.int16)  # va_excluded bitmask
        # wire-id indirection: ``pwire[..., s]`` is the wire id of the VC
        # object in physical slot s; ``wdelta`` is the inverse permutation
        # as an offset: wire w of a port sits in slot ``w + wdelta[..., w]``
        self.pwire, self.pwire_ = state(shape4, np.arange(V), np.int8)
        self.wdelta, self.wdelta_ = state(shape4, 0, np.int8)

        # flit buffers: a ring of flit words per VC
        self.b_flit, self.b_flit_ = state((R, P, V, D), 0, np.int64)
        self.b_rows = self.b_flit_.reshape(-1, D)  # one buffer per VC id
        self.b_head, self.b_head_ = state(shape4, 0, np.intp)
        self.b_cnt, self.b_cnt_ = state(shape4, 0, np.int32)

        # output side: credits and downstream-VC ownership.  Router and NIC
        # credits (one per vnet: see the NIC boundary below) are two views
        # of one buffer, so a credit return is one id into ``credits``
        # whoever it is owed to (``credit_to``)
        shape_q = (R, self.NV)
        self.credits = np.empty(L * (self.RPV + R * self.NV), dtype=np.int32)
        self.cred, self.cred_ = state(shape4, D, np.int32, self.credits[: L * self.RPV])
        self.nic_cred, self.nic_cred_ = state(
            shape_q, D, np.int32, self.credits[L * self.RPV :]
        )
        self.cred_rows = self.cred.reshape(-1, V)  # one row per output port
        shape3 = (R, P)
        #: per output port, bit w set while downstream VC w is unallocated
        self.vfree, self.vfree_ = state(shape3, (1 << V) - 1, np.int64)
        # round-robin arbiter priority pointers; VA stage 1's holds a pointer
        # p as its row in the pick table, ``p << V``, in the least dtype
        # that holds every row (uint8 up to 5 VCs, uint32 at 13-15)
        va1 = np.min_scalar_type((V - 1) << V)
        self.va1_prio, self.va1_prio_ = state((R, P, V, P), 0, va1)
        self.va2_prio, self.va2_prio_ = state(shape4, 0, np.int8)
        self.sa1_prio, self.sa1_prio_ = state(shape3, 0, np.int8)
        self.sa2_prio, self.sa2_prio_ = state(shape3, 0, np.int32)

        # fault masks, one per protectable unit kind
        self.f_rc1, self.f_rc1_ = state(shape3, False, bool)
        self.f_rc2, self.f_rc2_ = state(shape3, False, bool)
        self.f_va1, self.f_va1_ = state(shape4, False, bool)
        self.f_va2, self.f_va2_ = state(shape4, False, bool)
        self.f_sa1, self.f_sa1_ = state(shape3, False, bool)
        self.f_sa1b, self.f_sa1b_ = state(shape3, False, bool)
        self.f_sa2, self.f_sa2_ = state(shape3, False, bool)
        self.f_xbm, _ = state(shape3, False, bool)
        self.f_xbs, _ = state(shape3, False, bool)
        # fast-path flags: phases skip fault branches entirely while no
        # installed lane has a fault of that kind (recounted at install
        # and whenever a site is injected or healed)
        self._have_rc = self._have_va1 = self._have_va2 = self._have_sa1 = False
        #: router kind as lane masks (see "Faults, heals and recovery")
        self.protected = np.zeros(L, dtype=bool)
        self.roco = np.zeros(L, dtype=bool)
        #: a roco lane's ``RoCoRouter.row_faults`` / ``col_faults``
        self.modules, _ = state((R, 2), 0, np.int64)

        # crossbar path plans per (lane, router, dest), fault-dependent
        self.plan_ok, self.plan_ok_ = state(shape3, True, bool)
        self.plan_arb, self.plan_arb_ = state(shape3, np.arange(P), np.int32)
        self.plan_sec, self.plan_sec_ = state(shape3, False, bool)

        # calendar events in flight, one ring per event kind indexed by
        # ``cycle % span``: flits/ejections are written ``link_latency``
        # slots ahead, credits ``credit_latency`` slots ahead.  Each slot
        # is a tuple of parallel 1-D arrays, the target ids first — ``(wire
        # VC id at the input port, word)``, ``(output VC id, word)``,
        # ``(credits index,)`` — or None: within one span window every
        # (slot, kind) pair is written by at most one cycle, and a cycle's
        # ejection credits join its XB's credit slot (their ids are disjoint)
        span = self.span
        _Ring = List[Optional[Tuple[np.ndarray, ...]]]
        self._ring_flit: _Ring = [None] * span
        self._ring_eject: _Ring = [None] * span
        self._ring_credit: _Ring = [None] * span
        #: the XB queue, a ring of one slot: this cycle's SA grants (at most
        #: one per input port) as ``(VC id, input port id, output port id,
        #: output VC id)``, traversed by the next cycle's XB phase
        self._xq: _Ring = [None]
        #: this cycle's link deliveries, written with the NIC's (``_nic_step``)
        self._arrived: Optional[Tuple[np.ndarray, ...]] = None
        self._rings = (self._ring_flit, self._ring_eject, self._ring_credit, self._xq)

        # --- the NIC boundary: packet tables and array NIC state --------
        # one table row per packet of a lane, sorted by (src, vnet) in
        # yield order; the row index is the packet id in the flit
        # buffers.  Columns grow together (see ``_install_lane``).
        self._bind_tables(np.zeros((10, L, 0), dtype=np.int32))
        self.t_n = np.zeros(L, dtype=np.int64)  # rows in use, per lane
        # A NIC source queue is a cursor into its (node, vnet) run of the
        # table: the head packet's row, the global cycle it entered the
        # queue (``_NEVER`` or later once the run is exhausted) and the
        # index of its next flit.  A vnet injects one packet at a time and
        # frees its wire VC on the tail, so the packet always gets the
        # vnet's first VC and "mid-injection, VC owned" is just ``q_flit >
        # 0``; credits are kept for that one VC per vnet.
        self.q_row, self.q_row_ = state(shape_q, 0, np.intp)
        self.q_due, self.q_due_ = state(shape_q, _NEVER, np.int64)  # global cycle
        self.q_flit, self.q_flit_ = state(shape_q, 0, np.int32)
        # vnet round-robin pointer
        self.nic_rr, self.nic_rr_ = state((R,), 0, np.intp)
        self._vcs = np.arange(V)
        #: downstream VC -> its bit in ``vfree`` and ``excl``
        self._bit = np.int64(1) << self._vcs
        #: wire id -> the bits of the downstream VCs of its vnet
        self._vnet_bits = ((1 << self.VV) - 1) << self._vcs // self.VV * self.VV
        # the pick tables: at ``bits * V + k`` the (k+1)-th set bit of
        # ``bits`` (V: none); at ``(p << V) + free bits`` the free VC w a
        # round-robin arbiter with pointer p grants, least (w - p) % V: p
        # plus the first set bit of the free bits rotated right by p
        bits = np.arange(1 << V)
        has = bits[:, None] >> self._vcs & 1
        kth = np.full((1 << V, V), V)
        row, w = has.nonzero()
        kth[row, has.cumsum(axis=1)[row, w] - 1] = w
        self._kth = kth.reshape(-1)
        p = self._vcs[:, None]
        rotated = (bits >> p | bits << (V - p)) & ((1 << V) - 1)
        self._first_free = ((p + kth[rotated, 0]) % V).reshape(-1)

        # --- counters and per-lane clocks ------------------------------
        #: ``RouterStats`` counters per ``(counter, lane, router)``: the
        #: recovery monitor watches single routers, a lane's result is the
        #: sum over its routers
        self.rstats = np.zeros((len(_RS_IDX), L, R), dtype=np.int64)
        #: one bound 1-D view per counter, indexed by node id
        self._counter = [row.reshape(-1) for row in self.rstats]
        #: node-id arrays the kernels queued per counter, not yet binned
        #: into ``rstats``: ``_queued`` steps of them (buffer writes are
        #: reduced at retirement instead)
        self._queue: List[List[np.ndarray]] = [[] for _ in _RS_IDX]
        self._queued = 0
        self._bin_every = max(1, _COUNT_QUEUE // (L * self.RP))
        self.fin, _ = state((), 0, np.int64)  # flits in network
        self.flits_ejected, _ = state((), 0, np.int64)
        #: packets of the lane's table whose tail has not entered the
        #: fabric yet; past the inject window this is the NIC backlog
        self.lane_left = np.zeros(L, dtype=np.int64)
        self.last_progress = np.zeros(L, dtype=np.int64)
        self.faults_injected = [0] * L
        self._act = np.zeros(L, dtype=bool)

        # --- static wiring, as per-lane tables over port ids ------------
        #: the id of a missing link: past the end of every state array, so
        #: following it raises ``IndexError`` in the next gather
        self.no_link = max(self.credits.size, *(arr.size for arr, _ in self._power_on))
        down_port = np.full((L, R, P), self.no_link, dtype=np.intp)
        for (node, port), (far, far_port) in Topology(config).links.items():
            down_port[:, node, port] = np.arange(L) * self.RP + far * P + far_port
        #: output port id -> the input port id its link feeds
        self.down_port = down_port.reshape(-1)
        ports = np.arange(L * self.RP)
        #: output port id -> the offset from its output VC ids to the wire-VC ids it feeds
        self.down_vc = (self.down_port - ports) * V
        #: wire-VC id at an input port -> the ``credits`` index its credit
        #: returns to: the output VC feeding the port (a mesh link has its
        #: reverse twin, so that output port is ``down_port`` of the input
        #: port's id), or behind a local port the NIC queue of the wire's vnet
        nodes = np.arange(L * R)
        credit_to = self.down_port[:, None] * V + self._vcs
        credit_to[self.down_port == self.no_link] = self.no_link
        credit_to[nodes * P + PORT_LOCAL] = (
            self.cred_.size + nodes[:, None] * self.NV + self._vcs // self.VV
        )
        self.credit_to = credit_to.reshape(-1)
        # the id algebra of the docstring as tables: a gather of a few
        # dozen ids costs a fraction of a ``//`` or ``%`` on them
        self.port_of = np.arange(L * self.RPV) // V  #: VC id -> port id
        self.node_of = ports // P  #: port id -> node id
        self.pidx_of = ports % P  #: port id -> its index within its router
        self.is_local = self.pidx_of == PORT_LOCAL  #: port id -> an ejection port
        self.vc0_of = ports * V  #: port id -> the VC id of its slot 0
        self.rtab0_of = ports // P % R * R  #: port id -> its router's ``rtab`` row
        self.lane_of = nodes // R  #: node id -> lane
        queues = np.arange(L * R * self.NV)
        self.q_node_of = queues // self.NV  #: NIC queue id -> node id
        self.q_vnet_of = queues % self.NV  #: NIC queue id -> vnet
        #: NIC queue id -> the first wire-VC id of its vnet at the local port
        self.q_vc_of = (self.q_node_of * P + PORT_LOCAL) * V + self.q_vnet_of * self.VV
        # round-robin successors, in the priority arrays' dtype, and
        # distances from a pointer: ``wrap[f - p]`` is ``(f - p) % size``
        self._next_v = ((self._vcs + 1) % V).astype(np.int8)
        self._next_va1 = self._next_v.astype(va1) << V
        self._next_p = ((np.arange(P) + 1) % P).astype(np.int32)
        self._next_pv = ((np.arange(self.PV) + 1) % self.PV).astype(np.int8)
        self._next_vnet = (np.arange(self.NV) + 1) % self.NV
        self._mod_d = np.arange(2 * self.D) % self.D
        self._next_d = self._mod_d[1:]  # a buffer head -> the next
        self._wrap = {n: np.tile(np.arange(n, dtype=np.int8), 2) for n in (V, P, self.PV, self.NV)}
        #: scratch of ``_rr_grant``: one cell per VC id, ``_FAR`` between uses
        self._least = np.full(L * self.RPV, _FAR, dtype=np.int8)
        #: VC state -> may lend its VA stage-1 arbiter set (IDLE or ACTIVE)
        self._lends = np.array([True, False, False, True])
        self.st_rows = self.st.reshape(-1, V)  # one row per port
        self.f_va1_rows = self.f_va1.reshape(-1, V)

        # --- lane refill / streaming point queue -----------------------
        # lanes run on local clocks: local cycle = global - off[lane];
        # a retiring lane's slot is refilled from ``pending`` and its
        # result decoded immediately, keyed by sweep point index
        self._pending: deque = deque(pending or ())
        #: ``id(source)`` -> [specs still to install, the source (so the id
        #: stays its own), its sorted table once compiled]: lanes holding
        #: one source share one draw, dropped with the last install
        self._streams: Dict[int, list] = {}
        for spec in (*self.lanes, *self._pending):
            kind = spec.router_kind or self.router_kind
            if kind not in LANE_KINDS:
                raise ValueError(f"lane router kind {kind!r} has no array model")
            self._streams.setdefault(id(spec.traffic), [0, spec.traffic, None])[0] += 1
        self.off = np.zeros(L, dtype=np.int64)
        self.lane_point = [0] * L
        self._next_point = 0
        self._results: List[Optional[SimulationResult]] = [None] * (
            L + len(self._pending)
        )
        # lane-occupancy accounting (active lane-cycles / lane-cycles)
        self.active_lane_cycles = 0
        self.total_lane_cycles = 0

        #: local cycle of each slot's next scheduled fault or heal
        #: (``_NEVER``: no schedule, exhausted, or retired)
        self._fault_due = np.full(L, _NEVER, dtype=np.int64)
        #: the global cycle of the earliest of them: nothing to poll before
        self._fault_at = 0
        #: lane -> the recovery monitor of a lane whose schedule keeps a
        #: ``recovery_log`` (the object engine's own class, fed
        #: ``_RouterView``s)
        self._monitors: Dict[int, RecoveryMonitor] = {}
        self._fault_arrays = {
            FaultUnit.RC_PRIMARY: self.f_rc1,
            FaultUnit.RC_DUPLICATE: self.f_rc2,
            FaultUnit.VA1_ARBITER_SET: self.f_va1,
            FaultUnit.VA2_ARBITER: self.f_va2,
            FaultUnit.SA1_ARBITER: self.f_sa1,
            FaultUnit.SA1_BYPASS: self.f_sa1b,
            FaultUnit.SA2_ARBITER: self.f_sa2,
            FaultUnit.XB_MUX: self.f_xbm,
            FaultUnit.XB_SECONDARY: self.f_xbs,
        }

        cfg = global_config() if observability is None else observability.config
        #: harvest each retiring lane's metrics and trace onto its result,
        #: into the handed run's own registry and tracer if there are any
        self._metrics = cfg.metrics
        self._registry = observability.metrics if observability is not None else None
        self._trace = cfg.trace
        self._trace_capacity = cfg.trace_capacity
        self._tracer = observability.tracer if observability is not None else None
        #: wall time per kernel, sampled every 16th global cycle; a profile
        #: asked for rides on the last point's export
        given = observability.profiler if observability is not None else None
        self.profiler = given if given is not None else StageProfiler()
        self._profile = cfg.profile
        #: seconds spent installing / retiring lanes and polling recovery
        #: monitors (every call timed)
        self.install_s = 0.0
        self.retire_s = 0.0
        self.poll_s = 0.0
        #: set by a kernel at each state write (see "Frozen stretches")
        self._wrote = False
        #: global cycles jumped over by ``_fast_forward``, never stepped
        self.skipped_cycles = 0

    # ------------------------------------------------------------------
    # fault injection and crossbar path plans
    # ------------------------------------------------------------------
    def _inject_lane_faults(self, cycle: int, local: np.ndarray) -> None:
        """Poll the schedules with an event due — ``next_cycle()`` is what
        the object engine's skip-ahead trusts, too.

        Mirrors ``NoCSimulator._inject_faults``: a schedule heals before
        it injects, and landings and heals are reported to the lane's
        recovery monitor here, before this cycle's kernels run.
        """
        if cycle < self._fault_at:
            return
        self._wrote = True
        for lane in (self._fault_due <= local).nonzero()[0].tolist():
            sched = cast(FaultSchedule, self.lanes[lane].fault_schedule)
            now = int(local[lane])
            mon = self._monitors.get(lane)
            for site in sched.heals_due(now):
                if self._set_site(lane, site, False) and mon is not None:
                    mon.fault_healed(_RouterView(self, lane, site.router), site, now)
            for site in sched.events_at(now):
                if self._set_site(lane, site, True):
                    self.faults_injected[lane] += 1
                    if mon is not None:
                        mon.fault_landed(_RouterView(self, lane, site.router), site, now)
            self._arm_faults(lane, sched)

    def _arm_faults(self, lane: int, sched: Optional[FaultSchedule]) -> None:
        nxt = sched.next_cycle() if sched is not None else None
        self._fault_due[lane] = _NEVER if nxt is None else nxt
        self._fault_at = int((self._fault_due + self.off).min())

    def _set_site(self, lane: int, site, faulty: bool) -> bool:
        """Mirror ``BaseRouter.inject_fault`` / ``heal_fault``: idempotent,
        the skip flags recounted and the path plans refreshed."""
        if self.roco[lane]:
            # ``RoCoRouter``: a landing is charged to its module, whose
            # counters are the dead ports' bits; a heal changes nothing
            if faulty:
                counts = self.modules[lane, site.router]
                counts[0 if charged_to_row(site.port, *counts) else 1] += 1
                dead = np.isin(np.arange(self.P), list(dead_ports(*counts)))
                self.f_rc1[lane, site.router] = self.f_xbm[lane, site.router] = dead
                self._recount_faults()
                self._recompute_plans(lane, site.router)
            return faulty
        arr = self._fault_arrays[site.unit]
        if site.vc >= 0:
            idx = (lane, site.router, site.port, site.vc)
        else:
            idx = (lane, site.router, site.port)
        if arr[idx] == faulty:
            return False
        arr[idx] = faulty
        self._recount_faults()
        if site.unit in (FaultUnit.XB_MUX, FaultUnit.XB_SECONDARY, FaultUnit.SA2_ARBITER):
            self._recompute_plans(lane, site.router)
        return True

    def _recount_faults(self) -> None:
        """The fault branches are skipped while no lane needs them; a VA2
        exclusion outlives its fault's heal, as ``va_excluded`` does."""
        self._have_rc = bool(self.f_rc1.any() or self.f_rc2.any())
        self._have_va1 = bool(self.f_va1.any())
        self._have_va2 = bool(self.f_va2.any() or self.excl.any())
        self._have_sa1 = bool(self.f_sa1.any() or self.f_sa1b.any())

    def _recompute_plans(self, lane: int, r: int) -> None:
        """Rebuild the per-dest path plans of one (lane, router) by
        ``carrier_port``, the rule ``Crossbar.plan_path`` reads too."""
        mux, sec, sa2 = (
            set(a[lane, r].nonzero()[0].tolist())
            for a in (self.f_xbm, self.f_xbs, self.f_sa2)
        )
        spare = bool(self.protected[lane])
        for k in range(self.P):
            port = carrier_port(k, self.P, mux, sec, sa2, spare)
            self.plan_ok[lane, r, k] = port is not None
            if port is not None:
                self.plan_arb[lane, r, k] = port
                self.plan_sec[lane, r, k] = port != k

    # ------------------------------------------------------------------
    # one vectorised cycle
    # ------------------------------------------------------------------
    def _bin(self, counter: int) -> None:
        """Add one counter's queued bumps to its row of ``rstats``."""
        queue = self._queue[counter]
        if queue:
            ids = queue[0] if len(queue) == 1 else np.concatenate(queue)
            self._counter[counter] += np.bincount(ids, minlength=self.L * self.R)
            queue.clear()

    def counts(self) -> np.ndarray:
        """``rstats`` with every queued bump binned in: what a lane's
        retirement and install go through, and any reader of all counters
        (a recovery monitor reads its few through ``_RouterView``)."""
        for counter, queue in enumerate(self._queue):
            if queue:
                self._bin(counter)
        self._queued = 0
        return self.rstats

    def _rr_grant(self, key: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Per distinct ``key`` (an arbiter), the index of the requester at
        the least round-robin distance ``dist`` from its arbiter's pointer —
        a ``RoundRobinArbiter``'s grant.  ``dist`` is distinct within a key:
        the least is scattered into a scratch cell per key and read back,
        no sort.  Winners come in the requesters' order."""
        least = self._least
        np.minimum.at(least, key, dist)
        win = (dist == least[key]).nonzero()[0]
        least[key] = _FAR
        return win

    def _xb_phase(self, cycle: int, local: np.ndarray) -> None:
        """Traverse last cycle's SA winners — mirrors ``BaseRouter.xb_phase``."""
        grants = self._xq[0]
        if grants is None:
            return
        self._xq[0] = None
        self._wrote = True
        vc, port, oport, out = grants
        h = self.b_head_[vc]
        word = self.b_flit_[vc * self.k_D + h] + _HOP
        self.b_head_[vc] = self._next_d[h]
        cnt = self.b_cnt_[vc] - _ONE
        self.b_cnt_[vc] = cnt
        self._queue[_I_TRAV].append(self.node_of[port])

        tail = (word & _F_TAIL).nonzero()[0]
        if tail.size:
            # release the downstream VC, then finish the packet: the slot
            # falls idle, or restarts routing on a head already queued
            # behind (RC, VA and the grant rewrite the rest of its fields)
            self.vfree_[oport[tail]] |= self._bit[out[tail] % self.k_V]
            self.st_[vc[tail]] = cnt[tail] > _ZERO  # _ROUTING (1), else _IDLE (0)

        # credit return toward whoever feeds this input port
        self._ring_credit[(cycle + self.cred_lat) % self.span] = (
            self.credit_to[self.vc0_of[port] + self.pwire_[vc]],
        )
        wf = (cycle + self.link_lat) % self.span
        to_nic = self.is_local[oport]
        eject = to_nic.nonzero()[0]
        if eject.size:
            self._ring_eject[wf] = (out[eject], word[eject])
            if eject.size == out.size:
                return
            rem = (~to_nic).nonzero()[0]
            oport, out, word = oport[rem], out[rem], word[rem]
        self._ring_flit[wf] = (out + self.down_vc[oport], word)

    def _move_slots(self, src: np.ndarray, to: np.ndarray) -> None:
        """Swap the active VC *objects* at slot ids src[i] with the idle,
        empty ones at to[i] (the ft_sa transfer): pipeline state, buffer and
        wire id (``pwire``) move, position-keyed state (arbiters, their
        priorities, fault flags) stays.  An idle, empty object has only its
        wire id to carry (RC, VA and the grant rewrite the rest before it is
        read; exclusions are 0 outside VA).  Each pair shares a port and no
        port appears twice, so fancy-index copies are exact."""
        for arr in (self.route_, self.outvc_, self.b_head_, self.b_cnt_, self.b_rows):
            arr[to] = arr[src]
        self.st_[to] = _ACTIVE
        self.st_[src] = _IDLE
        self.b_cnt_[src] = 0
        wire = self.pwire_[src]
        self.pwire_[src] = self.pwire_[to]
        self.pwire_[to] = wire
        base = self.vc0_of[self.port_of[src]]  # the pair's port
        for slot in (src, to):
            wire = base + self.pwire_[slot]
            self.wdelta_[wire] = slot - wire

    def _sa_phase(self, cycle: int, local: np.ndarray) -> None:
        """Switch allocation — mirrors ``SAUnit.allocate`` (+ ft_sa bypass)."""
        vc = (self.st_ == _ACTIVE).nonzero()[0]
        if vc.size == 0:
            return
        V = self.k_V
        oport = self.route_[vc]
        out = self.outvc_[vc]
        # one index keeps the candidates with a flit, a credit and a path;
        # what a winner needs of the rest is picked through it
        keep = (
            (self.b_cnt_[vc] > _ZERO) & (self.cred_[out] > _ZERO) & self.plan_ok_[oport]
        ).nonzero()[0]
        if keep.size == 0:
            return
        vc = vc[keep]
        port = self.port_of[vc]
        # stage 1: one winner per input port
        sc = vc % V
        win = self._rr_grant(port, self._wrap[self.V][sc - self.sa1_prio_[port]])
        fa = self.f_sa1_[port] if self._have_sa1 else None
        if fa is not None and np.count_nonzero(fa):
            # the candidates at ports whose arbiter is faulty, alone
            f = fa.nonzero()[0]
            fvc, fport, fsc = vc[f], port[f], sc[f]
            node = self.node_of[fport]
            lane = self.lane_of[node]
            # a baseline port has no bypass: it is dead with its arbiter
            dead = self.f_sa1b_[fport] | ~self.protected[lane]
            # bypass path: grant the rotation default (it runs on each
            # lane's local clock), or transfer the port's first
            # candidate into the default slot if that is idle and empty
            # (a default slot that requests is neither)
            bypass = ~dead
            if np.count_nonzero(bypass):
                self._wrote = True  # the rotation default moves with the clock
            default = local[lane] // self.k_rot % V
            hit = ((fsc == default) & bypass).nonzero()[0]
            healthy = ~fa[win]
            # each faulty port's first candidate (its stage-1 winner's port)
            starts = fport.searchsorted(port[win[~healthy]])
            self._queue[_I_SA_BLOCK].append(node[starts[dead[starts]]])
            move = starts[bypass[starts].nonzero()[0]]
            to = fvc[move] - fsc[move] + default[move]
            free = ((self.st_[to] == _IDLE) & (self.b_cnt_[to] == _ZERO)).nonzero()[0]
            if free.size:
                move = move[free]
                self._move_slots(fvc[move], to[free])
                self._queue[_I_VC_XFER].append(node[move])
            self._queue[_I_SA_BYPASS].append(node[hit])
            win = win[healthy]  # only the healthy ports' arbiters granted
            self.sa1_prio_[port[win]] = self._next_v[sc[win]]
            win = np.concatenate((win, f[hit]))
            if win.size == 0:
                return
        else:
            self.sa1_prio_[port[win]] = self._next_v[sc[win]]

        keep = keep[win]
        wport, woport = port[win], oport[keep]
        # stage 2: winners compete per *arbiter* port (secondary paths
        # borrow the neighbouring output's arbiter)
        wpin = self.pidx_of[wport]
        arb = wport - wpin + self.plan_arb_[woport]
        gi = self._rr_grant(arb, self._wrap[self.P][wpin - self.sa2_prio_[arb]])
        # (always a healthy one: the plans never name a faulty arbiter)
        self.sa2_prio_[arb[gi]] = self._next_p[wpin[gi]]

        self._wrote = True
        gport, gout = wport[gi], out[keep[gi]]
        self.cred_[gout] -= _ONE
        gnode = self.node_of[gport]
        self._queue[_I_SA_GRANT].append(gnode)
        goport = woport[gi]
        sec = self.plan_sec_[goport].nonzero()[0]
        if sec.size:
            self._queue[_I_SEC].append(gnode[sec])
        self._xq[0] = (vc[win[gi]], gport, goport, gout)

    def _borrow_arbiters(self, vc: np.ndarray, fa: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Stage-1 arbiter borrowing — mirrors ``ArbiterSharingVAUnit._stage1_arbiters``.

        A VC whose own arbiter set is faulty borrows the first sibling slot
        with a healthy set, IDLE or ACTIVE this cycle, not lent yet; nobody
        lends in a baseline router.  A port's borrowers (its faulty waiting
        slots) scan in slot order, so the k-th takes the port's k-th lender,
        or waits.  Returns the keep-mask and per-requester owner VC id (the
        priority rows used)."""
        keep = ~fa | self.protected[vc // self.k_RPV]
        if not keep.all():
            self._queue[_I_VA_BLOCK].append(vc[~keep] // self.k_PV)
        owner = vc.copy()
        b = (fa & keep).nonzero()[0]
        bv = vc[b]
        port = self.port_of[bv]  # sorted: k is the borrower's rank in its port
        k = np.arange(b.size) - port.searchsorted(port)
        lends = self._lends[self.st_rows[port]] & ~self.f_va1_rows[port]
        lender = self._kth[(lends @ self._bit) * self.k_V + k]
        slot = bv - self.vc0_of[port]
        wait = (lender == self.k_V).nonzero()[0]
        if wait.size:
            node = self.node_of[port[wait]]
            self._queue[_I_VA_BORROW_WAIT].append(node)
            self._queue[_I_VA_BLOCK].append(node)
            keep[b[wait]] = False
        owner[b] += lender - slot
        return keep, owner

    def _va_phase(self, cycle: int, local: np.ndarray) -> None:
        """VC allocation — mirrors ``VAUnit.allocate`` (+ ft_va borrowing)."""
        vc = (self.st_ == _WAITING_VA).nonzero()[0]
        if vc.size == 0:
            return
        owner = vc  # whose stage-1 arbiter set each requester uses
        borrowed = False
        if self._have_va1:
            fa = self.f_va1_[vc]
            if np.count_nonzero(fa):
                keep, owner = self._borrow_arbiters(vc, fa)
                borrowed = True
                vc, owner = vc[keep], owner[keep]
                if vc.size == 0:
                    return
        oport = self.route_[vc]
        # the free downstream VCs of the requester's vnet, as bits (the
        # *wire id* of the slot object decides the vnet, not its position)
        free = self.vfree_[oport] & self._vnet_bits[self.pwire_[vc]]
        if self._have_va2:
            ex = self.excl_[vc]
            if np.count_nonzero(ex):
                free &= ~ex
        keep = free.nonzero()[0]
        if keep.size < vc.size:
            self._queue[_I_VA_NOFREE].append(self.node_of[oport[free == 0]])
            if keep.size == 0:
                return
            vc, owner, oport, free = vc[keep], owner[keep], oport[keep], free[keep]
        # stage 1 pick: the owner slot's per-output round-robin row
        row = owner * self.k_P + self.pidx_of[oport]
        ptr = self.va1_prio_[row]
        choice = self._first_free[ptr + free]
        nxt = self._next_va1[choice]
        self.va1_prio_[row] = nxt

        # stage 2: proposals compete per output VC (output port, downstream VC)
        out = self.vc0_of[oport] + choice
        req = vc % self.k_PV  # requester index within its router
        win = self._rr_grant(out, self._wrap[self.PV][req - self.va2_prio_[out]])
        if self._have_va2:
            lost = self.f_va2_[out]
            if np.count_nonzero(lost):
                retry = vc[lost]
                self._queue[_I_VA2_RETRY].append(self.node_of[oport[lost]])
                # a protected router records the exclusion, so that the
                # retry picks elsewhere
                prot = self.protected[retry // self.k_RPV]
                if np.count_nonzero(prot):
                    self._wrote = True
                    self.excl_[retry[prot]] |= self._bit[choice[lost][prot]]
                win = win[~lost[win]]
                if win.size == 0:
                    # no grant: the stage-1 pointers are the only write,
                    # and a converged one rewrites its own value
                    if not np.array_equal(ptr, nxt):
                        self._wrote = True
                    return
        self._wrote = True
        gvc, goport, gout = vc[win], oport[win], out[win]
        self.va2_prio_[gout] = self._next_pv[req[win]]
        self.outvc_[gvc] = gout
        self.st_[gvc] = _ACTIVE
        if self._have_va2:  # no exclusion is recorded otherwise
            self.excl_[gvc] = 0
        # the grants take their downstream VCs' bits (set, and distinct
        # within a port: a subtraction clears them, several of one port too)
        np.subtract.at(self.vfree_, goport, self._bit[choice[win]])
        gnode = self.node_of[goport]
        self._queue[_I_VA_GRANT].append(gnode)
        if borrowed:
            bm = (owner[win] != gvc).nonzero()[0]
            if bm.size:
                self._queue[_I_VA_BORROWED].append(gnode[bm])

    def _route_key(self, oport: np.ndarray) -> np.ndarray:
        """A candidate output port's ``(not secondary, credits)`` key as one
        integer, 0 for a port without a crossbar plan (never selected)."""
        credits = self.cred_rows[oport].sum(axis=1)
        primary = ~self.plan_sec_[oport] * (self.V * self.D + 1)  # > any credit sum
        return self.plan_ok_[oport] * (1 + credits + primary)

    def _rc_phase(self, cycle: int, local: np.ndarray) -> None:
        """Route computation — mirrors ``RCUnit``/``DuplicatedRCUnit``."""
        vc = (self.st_ == _ROUTING).nonzero()[0]
        if vc.size == 0:
            return
        port = self.port_of[vc]
        if self._have_rc:
            f1 = self.f_rc1_[port]
            if np.count_nonzero(f1):
                # a baseline port has no duplicate unit to fall back on
                node = self.node_of[port]
                blocked = f1 & (self.f_rc2_[port] | ~self.protected[self.lane_of[node]])
                self._queue[_I_RC_DUP].append(node[f1 & ~blocked])
                keep = (~blocked).nonzero()[0]
                if keep.size < vc.size:
                    self._queue[_I_RC_BLOCK].append(node[blocked])
                    if keep.size == 0:
                        return
                    vc, port = vc[keep], port[keep]
        dest = self.b_flit_[vc * self.k_D + self.b_head_[vc]] >> _DEST_SHIFT & _DEST_MASK
        at = self.rtab0_of[port] + dest
        port0 = port - self.pidx_of[port]
        out = port0 + self.rtab[at]  # the output port id
        if self.rtab2 is not None:
            # ``RCUnit.select_route``: the second candidate wins on a
            # strictly greater key only, so ties and no path at all stay first
            alt = self.rtab2[at]
            two = (alt >= 0).nonzero()[0]
            if two.size:
                alt = port0[two] + alt[two]
                swap = (self._route_key(alt) > self._route_key(out[two])).nonzero()[0]
                out[two[swap]] = alt[swap]
        pok = self.plan_ok_[out]
        keep = pok.nonzero()[0]
        if keep.size < vc.size:
            self._queue[_I_UNREACH].append(self.node_of[port[~pok]])
            if keep.size == 0:
                return
            vc, out = vc[keep], out[keep]
        self._wrote = True
        self.route_[vc] = out
        self.st_[vc] = _WAITING_VA

    # ------------------------------------------------------------------
    # event delivery and the NIC boundary
    # ------------------------------------------------------------------
    def _dispatch(self, cycle: int, local: np.ndarray) -> None:
        """Deliver this slot's events — mirrors ``EventScheduler.dispatch``."""
        s = cycle % self.span
        ev = self._arrived = self._ring_flit[s]  # written with the NIC's flits
        if ev is not None:
            self._wrote = True
            self._ring_flit[s] = None
            self.last_progress[ev[0] // self.k_RPV] = cycle  # a lane that moved
        ev = self._ring_eject[s]
        if ev is not None:
            self._wrote = True
            self._ring_eject[s] = None
            out, word = ev
            # the NIC sinks the flit at once: credit back, and a tail
            # completes its packet's table row
            lane = out // self.k_RPV
            count = np.bincount(lane, minlength=self.L)
            self.fin -= count
            self.flits_ejected += count
            self.last_progress[lane] = cycle
            # credits back to the local output VCs, in the slot the XB's
            # credits of this cycle went to
            c = (cycle + self.cred_lat) % self.span
            xb = self._ring_credit[c]
            self._ring_credit[c] = (out,) if xb is None else (np.concatenate((xb[0], out)),)
            tail = (word & _F_TAIL).nonzero()[0]
            if tail.size:
                tl, word = lane[tail], word[tail]
                rows = tl * self.k_cap + (word >> _PID_SHIFT)
                self.t_ej_[rows] = local[tl]
                self.t_hops_[rows] = word >> _HOP_SHIFT & _HOP_MASK
        ev = self._ring_credit[s]
        if ev is not None:
            self._wrote = True
            self._ring_credit[s] = None
            self.credits[ev[0]] += _ONE

    def _buffer_write(self, tgt: np.ndarray, word: np.ndarray) -> None:
        """Append one flit word per distinct wire-VC id ``port * V + wire``.

        Mirrors ``BaseRouter.receive_flit``: an idle slot starts routing
        its new head (RC, VA and the grant write the rest of its fields).
        One call a cycle writes the link deliveries and the NIC injections
        together (one flit per link, one per NIC: targets never repeat, so
        a plain fancy-index scatter is exact).  Uncounted: ``_retire``
        reduces a lane's writes by conservation.
        """
        vc = tgt + self.wdelta_[tgt]
        cnt = self.b_cnt_[vc]
        self.b_flit_[vc * self.k_D + self._mod_d[self.b_head_[vc] + cnt]] = word
        self.b_cnt_[vc] = cnt + _ONE
        # every state but idle is above routing
        self.st_[vc] = np.maximum(self.st_[vc], _ROUTING)

    def _nic_step(self, cycle: int, local: np.ndarray) -> None:
        """Inject up to one flit per NIC — mirrors ``NetworkInterface.step``.

        A vnet can inject when its queue head has entered the queue and
        its VC holds a credit; each NIC with such a vnet sends one flit
        from the first one in round-robin order (the local link is one
        flit wide) and moves its pointer past it.  The object NIC's
        packet *start* (VC allocation) has no effect of its own — the VC
        is always free, the head flit is what gets counted — so a packet
        simply starts with its head flit.  The flits go into the buffers
        with this cycle's link deliveries, in one ``_buffer_write``.
        """
        arrived, self._arrived = self._arrived, None
        can = self.q_due_ <= cycle
        can &= self.nic_cred_ > _ZERO
        q = can.nonzero()[0]
        if q.size == 0:
            if arrived is not None:
                self._buffer_write(*arrived)
            return
        self._wrote = True
        # the first vnet that can inject, scanning from the NIC's
        # round-robin pointer: a round-robin arbiter's grant
        node = self.q_node_of[q]
        v = self.q_vnet_of[q]
        win = self._rr_grant(node, self._wrap[self.NV][v - self.nic_rr_[node]])
        q, node, v = q[win], node[win], v[win]
        l = self.lane_of[node]
        row = self.q_row_[q]
        trow = l * self.k_cap + row
        flit = self.q_flit_[q]
        head = flit == _ZERO
        flit += _ONE
        tail = flit == self.t_size_[trow]
        self.nic_cred_[q] -= _ONE
        self.nic_rr_[node] = self._next_vnet[v]
        hd = head.nonzero()[0]
        self.t_inj_[trow[hd]] = local[l[hd]]
        # a tail moves the cursor on: the next packet of the run, if any
        tl = tail.nonzero()[0]
        if tl.size:
            flit[tl] = 0
            tq, tt = q[tl], trow[tl]
            self.q_row_[tq] = row[tl] + 1
            self.q_due_[tq] = self.t_next_[tt] + self.off[l[tl]]
            self.lane_left -= np.bincount(l[tl], minlength=self.L)
        self.q_flit_[q] = flit
        # the row id is int64: adding the table's int32 destination widens it
        word = ((row << _ROW_SHIFT) + self.t_dest_[trow]) << _DEST_SHIFT
        word += head * _F_HEAD + tail * _F_TAIL
        self.fin += np.bincount(l, minlength=self.L)
        tgt = self.q_vc_of[q]
        if arrived is not None:
            tgt, word = np.concatenate((arrived[0], tgt)), np.concatenate((arrived[1], word))
        self._buffer_write(tgt, word)

    # ------------------------------------------------------------------
    # run loop: shared cycle counter, independent lane retirement
    # ------------------------------------------------------------------
    #: the cycle as one ordered stage table — the reference stepper's
    #: phase order, named as the object engine's profiler names them;
    #: every kernel takes ``(cycle, local)``
    _STAGES = tuple(zip(STAGE_NAMES, (
        _inject_lane_faults, _xb_phase, _sa_phase, _va_phase, _rc_phase,
        _dispatch, _nic_step,
    )))

    def _step(self, cycle: int, local: np.ndarray) -> None:
        """One cycle for every active lane — mirrors ``NoCSimulator._step``.

        ``local`` is every lane's own clock (``cycle - off``): packets
        enter the NIC queues and are stamped against it, so lanes
        installed mid-run warm up and drain on their own clocks.  Sampled
        cycles time each kernel (seven ``perf_counter`` pairs every 16th
        cycle: under 0.01 % of a step, so there is no switch), and every
        ``_bin_every``-th step bins the counter queue.  Recovery watches
        are polled after the last kernel, as the object engine polls at
        end of cycle, so same-cycle mechanism activity counts.
        """
        self._wrote = False
        prof = self.profiler
        if prof.should_sample(cycle):
            for name, kernel in self._STAGES:
                t = perf_counter()
                kernel(self, cycle, local)
                prof.record(name, perf_counter() - t)
            prof.cycle_done()
        else:
            for _, kernel in self._STAGES:
                kernel(self, cycle, local)
        self._queued += 1
        if self._queued == self._bin_every:
            self.counts()
        if self._monitors:
            t = perf_counter()
            for lane, mon in self._monitors.items():
                if mon.open_watches:
                    mon.poll(int(local[lane]))
            self.poll_s += perf_counter() - t

    def run(
        self, on_result: Optional[Callable[[int, SimulationResult], None]] = None
    ) -> List[SimulationResult]:
        """Run every point to completion; results in point order.

        Lanes share the global cycle counter but run on their own local
        clocks: each blocks, drains and retires exactly where its serial
        run would (watchdog trips freeze a lane mid-flight; the drain
        predicate — no flits in the network, no packets left to inject —
        retires it cleanly).  Freed slots are refilled from the pending
        queue until the whole point stream has run.  ``on_result(point,
        result)`` is handed each result as its lane retires.
        """
        self._on_result = on_result
        sc = self.sim_config
        wd = sc.watchdog_cycles
        inject_until = self._inject_until
        horizon = inject_until + sc.drain_cycles
        for lane, spec in enumerate(self.lanes):
            self._install_lane(lane, spec, 0)
        act = self._act
        cycle = check_at = live = 0
        #: ``counts()`` after a quiet step, while the next may repeat it
        armed: Optional[np.ndarray] = None
        while True:
            local = cycle - self.off
            # retirement as array predicates, in serial check order:
            # watchdog first (it is evaluated before the loop predicates
            # in ``NoCSimulator.run``), then the drain predicate /
            # deadline; only lanes that do retire drop to Python.  None can
            # before its inject window ends or its watchdog could trip
            if cycle >= check_at:
                stalled = cycle - self.last_progress > wd
                check = (stalled | (local >= inject_until)) & act
                if check.any():
                    blocked = check & stalled & (self.fin > 0)
                    over = check & ~blocked & (local >= inject_until)
                    drained = over & (self.fin == 0) & (self.lane_left == 0)
                    retiring = (blocked | drained | (over & (local >= horizon))).nonzero()[0]
                    for lane in retiring.tolist():
                        self._retire(
                            lane, cycle, bool(blocked[lane]), bool(drained[lane])
                        )
                    if not act.any():
                        break
                    if retiring.size:
                        armed = None
                    local = cycle - self.off
                live = int(np.count_nonzero(act))
                check_at = int(np.minimum(
                    self.off + inject_until, self.last_progress + (wd + 1)
                )[act].min())
            self.active_lane_cycles += live
            self.total_lane_cycles += self.L
            self._step(cycle, local)
            cycle += 1
            if not self._quiet():
                armed = None
            elif armed is None:
                armed = self.counts().copy()
            else:
                cycle = self._fast_forward(cycle, armed, live)
                armed = None
        return cast(List[SimulationResult], list(self._results))

    def _quiet(self) -> bool:
        """The step just run wrote no state and left no event in flight:
        every state array is as it was before it."""
        return not self._wrote and all(ev is None for ring in self._rings for ev in ring)

    def _fast_forward(self, cycle: int, before: np.ndarray, live: int) -> int:
        """Jump from ``cycle`` to the next wake after two quiet steps.

        The step before ``cycle`` changed no state, and neither did the one
        before it, with no retirement between them: every step until
        something outside the state moves repeats it exactly.  Those are a
        fault landing or heal, a NIC queue entry that finds a credit, a
        lane's inject window or drain horizon ending, and a watchdog
        deadline.  The skipped steps add what the last one counted
        (``counts()`` now less ``before``, taken after the first quiet
        step) and their lane-cycles; a recovery monitor polled over them
        would see counters move only where it already resolved its watch.
        Returns the cycle to step next.
        """
        sc = self.sim_config
        until = self._inject_until
        # the retirement check's deadlines still ahead (one already passed
        # is decided by the frozen state alone)
        ends = np.stack((
            self.off + until,
            self.off + (until + sc.drain_cycles),
            self.last_progress + (sc.watchdog_cycles + 1),
        ))[:, self._act]
        wake = min(
            self._fault_at,
            int(ends.min(initial=_NEVER, where=ends >= cycle)),
            int(self.q_due.min(initial=_NEVER, where=self.nic_cred > 0)),
        )
        skip = wake - cycle
        if skip <= 0:
            return cycle
        rstats = self.counts()
        rstats += (rstats - before) * skip
        self.active_lane_cycles += live * skip
        self.total_lane_cycles += self.L * skip
        self.skipped_cycles += skip
        return wake

    @property
    def lane_occupancy(self) -> float:
        """Fraction of lane slots active, averaged over the cycles run."""
        if self.total_lane_cycles == 0:
            return 1.0
        return self.active_lane_cycles / self.total_lane_cycles

    @property
    def stage_profile(self) -> dict:
        """Where the host time went: ``StageProfiler.snapshot()`` of the
        seven kernels (sampled: scale ``time_s`` by ``sample_every`` to
        compare with a run) plus ``install_s`` / ``retire_s`` / ``poll_s``,
        the seconds of every lane install, retirement and recovery poll,
        and ``skipped_cycles``, the global cycles fast-forwarded over."""
        return {
            **self.profiler.snapshot(),
            "install_s": self.install_s,
            "retire_s": self.retire_s,
            "poll_s": self.poll_s,
            "skipped_cycles": self.skipped_cycles,
        }

    def _retire(self, lane: int, cycle: int, blocked: bool, drained: bool) -> None:
        """Reduce one finished lane's table to its result, refill its slot,
        hand the result over."""
        t0 = perf_counter()
        local = cycle - int(self.off[lane])
        # clear the slot now — no requester, nothing queued for the XB,
        # nothing due at a NIC or from the schedule, nothing in flight —
        # so that no kernel has to ask whether a lane is live
        self._act[lane] = False
        self.st[lane] = _IDLE
        self.q_due[lane] = _NEVER
        self._arm_faults(lane, None)
        self._purge_lane_events(lane)
        n = int(self.t_n[lane])
        stats = NetworkStats(keep_samples=self.keep_samples)
        sc = self.sim_config
        stats.set_window(sc.warmup_cycles, sc.warmup_cycles + sc.measure_cycles)
        ejected = int(self.flits_ejected[lane])
        stats.flits_ejected = ejected
        stats.flits_injected = ejected + int(self.fin[lane])
        # the source was drawn ahead; it *created* what a per-cycle run
        # would have asked for by the cycle the lane stopped at
        stats.packets_created = int(
            np.count_nonzero(self.t_cycle[lane, :n] < local)
        )
        stats.packets_injected = int(np.count_nonzero(self.t_inj[lane, :n] >= 0))
        ej = self.t_ej[lane, :n]
        done = (ej >= 0).nonzero()[0]
        # ejection order: by cycle, then by node (a node sinks one flit
        # per cycle and the XB phase visits routers in node order)
        dest = self.t_dest[lane, :n]
        done = done[np.lexsort((dest[done], ej[done]))]
        packets = [done] + [  # a sample's id is its table row
            column[lane, done] for column in (
                self.t_src, self.t_dest, self.t_vnet, self.t_size,
                self.t_creation, self.t_inj, self.t_ej, self.t_hops,
            )
        ]
        stats.record_packets(packets)
        mon = self._monitors.pop(lane, None)
        if mon is not None:
            mon.finalize()
        counts = self.counts()[:, lane]
        # every write is one traversal or a flit still buffered (a flit on
        # a link has traversed and is not written yet)
        counts[_I_BUFW, 0] = counts[_I_TRAV].sum() + self.b_cnt[lane].sum()
        export: Optional[dict] = None
        if self._metrics or self._trace:
            export = {"metrics": None, "trace": None, "profile": None}
            if self._metrics:
                metrics = self._registry if self._registry is not None else MetricsRegistry()
                harvest(metrics, counts, stats, local, self.faults_injected[lane])
                export["metrics"] = metrics.snapshot()
            if self._trace:
                tracer = self._tracer if self._tracer is not None else EventTracer(
                    self._trace_capacity
                )
                tracer.extend(packet_events(packets, tracer.capacity), len(done))
                export["trace"] = tracer.snapshot()
        point = self.lane_point[lane]
        result = self._results[point] = SimulationResult(
            stats=stats,
            cycles=local,
            blocked=blocked,
            drained=drained,
            router_stats=RouterStats(*counts.sum(axis=1).tolist()),
            faults_injected=self.faults_injected[lane],
            observability=export,
            recovery=None if mon is None else mon.summary(),
        )
        self.retire_s += perf_counter() - t0
        if self._pending:
            spec = self._pending.popleft()
            self.lanes[lane] = spec
            self._install_lane(lane, spec, cycle)
        elif self._profile and not self._act.any():  # the engine's last point
            result.observability = {
                **(export or {"metrics": None, "trace": None}),
                "profile": self.profiler.snapshot(),
            }
        if self._on_result is not None:
            self._on_result(point, result)

    def _bind_tables(self, tables: np.ndarray) -> None:
        """Name the columns of the ``(column, lane, row)`` table block.

        Called again whenever the block grows: the flat column views and
        ``cap`` (rows per lane, the stride of a ``lane * cap + row`` id)
        must never outlive the block they were taken from.
        """
        (
            self.t_cycle, self.t_creation, self.t_src, self.t_dest, self.t_vnet,
            self.t_size, self.t_next, self.t_inj, self.t_ej, self.t_hops,
        ) = self._tables = tables
        self.cap = tables.shape[2]
        self.k_cap = _k(self.cap)
        if self.cap > _MAX_ROWS:
            raise ValueError(f"{self.cap} table rows do not fit the flit word")
        (
            _, _, _, self.t_dest_, _, self.t_size_, self.t_next_,
            self.t_inj_, self.t_ej_, self.t_hops_,
        ) = tables.reshape(len(tables), -1)  # (column, lane * cap + row)

    def _install_lane(self, lane: int, spec: LaneSpec, cycle: int) -> None:
        """Start a point in a lane slot, on a local clock of 0 at ``cycle``.

        Every per-lane array slice returns to its power-on value (the
        old occupant's in-flight events went at its retirement), so a
        refilled lane is bit-identical to the same point run in a fresh
        fabric.  The point's traffic source is compiled to the lane's
        packet table for its whole inject window, once per source.
        """
        t0 = perf_counter()
        for arr, value in self._power_on:
            arr[lane] = value
        self.counts()[:, lane] = 0
        self._recount_faults()
        kind = spec.router_kind or self.router_kind
        self.protected[lane] = kind == "protected"
        self.roco[lane] = kind == "roco"
        if getattr(spec.fault_schedule, "recovery_log", False):
            self._monitors[lane] = RecoveryMonitor()

        stream = self._streams[id(spec.traffic)]
        stream[0] -= 1
        if stream[2] is None:
            stream[2] = self._sorted_table(spec.traffic)
        if stream[0] == 0:
            del self._streams[id(spec.traffic)]
        columns, run = stream[2]
        n = columns.shape[1]
        if n > self.cap:
            # some headroom: points of one sweep differ by tens of per cent
            grown = np.zeros((len(self._tables), self.L, n + n // 4), dtype=np.int32)
            grown[:, :, : self.cap] = self._tables
            self._bind_tables(grown)
        # cycle, creation, src, dest, vnet, size; then in ``t_next`` the
        # queue entry cycle of each row's successor (none after a run's last)
        self._tables[:6, lane, :n] = columns
        self.t_inj[lane, :n] = -1
        self.t_ej[lane, :n] = -1
        self.t_n[lane] = n
        last = np.cumsum(run) - 1
        head = last - run + 1
        self.t_next[lane, :n][:-1] = columns[0, 1:]
        self.t_next[lane, last[run > 0]] = _NEVER
        self.q_row[lane] = head.reshape(self.R, self.NV)
        self.q_due[lane].flat[run > 0] = columns[0, head[run > 0]] + cycle

        self.lane_left[lane] = n
        self.last_progress[lane] = cycle
        self.faults_injected[lane] = 0
        self.off[lane] = cycle
        self.lane_point[lane] = self._next_point
        self._next_point += 1
        self._arm_faults(lane, spec.fault_schedule)
        self._act[lane] = True
        self.install_s += perf_counter() - t0

    def _sorted_table(self, source: TrafficSource) -> Tuple[np.ndarray, np.ndarray]:
        """A source's inject window as table columns, and rows per queue.

        Rows are sorted by (src, vnet), yield order within: every NIC
        source queue is one contiguous run.
        """
        table = compile_table(source, self._inject_until, self.config)
        queue = table.src * self.NV + table.vnet
        order = np.argsort(queue, kind="stable")
        columns = np.array(
            [table.cycle, table.creation, table.src, table.dest, table.vnet, table.size],
            dtype=np.int32,
        )[:, order]
        return columns, np.bincount(queue, minlength=self.R * self.NV)

    def _purge_lane_events(self, lane: int) -> None:
        """Drop a retiring lane's in-flight events from every ring.

        A watchdog-blocked lane retires with flits still on the wire;
        without the purge they would be delivered into the dead slot, or
        into its next occupant.
        """
        for ring in self._rings:
            for i, ev in enumerate(ring):
                if ev is None:
                    continue
                keep = (self._lane_of_id(ev[0]) != lane).nonzero()[0]
                if keep.size < ev[0].size:
                    ring[i] = tuple(a[keep] for a in ev) if keep.size else None

    def _lane_of_id(self, ids: np.ndarray) -> np.ndarray:
        """The lane of VC ids and ``credits`` indices alike: past the VC
        ids (the router credits) come ``R * NV`` NIC credits per lane."""
        vcs = self.cred_.size
        return np.where(ids < vcs, ids // self.RPV, (ids - vcs) // (self.R * self.NV))


class _RouterView:
    """One ``(lane, router)`` as ``RecoveryMonitor`` reads a router:
    ``stats.<counter>`` is its column of the counter matrix,
    ``buffered_flits()`` its buffer occupancy — views of the live arrays,
    so a poll sees what the kernels counted this cycle (``buffer_writes``
    excepted: a lane's total is reduced at its retirement)."""

    def __init__(self, engine: BatchedLaneEngine, lane: int, router: int) -> None:
        self._engine = engine
        self._counts = engine.rstats[:, lane, router]
        self._occupancy = engine.b_cnt[lane, router]

    stats = property(lambda self: self)  # not stored: a view is freed by refcount

    def _read(self, counter: int) -> int:
        self._engine._bin(counter)  # what this cycle queued for it, too
        return int(self._counts[counter])

    def buffered_flits(self) -> int:
        return int(self._occupancy.sum())


for _name, _i in _RS_IDX.items():
    if _name != "buffer_writes":
        setattr(_RouterView, _name, property(lambda self, i=_i: self._read(i)))


def run_lanes(
    config: NetworkConfig,
    sim_config: SimulationConfig,
    lanes: List[LaneSpec],
    router_factory: Optional[RouterFactory] = None,
    routing_kind: str = "xy",
    *,
    keep_samples: bool = False,
    width: Optional[int] = None,
) -> List[SimulationResult]:
    """Run a group of lanes through the batched engine (convenience).

    A lane whose spec names no kind takes the kind of the routers
    ``router_factory`` builds (:func:`lane_kind`; no factory: baseline);
    a factory of routers no lane models is a ``ValueError``.  ``width``
    caps the number of concurrent lane slots; the rest of the points
    stream in through lane refill as slots free up.
    """
    kind: Optional[str] = "baseline"
    if router_factory is not None:
        routing = make_routing(config, routing_kind)
        routers = [router_factory(node, routing) for node in range(config.num_nodes)]
        kind = lane_kind(routers)
        if kind is None:
            names = ", ".join(sorted({type(r).__name__ for r in routers}))
            raise ValueError(f"no lane kind models a fabric of {names}")
    w = len(lanes) if width is None else max(1, min(width, len(lanes)))
    return BatchedLaneEngine(
        config, sim_config, lanes[:w], kind, routing_kind,
        keep_samples=keep_samples, pending=lanes[w:],
    ).run()
