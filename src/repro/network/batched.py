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
with the per-cycle call sequence, the schedule polled on the cycles its
``next_cycle()`` names — so RNG streams and fault arrival order are
identical by construction.  Finished lanes decode back into ordinary
:class:`NetworkStats`/:class:`RouterStats` objects;
``tests/test_golden_determinism.py`` pins them byte-identical to the
event engine per lane.

Lane refill
-----------
Lanes run on *local clocks*: every lane slot carries a start offset and
all cycle-dependent state (traffic generation, fault arrival, bypass
rotation, latency timestamps, inject/drain windows) is computed against
``cycle - off[lane]``.  When a lane retires, its result is decoded
immediately and the next pending structurally-identical point is
installed in the freed slot — the array form of a router's power-on
``reset()``: every per-lane array slice returns to its power-on value.
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
same property the event engine's active sets give a single fabric.
Every ``(lane, router, port, slot)`` has one flat id::

    vc   = ((lane * R + router) * P + port) * V + slot
    port = vc // V      node = vc // (P * V)      lane = vc // (R * P * V)

and the rest is the same algebra: output VC ``(node, o, w)`` is
``(node * P + o) * V + w``, a buffer cell ``vc * D + pos``, a ``va1_prio``
row ``(port * V + owner) * P + route``, a NIC queue ``node * NV + vnet``,
a packet-table row ``lane * cap + row``.  Each state array is allocated
once and seen two ways: n-d (``self.st``) by the scalar fault paths, lane
install and retirement, and as a 1-D ``reshape(-1)`` view of the same
memory (``self.st_``, the trailing underscore) by the seven per-cycle
kernels, which take one ``np.flatnonzero(mask)`` per phase (C order: the
order the serial loops visit requesters in) and one index array per
gather or scatter.  The wiring is two per-lane id tables, ``down_port``
(output port id -> the input port id its link feeds) and ``up_out_port``
(input port id -> the output port id feeding it), so a hop or a credit
return is one gather; a port without a link holds an id past the end of
every state array, so a flit routed off the mesh raises ``IndexError``
at its next gather instead of wrapping onto another router.  Within one
cycle all same-stage arbiters are independent (each grant touches a
distinct (router, arbiter) pair — see the allocator docstrings), so a
masked segment-argmin implements the rotating-priority grant for every
group at once.

A flit is one ``int64`` word — flag bits 0-1, hop count above them (a
traversal is ``+ _HOP``), destination node, packet-table row on top — so
a buffer read or write is one gather or scatter, and a calendar event
carries the *id it lands on*, not coordinates: a link flit is ``(wire-VC
id at the downstream input port, word)``, an ejection ``(output-VC id,
word)``, a credit the ``cred_`` index and a NIC credit the ``nic_cred_``
index.  Delivery is one indexed add; the lane is ``id // ids-per-lane``.

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
scanning from the round-robin pointer, is one ``argmax``); ejection
writes table columns; and a lane's :class:`NetworkStats` is reduced from
its table once, at retirement.  A source held by several lanes (the
fault-free and faulty run of one application, every count of a fault
sweep, the baseline and protected replay of one campaign timeline) is
one stream: it is compiled once and every holder gets the table.  The
scalar remnants are fault-site injection and healing, the recovery
monitors and ``_borrow_arbiters``.

Faults, heals and recovery
--------------------------
Router kind is a ``(lanes,)`` mask, ``protected``, set at install from
the lane's spec, and the kernels have one body each: the mask takes the
spare out of the fault algebra (RC ``blocked = f_rc1 & (f_rc2 | ~prot)``,
SA ``dead = f_sa1 & (f_sa1b | ~prot)``, no secondary path in a baseline
lane's plans, no lender for a baseline VC, exclusions recorded for
protected retries only), so baseline and protected lanes of one sweep
share an engine.  ``_set_site`` sets or clears one fault bit the way
``BaseRouter.inject_fault`` / ``heal_fault`` do; a schedule with
``native_heals`` (fault timelines, transients) heals before it injects on
the cycles its ``next_cycle()`` names, exactly as
``NoCSimulator._inject_faults`` does.  ``RouterStats`` counters are kept
per ``(counter, lane, router)``, which is what lets a lane whose schedule
``wants_recovery_log`` carry the object engine's own
:class:`repro.faults.recovery.RecoveryMonitor`, fed :class:`_RouterView`
objects: landings and heals are reported from the fault stage, open
watches are polled after the last kernel on the lane's local clock, and
the summary lands on ``SimulationResult.recovery`` at retirement.

Use :func:`supports` to check a configuration before constructing the
engine; unsupported configurations (adaptive routing, tracing, per-flit
callbacks, router kinds without an array model, ...) should fall back to
the event engine per point —
:func:`repro.experiments.parallel.run_lane_sweep` does exactly that and records the
reason string per fallback point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple, cast

import numpy as np

from ..config import PORT_LOCAL, NetworkConfig, SimulationConfig
from ..faults.recovery import RecoveryMonitor
from ..faults.sites import FaultUnit
from ..observability import maybe_create
from ..observability.profiler import STAGE_NAMES, StageProfiler
from ..router.router import RouterStats
from ..router.routing import make_routing
from ..traffic.generator import compile_table
from .simulator import (
    FaultSchedule,
    RouterFactory,
    SimulationResult,
    TrafficSource,
)
from .stats import NetworkStats
from .topology import Topology

# VC pipeline states (must match repro.router.vc.VCState integer values)
_IDLE, _ROUTING, _WAITING_VA, _ACTIVE = 0, 1, 2, 3

# the flit word: flags in bits 0-1, then hops (low, so a traversal is one
# add), the destination node, and the packet-table row in the top bits
_F_HEAD = 1
_F_TAIL = 2
_HOP_SHIFT, _DEST_SHIFT, _PID_SHIFT = 2, 16, 32
_HOP = 1 << _HOP_SHIFT
_HOP_MASK = (1 << (_DEST_SHIFT - _HOP_SHIFT)) - 1
_DEST_MASK = (1 << (_PID_SHIFT - _DEST_SHIFT)) - 1
_MAX_ROWS = 1 << (63 - _PID_SHIFT)

#: queue-entry cycle of an exhausted NIC source queue, fault cycle of a
#: slot with nothing left to poll (never due)
_NEVER = np.iinfo(np.int32).max

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

#: router kinds with an array model; which of them a lane is, is a mask
LANE_KINDS = ("baseline", "protected")


@dataclass
class LaneSpec:
    """One sweep point to run as a lane of the batched engine.

    The fault schedule is a per-lane, single-use, stateful object, and
    so is the traffic source unless several specs hold the *same* one:
    that is one stream, drawn once, and every holder runs it in full.
    Construct both exactly as a serial run would (same seeds from the
    same ``SeedSequence.spawn``) and the lane's RNG stream is identical
    to its serial run by construction.  The engine reads ``native_heals``
    and ``wants_recovery_log`` off the schedule, as ``NoCSimulator`` does.
    """

    traffic: TrafficSource
    fault_schedule: Optional[FaultSchedule] = None
    #: ``"baseline"`` or ``"protected"``; ``None`` takes the kind of the
    #: engine's ``router_factory``
    router_kind: Optional[str] = None


def supports(
    config: NetworkConfig,
    router_factory: Optional[RouterFactory] = None,
    routing_kind: str = "xy",
    *,
    on_eject: Optional[Callable] = None,
    observability: object = None,
) -> Optional[str]:
    """Why the batched engine cannot run this configuration, or ``None``.

    Returns a human-readable reason string for unsupported configs (the
    sweep layer records it and falls back to the event engine per point)
    and ``None`` when the configuration is fully supported.
    """
    kind = getattr(router_factory, "router_kind", "baseline")
    if kind not in LANE_KINDS:
        return f"router kind {kind!r} not supported (no array model)"
    if make_routing(config, routing_kind).adaptive:
        return f"adaptive routing {routing_kind!r} (route depends on run-time state)"
    if observability is not None or maybe_create() is not None:
        return "observability enabled (tracing/metrics need per-object hooks)"
    if on_eject is not None:
        return "on_eject hook set (per-flit callback needs flit objects)"
    V, P = config.router.num_vcs, config.router.num_ports
    if P * V > 62:
        return "num_ports * num_vcs > 62 (stage-2 requester bitmask width)"
    if V > 31:
        return "num_vcs > 31 (va_excluded bitmask width)"
    return None


class BatchedLaneEngine:
    """N structurally identical fabrics stepped as flat NumPy state.

    All lanes share one ``NetworkConfig``, ``SimulationConfig`` and
    routing kind (the *structural key*); they differ in their per-lane
    traffic sources, fault schedules and router kinds (``router_factory``
    names the kind of a lane whose spec leaves it open).
    """

    def __init__(
        self,
        config: NetworkConfig,
        sim_config: SimulationConfig,
        lanes: List[LaneSpec],
        router_factory: Optional[RouterFactory] = None,
        routing_kind: str = "xy",
        *,
        keep_samples: bool = False,
        pending: Optional[Iterable[LaneSpec]] = None,
    ) -> None:
        reason = supports(config, router_factory, routing_kind)
        if reason is not None:
            raise ValueError(f"batched engine cannot run this config: {reason}")
        if not lanes:
            raise ValueError("need at least one lane")
        # a minimal route crosses at most this many routers, ejection included
        longest = config.width + config.height - 1
        if config.num_nodes - 1 > _DEST_MASK or longest > _HOP_MASK:
            raise ValueError(
                f"a {config.width}x{config.height} fabric does not fit the flit "
                f"word ({_DEST_MASK + 1} nodes, {_HOP_MASK} hops)"
            )
        self.config = config
        self.sim_config = sim_config
        self.lanes = list(lanes)
        self.keep_samples = keep_samples
        #: the kind of a lane whose spec names none
        self._default_kind = getattr(router_factory, "router_kind", "baseline")

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
        self.rot = rc.bypass_rotation_period
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
        #: output port of ``(node, dest)`` at ``node * R + dest``
        self.rtab = np.array(routing.route_table(), dtype=np.int32).reshape(-1)

        #: (array, power-on value) of every per-lane state array: allocated
        #: through ``state`` below, restored slot by slot in ``_install_lane``
        self._power_on: List[Tuple[np.ndarray, object]] = []

        def state(shape: tuple, value: object, dtype: type) -> Tuple[np.ndarray, np.ndarray]:
            """One allocation, two views: ``(lane, ...)`` and flat."""
            arr = np.empty((L, *shape), dtype=dtype)
            arr[...] = value
            self._power_on.append((arr, value))
            return arr, arr.reshape(-1)

        # --- per-VC state, physical-slot indexed -----------------------
        shape4 = (R, P, V)
        self.st, self.st_ = state(shape4, _IDLE, np.int8)  # VCState
        self.route, self.route_ = state(shape4, -1, np.int32)
        self.outvc, self.outvc_ = state(shape4, -1, np.int32)
        self.vpid, self.vpid_ = state(shape4, -1, np.int64)
        self.excl, self.excl_ = state(shape4, 0, np.int64)  # va_excluded bitmask
        # wire-id indirection: ``pwire[..., s]`` is the wire id of the VC
        # object in physical slot s; ``wdelta`` is the inverse permutation
        # as an offset: wire w of a port sits in slot ``w + wdelta[..., w]``
        self.pwire, self.pwire_ = state(shape4, np.arange(V), np.int32)
        self.wdelta, self.wdelta_ = state(shape4, 0, np.int32)

        # flit buffers: a ring of flit words per VC
        self.b_flit, self.b_flit_ = state((R, P, V, D), 0, np.int64)
        self.b_head, self.b_head_ = state(shape4, 0, np.int32)
        self.b_cnt, self.b_cnt_ = state(shape4, 0, np.int32)

        # output side: credits and downstream-VC ownership
        self.cred, self.cred_ = state(shape4, D, np.int32)
        self.alloc, self.alloc_ = state(shape4, -1, np.int64)

        # round-robin arbiter priority pointers
        shape3 = (R, P)
        self.va1_prio, self.va1_prio_ = state((R, P, V, P), 0, np.int32)
        self.va2_prio, self.va2_prio_ = state(shape4, 0, np.int32)
        self.sa1_prio, self.sa1_prio_ = state(shape3, 0, np.int32)
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
        #: router kind as a lane mask (see "Faults, heals and recovery")
        self.protected = np.zeros(L, dtype=bool)

        # crossbar path plans per (lane, router, dest), fault-dependent
        self.plan_ok, self.plan_ok_ = state(shape3, True, bool)
        self.plan_arb, self.plan_arb_ = state(shape3, np.arange(P), np.int32)
        self.plan_sec, self.plan_sec_ = state(shape3, False, bool)

        # XB queue: at most one SA grant per input port per cycle
        self.xq_valid, self.xq_valid_ = state(shape3, False, bool)
        self.xq_slot, self.xq_slot_ = state(shape3, 0, np.int32)
        self.xq_dest, self.xq_dest_ = state(shape3, 0, np.int32)

        # calendar events in flight, one ring per event kind indexed by
        # ``cycle % span``: flits/ejections are written ``link_latency``
        # slots ahead, credits ``credit_latency`` slots ahead.  Each slot
        # is a tuple of parallel 1-D arrays, the target ids first — ``(wire
        # VC id at the input port, word)``, ``(output VC id, word)``,
        # ``(cred_ index,)``, ``(nic_cred_ index,)`` — or None: within one
        # span window every (slot, kind) pair is written by at most one
        # cycle and each phase writes its kind at most once per cycle, so
        # no same-slot merge is ever needed.
        span = self.span
        _Ring = List[Optional[Tuple[np.ndarray, ...]]]
        self._ring_flit: _Ring = [None] * span
        self._ring_eject: _Ring = [None] * span
        self._ring_credit: _Ring = [None] * span
        self._ring_nic_credit: _Ring = [None] * span
        self._ring_out_credit: _Ring = [None] * span
        #: (ring, target ids per lane): what ``id // n`` decodes a lane from
        self._rings = (
            (self._ring_flit, self.RPV), (self._ring_eject, self.RPV),
            (self._ring_credit, self.RPV), (self._ring_out_credit, self.RPV),
            (self._ring_nic_credit, R * self.NV),
        )

        # --- the NIC boundary: packet tables and array NIC state --------
        # one table row per packet of a lane, sorted by (src, vnet) in
        # yield order; the row index is the packet id in the flit
        # buffers.  Columns grow together (see ``_install_lane``).
        self._bind_tables(np.zeros((10, L, 0), dtype=np.int32))
        self.t_n = np.zeros(L, dtype=np.int64)  # rows in use, per lane
        # A NIC source queue is a cursor into its (node, vnet) run of the
        # table: the head packet's row, the cycle it entered the queue
        # (``_NEVER`` once the run is exhausted) and the index of its
        # next flit.  A vnet injects one packet at a time and frees its
        # wire VC on the tail, so the packet always gets the vnet's first
        # VC and "mid-injection, VC owned" is just ``q_flit > 0``; credits
        # are kept for that one VC per vnet.
        shape_q = (R, self.NV)
        self.q_row, self.q_row_ = state(shape_q, 0, np.intp)
        self.q_due, self.q_due_ = state(shape_q, _NEVER, np.int32)
        self.q_flit, self.q_flit_ = state(shape_q, 0, np.int32)
        self.nic_cred, self.nic_cred_ = state(shape_q, D, np.int32)
        # vnet round-robin pointer
        self.nic_rr, self.nic_rr_ = state((R,), 0, np.intp)
        self._vnets = np.arange(self.NV)
        self._vcs = np.arange(V)
        #: wire id -> which downstream VCs share its vnet, as a (V, V) mask
        self._same_vnet = self._vcs // self.VV == self._vcs[:, None] // self.VV

        # --- counters and per-lane clocks ------------------------------
        #: ``RouterStats`` counters per ``(counter, lane, router)``: the
        #: recovery monitor watches single routers, a lane's result is the
        #: sum over its routers
        self.rstats = np.zeros((len(_RS_IDX), L, R), dtype=np.int64)
        #: one bound 1-D view per counter, indexed by node id (see ``_count``)
        self._counter = [row.reshape(-1) for row in self.rstats]
        # nothing watches buffer writes: they stay one bump per lane, kept
        # in the cell of the lane's router 0 (see ``_buffer_write``)
        self._counter[_I_BUFW] = self.rstats[_I_BUFW, :, 0]
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
        self.no_link = max(arr.size for arr, _ in self._power_on)
        topo = Topology(config)
        lane0 = np.arange(L) * self.RP

        def wiring(dense: list) -> np.ndarray:
            ids = np.full((L, R, P), self.no_link, dtype=np.intp)
            for node, row in enumerate(dense):
                for port, link in enumerate(row):
                    if link is not None:
                        ids[:, node, port] = lane0 + link[0] * P + link[1]
            return ids.reshape(-1)

        #: output port id -> the input port id its link feeds
        self.down_port = wiring(topo.out_link)
        #: input port id -> the output port id feeding it (credit return)
        self.up_out_port = wiring(topo.upstream_link)

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
            kind = spec.router_kind or self._default_kind
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
        #: lane -> the recovery monitor of a lane whose schedule
        #: ``wants_recovery_log`` (the object engine's own class, fed
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

        #: wall time per kernel, sampled every 16th global cycle
        self.profiler = StageProfiler()
        #: seconds spent installing / retiring lanes and polling recovery
        #: monitors (every call timed)
        self.install_s = 0.0
        self.retire_s = 0.0
        self.poll_s = 0.0

    # ------------------------------------------------------------------
    # fault injection and crossbar path plans
    # ------------------------------------------------------------------
    def _inject_lane_faults(self, cycle: int, local: np.ndarray) -> None:
        """Poll the schedules with an event due — ``next_cycle()`` is what
        the object engine's skip-ahead trusts, too.

        Mirrors ``NoCSimulator._inject_faults``: a schedule with
        ``native_heals`` heals before it injects, and landings and heals
        are reported to the lane's recovery monitor here, before this
        cycle's kernels run.
        """
        for lane in np.flatnonzero(self._fault_due <= local).tolist():
            sched = cast(FaultSchedule, self.lanes[lane].fault_schedule)
            now = int(local[lane])
            mon = self._monitors.get(lane)
            if getattr(sched, "native_heals", False):
                for site in sched.heals_due(now):  # type: ignore[attr-defined]
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

    def _set_site(self, lane: int, site, faulty: bool) -> bool:
        """Mirror ``BaseRouter.inject_fault`` / ``heal_fault``: idempotent,
        the skip flags recounted and the path plans refreshed."""
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
        """Rebuild the per-dest path plans of one (lane, router).

        Matches ``Crossbar.plan_path``/``SecondaryPathCrossbar.plan_path``:
        the normal path needs a healthy output mux and stage-2 arbiter; the
        protected router falls back to the neighbouring output's secondary
        path (input ``dest-1``, or 1 for output 0) when available.
        """
        for k in range(self.P):
            if not self.f_xbm[lane, r, k] and not self.f_sa2[lane, r, k]:
                self.plan_ok[lane, r, k] = True
                self.plan_arb[lane, r, k] = k
                self.plan_sec[lane, r, k] = False
                continue
            ok = False
            if self.protected[lane]:
                src = 1 if k == 0 else k - 1
                if (
                    not self.f_xbs[lane, r, k]
                    and not self.f_xbm[lane, r, src]
                    and not self.f_sa2[lane, r, src]
                ):
                    self.plan_ok[lane, r, k] = True
                    self.plan_arb[lane, r, k] = src
                    self.plan_sec[lane, r, k] = True
                    ok = True
            if not ok:
                self.plan_ok[lane, r, k] = False

    # ------------------------------------------------------------------
    # one vectorised cycle
    # ------------------------------------------------------------------
    def _count(self, counter: int, node: np.ndarray) -> None:
        """Bump a ``RouterStats`` counter once per entry of ``node``."""
        self._counter[counter] += np.bincount(node, minlength=self.L * self.R)

    @staticmethod
    def _rr_pick(
        f: np.ndarray,
        prio_per_group: np.ndarray,
        starts: np.ndarray,
        seg: np.ndarray,
        size: int,
    ) -> np.ndarray:
        """Per segment, mark the element minimising ``(f - prio) % size``.

        ``f`` values are distinct within a segment, so exactly one element
        per segment is marked — the grant a ``RoundRobinArbiter`` makes.
        """
        dist = (f - prio_per_group[seg]) % size
        best = np.minimum.reduceat(dist, starts)
        return dist == best[seg]

    @staticmethod
    def _segments(sorted_key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(segment starts, per-element segment id) of a sorted key array."""
        first = np.empty(sorted_key.shape, dtype=bool)
        first[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
        return np.flatnonzero(first), np.cumsum(first) - 1

    def _xb_phase(self, cycle: int, local: np.ndarray) -> None:
        """Traverse last cycle's SA winners — mirrors ``BaseRouter.xb_phase``."""
        port = np.flatnonzero(self.xq_valid_)
        if port.size == 0:
            return
        self.xq_valid_[port] = False
        P, V, D = self.P, self.V, self.D
        vc = port * V + self.xq_slot_[port]
        dest = self.xq_dest_[port]
        pin = port % P
        oport = port - pin + dest  # output port id, same router
        ovc = self.outvc_[vc]
        out = oport * V + ovc  # output VC id
        h = self.b_head_[vc]
        word = self.b_flit_[vc * D + h] + _HOP
        self.b_head_[vc] = (h + 1) % D
        cnt = self.b_cnt_[vc] - 1
        self.b_cnt_[vc] = cnt
        self._count(_I_TRAV, port // P)
        wire = self.pwire_[vc]

        tail = (word & _F_TAIL) != 0
        if tail.any():
            tv = vc[tail]
            # release the downstream VC, then finish the packet: the slot
            # restarts on the next queued head or falls idle
            self.alloc_[out[tail]] = -1
            self.route_[tv] = -1
            self.outvc_[tv] = -1
            self.excl_[tv] = 0
            has_next = cnt[tail] > 0
            npid = self.b_flit_[tv * D + self.b_head_[tv]] >> _PID_SHIFT
            self.st_[tv] = np.where(has_next, _ROUTING, _IDLE)
            self.vpid_[tv] = np.where(has_next, npid, -1)

        wf = (cycle + self.link_lat) % self.span
        wc = (cycle + self.cred_lat) % self.span
        eject = dest == PORT_LOCAL
        if eject.any():
            self._ring_eject[wf] = (out[eject], word[eject])
        rem = ~eject
        if rem.any():
            self._ring_flit[wf] = (
                self.down_port[oport[rem]] * V + ovc[rem], word[rem],
            )
        # credit return toward whoever feeds this input port
        nic = pin == PORT_LOCAL
        if nic.any():
            self._ring_nic_credit[wc] = (
                port[nic] // P * self.NV + wire[nic] // self.VV,
            )
        pr = ~nic
        if pr.any():
            self._ring_credit[wc] = (self.up_out_port[port[pr]] * V + wire[pr],)

    def _swap_slots(self, a: np.ndarray, b: np.ndarray) -> None:
        """Exchange the VC *objects* at slot ids a[i] and b[i] (ft_sa swap).

        Everything that belongs to the slot object moves — pipeline state,
        buffer contents, the wire id (``pwire``) — while position-keyed
        state (arbiters, their priorities, fault flags) stays put.  Each
        pair shares a port and no port appears twice, so a fancy-index
        swap through a temporary is exact.
        """
        for arr in (
            self.st_, self.route_, self.outvc_, self.vpid_, self.excl_,
            self.b_head_, self.b_cnt_, self.pwire_,
            self.b_flit_.reshape(-1, self.D),
        ):
            tmp = arr[a]
            arr[a] = arr[b]
            arr[b] = tmp
        for slot in (a, b):
            wire = slot - slot % self.V + self.pwire_[slot]
            self.wdelta_[wire] = slot - wire

    def _sa_phase(self, cycle: int, local: np.ndarray) -> None:
        """Switch allocation — mirrors ``SAUnit.allocate`` (+ ft_sa bypass)."""
        vc = np.flatnonzero((self.st_ == _ACTIVE) & (self.b_cnt_ > 0))
        if vc.size == 0:
            return
        P, V = self.P, self.V
        port = vc // V
        rt = self.route_[vc]
        ov = self.outvc_[vc]
        oport = port - port % P + rt
        ok = (self.cred_[oport * V + ov] > 0) & self.plan_ok_[oport]
        if not ok.all():
            vc, port, rt, ov, oport = vc[ok], port[ok], rt[ok], ov[ok], oport[ok]
            if vc.size == 0:
                return
        # stage 1: one winner per input port.  flatnonzero's C order
        # already sorts the candidates by port id.
        sc = vc - port * V
        starts, seg = self._segments(port)
        gport = port[starts]
        win = self._rr_pick(sc, self.sa1_prio_[gport], starts, seg, V)
        fa = self.f_sa1_[gport] if self._have_sa1 else None
        if fa is not None and fa.any():
            healthy = ~fa
            win &= healthy[seg]
            gnode = gport // P
            glane = gnode // self.R
            # a baseline port has no bypass: it is dead with its arbiter
            dead = fa & (self.f_sa1b_[gport] | ~self.protected[glane])
            if dead.any():
                self._count(_I_SA_BLOCK, gnode[dead])
            # bypass path: grant the rotation default (it runs on each
            # lane's local clock; -1 on every other group, so only a
            # bypassed port can hit), or transfer the first candidate
            # into an idle, empty default slot
            default = np.where(fa & ~dead, local[glane] // self.rot % V, -1)
            hit = sc == default[seg]
            win |= hit
            granted = np.zeros(gport.shape, dtype=bool)
            granted[seg[hit]] = True
            self._count(_I_SA_BYPASS, gnode[granted])
            move = np.flatnonzero((default >= 0) & ~granted)
            to = gport[move] * V + default[move]
            free = (self.st_[to] == _IDLE) & (self.b_cnt_[to] == 0)
            if free.any():
                move = move[free]
                self._swap_slots(vc[starts[move]], to[free])
                self._count(_I_VC_XFER, gnode[move])
            # advance only the healthy ports' arbiters (one winner each)
            self.sa1_prio_[gport[healthy]] = (sc[win & healthy[seg]] + 1) % V
        else:
            self.sa1_prio_[gport] = (sc[win] + 1) % V

        wvc = vc[win]
        if wvc.size == 0:
            return
        wport, wrt, wov, woport = port[win], rt[win], ov[win], oport[win]
        # stage 2: winners compete per *arbiter* port (secondary paths
        # borrow the neighbouring output's arbiter)
        key2 = woport - wrt + self.plan_arb_[woport]
        order = np.argsort(key2, kind="stable")
        key2 = key2[order]
        starts2, seg2 = self._segments(key2)
        arb = key2[starts2]
        wpin = (wport % P)[order]
        win2 = self._rr_pick(wpin, self.sa2_prio_[arb], starts2, seg2, P)
        live = ~self.f_sa2_[arb]
        if not live.all():
            win2 &= live[seg2]  # faulty stage-2 arbiter: silent skip
            arb = arb[live]
        self.sa2_prio_[arb] = (wpin[win2] + 1) % P

        gi = order[win2]
        gvc, gport, goport = wvc[gi], wport[gi], woport[gi]
        self.cred_[goport * V + wov[gi]] -= 1
        gnode = gport // P
        self._count(_I_SA_GRANT, gnode)
        sec = self.plan_sec_[goport]
        if sec.any():
            self._count(_I_SEC, gnode[sec])
        self.xq_valid_[gport] = True
        self.xq_slot_[gport] = gvc - gport * V
        self.xq_dest_[gport] = wrt[gi]

    def _borrow_arbiters(self, vc: np.ndarray, fa: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Stage-1 arbiter borrowing (scalar; faults are rare).

        Mirrors ``ArbiterSharingVAUnit._stage1_arbiters``: a VC whose own
        arbiter set is faulty scans sibling slots in order for a healthy,
        unlent lender that is IDLE or ACTIVE this cycle; in a baseline
        router nobody lends and the VC is blocked.  Returns the keep-mask
        and per-requester owner VC id (the priority rows used).
        """
        keep = ~fa | self.protected[vc // self.RPV]
        if not keep.all():
            self._count(_I_VA_BLOCK, vc[~keep] // self.PV)
        owner = vc.copy()
        borrowed: set = set()
        prev_key = None
        for i in np.flatnonzero(fa & keep):
            l0, r0, p0, s0 = np.unravel_index(vc[i], self.st.shape)
            k = (l0, r0, p0)
            if k != prev_key:
                borrowed = set()
                prev_key = k
            lender = -1
            for ls in range(self.V):
                if ls == s0 or ls in borrowed or self.f_va1[l0, r0, p0, ls]:
                    continue
                state = self.st[l0, r0, p0, ls]
                if state == _IDLE or state == _ACTIVE:
                    lender = ls
                    break
            if lender < 0:
                self.rstats[_I_VA_BORROW_WAIT, l0, r0] += 1
                self.rstats[_I_VA_BLOCK, l0, r0] += 1
                keep[i] = False
            else:
                borrowed.add(lender)
                owner[i] += lender - s0
        return keep, owner

    def _va_phase(self, cycle: int, local: np.ndarray) -> None:
        """VC allocation — mirrors ``VAUnit.allocate`` (+ ft_va borrowing)."""
        vc = np.flatnonzero(self.st_ == _WAITING_VA)
        if vc.size == 0:
            return
        P, V, PV = self.P, self.V, self.PV
        owner = vc  # whose stage-1 arbiter set each requester uses
        borrowed = False
        if self._have_va1:
            fa = self.f_va1_[vc]
            if fa.any():
                keep, owner = self._borrow_arbiters(vc, fa)
                borrowed = True
                vc, owner = vc[keep], owner[keep]
                if vc.size == 0:
                    return
        port = vc // V
        rt = self.route_[vc]
        oport = port - port % P + rt
        # free downstream VCs of the requester's vnet (the *wire id* of the
        # slot object decides the vnet, not the physical position)
        da = self._vcs
        free = self._same_vnet[self.pwire_[vc]]
        free &= self.alloc.reshape(-1, V)[oport] < 0
        if self._have_va2:
            ex = self.excl_[vc]
            if ex.any():
                free &= ((ex[:, None] >> da) & 1) == 0
        any_free = free.any(axis=1)
        if not any_free.all():
            self._count(_I_VA_NOFREE, vc[~any_free] // PV)
            vc, owner, oport = vc[any_free], owner[any_free], oport[any_free]
            rt, free = rt[any_free], free[any_free]
            if vc.size == 0:
                return
        # stage 1 pick: the owner slot's per-output round-robin row
        row = owner * P + rt
        prio = self.va1_prio_[row]
        dist = np.where(free, (da - prio[:, None]) % V, V)
        choice = np.argmin(dist, axis=1)
        self.va1_prio_[row] = (choice + 1) % V

        # stage 2: proposals grouped per output VC (output port, downstream VC)
        out = oport * V + choice
        order = np.argsort(out, kind="stable")
        arb = out[order]
        starts, seg = self._segments(arb)
        arb = arb[starts]
        req = (vc % self.PV)[order]  # requester index within its router
        win = self._rr_pick(req, self.va2_prio_[arb], starts, seg, self.PV)
        if self._have_va2:
            faulty = self.f_va2_[arb]
            if faulty.any():
                lost = faulty[seg]
                retry = vc[order][lost]
                self._count(_I_VA2_RETRY, retry // PV)
                # a protected router records the exclusion, so that the
                # retry picks elsewhere
                prot = self.protected[retry // self.RPV]
                self.excl_[retry[prot]] |= np.int64(1) << choice[order][lost][prot]
                win &= ~lost
                arb = arb[~faulty]
        self.va2_prio_[arb] = (req[win] + 1) % self.PV

        gi = order[win]
        gvc = vc[gi]
        self.outvc_[gvc] = choice[gi]
        self.st_[gvc] = _ACTIVE
        self.excl_[gvc] = 0
        self.alloc_[out[gi]] = self.vpid_[gvc]
        self._count(_I_VA_GRANT, gvc // PV)
        if borrowed:
            bm = owner[gi] != gvc
            if bm.any():
                self._count(_I_VA_BORROWED, gvc[bm] // PV)

    def _rc_phase(self, cycle: int, local: np.ndarray) -> None:
        """Route computation — mirrors ``RCUnit``/``DuplicatedRCUnit``."""
        vc = np.flatnonzero(self.st_ == _ROUTING)
        if vc.size == 0:
            return
        P, R = self.P, self.R
        port = vc // self.V
        if self._have_rc:
            f1 = self.f_rc1_[port]
            # a baseline port has no duplicate unit to fall back on
            blocked = f1 & (self.f_rc2_[port] | ~self.protected[port // self.RP])
            dup = f1 & ~blocked
            if dup.any():
                self._count(_I_RC_DUP, port[dup] // P)
            if blocked.any():
                self._count(_I_RC_BLOCK, port[blocked] // P)
                keep = ~blocked
                vc, port = vc[keep], port[keep]
                if vc.size == 0:
                    return
        dest = self.b_flit_[vc * self.D + self.b_head_[vc]] >> _DEST_SHIFT & _DEST_MASK
        out = self.rtab[port // P % R * R + dest]
        pok = self.plan_ok_[port - port % P + out]
        if not pok.all():
            self._count(_I_UNREACH, port[~pok] // P)
            vc, out = vc[pok], out[pok]
        self.route_[vc] = out
        self.st_[vc] = _WAITING_VA

    # ------------------------------------------------------------------
    # event delivery and the NIC boundary
    # ------------------------------------------------------------------
    def _dispatch(self, cycle: int, local: np.ndarray) -> None:
        """Deliver this slot's events — mirrors ``EventScheduler.dispatch``."""
        s = cycle % self.span
        ev = self._ring_flit[s]
        if ev is not None:
            self._ring_flit[s] = None
            # the per-lane count is the mask: a lane it is non-zero for moved
            np.putmask(self.last_progress, self._buffer_write(*ev), cycle)
        ev = self._ring_eject[s]
        if ev is not None:
            self._ring_eject[s] = None
            out, word = ev
            # the NIC sinks the flit at once: credit back, and a tail
            # completes its packet's table row
            lane = out // self.RPV
            count = np.bincount(lane, minlength=self.L)
            self.fin -= count
            self.flits_ejected += count
            np.putmask(self.last_progress, count, cycle)
            self._ring_out_credit[(cycle + self.cred_lat) % self.span] = (out,)
            tail = (word & _F_TAIL) != 0
            tl, word = lane[tail], word[tail]
            rows = tl * self.cap + (word >> _PID_SHIFT)
            self.t_ej_[rows] = local[tl]
            self.t_hops_[rows] = word >> _HOP_SHIFT & _HOP_MASK
        for ring in (self._ring_credit, self._ring_out_credit):
            ev = ring[s]
            if ev is not None:
                ring[s] = None
                self.cred_[ev[0]] += 1
        ev = self._ring_nic_credit[s]
        if ev is not None:
            self._ring_nic_credit[s] = None
            self.nic_cred_[ev[0]] += 1

    def _buffer_write(self, tgt: np.ndarray, word: np.ndarray) -> np.ndarray:
        """Append one flit word per distinct wire-VC id ``port * V + wire``.

        Mirrors ``BaseRouter.receive_flit``: an idle slot starts routing
        its new head.  Serves link deliveries and NIC injections alike
        (one flit per link, one per NIC per cycle: targets never repeat,
        so a plain fancy-index scatter is exact).  Returns the flits
        written per lane.
        """
        vc = tgt + self.wdelta_[tgt]
        cnt = self.b_cnt_[vc]
        self.b_flit_[vc * self.D + (self.b_head_[vc] + cnt) % self.D] = word
        self.b_cnt_[vc] = cnt + 1
        written = np.bincount(tgt // self.RPV, minlength=self.L)
        self._counter[_I_BUFW] += written
        idle = self.st_[vc] == _IDLE
        if idle.any():
            iv = vc[idle]
            self.st_[iv] = _ROUTING
            self.route_[iv] = -1
            self.outvc_[iv] = -1
            self.excl_[iv] = 0
            self.vpid_[iv] = word[idle] >> _PID_SHIFT
        return written

    def _nic_step(self, cycle: int, local: np.ndarray) -> None:
        """Inject up to one flit per NIC — mirrors ``NetworkInterface.step``.

        A vnet can inject when its queue head has entered the queue and
        its VC holds a credit; each NIC with such a vnet sends one flit
        from the first one in round-robin order (the local link is one
        flit wide) and moves its pointer past it.  The object NIC's
        packet *start* (VC allocation) has no effect of its own — the VC
        is always free, the head flit is what gets counted — so a packet
        simply starts with its head flit.
        """
        can = self.q_due <= local[:, None, None]
        can &= self.nic_cred > 0
        node = np.flatnonzero(can.any(axis=2))
        if node.size == 0:
            return
        NV = self.NV
        rr = self.nic_rr_[node]
        # first vnet that can inject, scanning from the round-robin pointer
        q0 = node * NV
        scan = q0[:, None] + (rr[:, None] + self._vnets) % NV
        v = (rr + can.reshape(-1)[scan].argmax(axis=1)) % NV
        q = q0 + v
        l = node // self.R
        row = self.q_row_[q]
        trow = l * self.cap + row
        flit = self.q_flit_[q]
        head = flit == 0
        tail = flit == self.t_size_[trow] - 1
        self.nic_cred_[q] -= 1
        self.nic_rr_[node] = (v + 1) % NV
        self.t_inj_[trow[head]] = local[l[head]]
        # a tail moves the cursor on: the next packet of the run, if any
        self.q_flit_[q] = np.where(tail, 0, flit + 1)
        tq, tt = q[tail], trow[tail]
        self.q_row_[tq] = row[tail] + 1
        self.q_due_[tq] = self.t_next_[tt]
        self.lane_left -= np.bincount(l[tail], minlength=self.L)
        # the table is int32: widen the destination before it is shifted
        word = (row << _PID_SHIFT) + (self.t_dest_[trow].astype(np.int64) << _DEST_SHIFT)
        word += head * _F_HEAD + tail * _F_TAIL
        self.fin += self._buffer_write(
            (node * self.P + PORT_LOCAL) * self.V + v * self.VV, word
        )

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
        cycle: under 0.01 % of a step, so there is no switch).  Recovery
        watches are polled after the last kernel, as the object engine
        polls at end of cycle, so same-cycle mechanism activity counts.
        """
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
        if self._monitors:
            t = perf_counter()
            for lane, mon in self._monitors.items():
                if mon.open_watches:
                    mon.poll(int(local[lane]))
            self.poll_s += perf_counter() - t

    def run(self) -> List[SimulationResult]:
        """Run every point to completion; results in point order.

        Lanes share the global cycle counter but run on their own local
        clocks: each blocks, drains and retires exactly where its serial
        run would (watchdog trips freeze a lane mid-flight; the drain
        predicate — no flits in the network, no packets left to inject —
        retires it cleanly).  Freed slots are refilled from the pending
        queue until the whole point stream has run.
        """
        sc = self.sim_config
        wd = sc.watchdog_cycles
        inject_until = self._inject_until
        horizon = inject_until + sc.drain_cycles
        for lane, spec in enumerate(self.lanes):
            self._install_lane(lane, spec, 0)
        act = self._act
        cycle = 0
        while True:
            # retirement as array predicates, in serial check order:
            # watchdog first (it is evaluated before the loop predicates
            # in ``NoCSimulator.run``), then the drain predicate /
            # deadline; only lanes that do retire drop to Python
            local = cycle - self.off
            stalled = cycle - self.last_progress > wd
            check = (stalled | (local >= inject_until)) & act
            if check.any():
                blocked = check & stalled & (self.fin > 0)
                over = check & ~blocked & (local >= inject_until)
                drained = over & (self.fin == 0) & (self.lane_left == 0)
                for lane in np.flatnonzero(
                    blocked | drained | (over & (local >= horizon))
                ).tolist():
                    self._retire(
                        lane, cycle, bool(blocked[lane]), bool(drained[lane])
                    )
                if not act.any():
                    break
                local = cycle - self.off
            self.active_lane_cycles += int(np.count_nonzero(act))
            self.total_lane_cycles += self.L
            self._step(cycle, local)
            cycle += 1
        return cast(List[SimulationResult], list(self._results))

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
        the seconds of every lane install, retirement and recovery poll."""
        return {
            **self.profiler.snapshot(),
            "install_s": self.install_s,
            "retire_s": self.retire_s,
            "poll_s": self.poll_s,
        }

    def _retire(self, lane: int, cycle: int, blocked: bool, drained: bool) -> None:
        """Reduce one finished lane's table to its result, refill its slot."""
        t0 = perf_counter()
        local = cycle - int(self.off[lane])
        # clear the slot now — no requester, nothing queued for the XB,
        # nothing due at a NIC or from the schedule, nothing in flight —
        # so that no kernel has to ask whether a lane is live
        self._act[lane] = False
        self.st[lane] = _IDLE
        self.xq_valid[lane] = False
        self.q_due[lane] = _NEVER
        self._fault_due[lane] = _NEVER
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
        done = np.flatnonzero(ej >= 0)
        # ejection order: by cycle, then by node (a node sinks one flit
        # per cycle and the XB phase visits routers in node order)
        dest = self.t_dest[lane, :n]
        done = done[np.lexsort((dest[done], ej[done]))]
        stats.record_packets([done] + [  # a sample's id is its table row
            column[lane, done] for column in (
                self.t_src, self.t_dest, self.t_vnet, self.t_size,
                self.t_creation, self.t_inj, self.t_ej, self.t_hops,
            )
        ])
        mon = self._monitors.pop(lane, None)
        if mon is not None:
            mon.finalize(local, stats)
        self._results[self.lane_point[lane]] = SimulationResult(
            stats=stats,
            cycles=local,
            blocked=blocked,
            drained=drained,
            router_stats=RouterStats(*self.rstats[:, lane].sum(axis=1).tolist()),
            faults_injected=self.faults_injected[lane],
            recovery=None if mon is None else mon.summary(),
        )
        self.retire_s += perf_counter() - t0
        if self._pending:
            spec = self._pending.popleft()
            self.lanes[lane] = spec
            self._install_lane(lane, spec, cycle)

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
        fabric — the array form of a router's power-on ``reset()``.  The
        point's traffic source is compiled to the lane's packet table
        for its whole inject window, once per source.
        """
        t0 = perf_counter()
        for arr, value in self._power_on:
            arr[lane] = value
        self.rstats[:, lane] = 0
        self._recount_faults()
        self.protected[lane] = (spec.router_kind or self._default_kind) == "protected"
        if getattr(spec.fault_schedule, "wants_recovery_log", False):
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
        self.q_due[lane].flat[run > 0] = columns[0, head[run > 0]]

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
        for ring, per_lane in self._rings:
            for i, ev in enumerate(ring):
                if ev is None:
                    continue
                keep = ev[0] // per_lane != lane
                if not keep.all():
                    ring[i] = tuple(a[keep] for a in ev) if keep.any() else None


class _RouterView:
    """One ``(lane, router)`` as ``RecoveryMonitor`` reads a router:
    ``stats.<counter>`` is its column of the counter matrix,
    ``buffered_flits()`` its buffer occupancy — views of the live arrays,
    so a poll sees what the kernels counted this cycle (``buffer_writes``
    excepted: it is kept per lane, see ``rstats``)."""

    def __init__(self, engine: BatchedLaneEngine, lane: int, router: int) -> None:
        self._counts = engine.rstats[:, lane, router]
        self._occupancy = engine.b_cnt[lane, router]

    stats = property(lambda self: self)  # not stored: a view is freed by refcount

    def __getattr__(self, counter: str) -> int:
        if counter not in _RS_IDX or counter == "buffer_writes":
            raise AttributeError(counter)
        return int(self._counts[_RS_IDX[counter]])

    def buffered_flits(self) -> int:
        return int(self._occupancy.sum())


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

    ``width`` caps the number of concurrent lane slots; the rest of the
    points stream in through lane refill as slots free up.
    """
    w = len(lanes) if width is None else max(1, min(width, len(lanes)))
    return BatchedLaneEngine(
        config, sim_config, lanes[:w], router_factory, routing_kind,
        keep_samples=keep_samples, pending=lanes[w:],
    ).run()
