"""Batched lane engine: step whole sweeps as flat NumPy state arrays.

Every sweep experiment runs dozens of structurally identical fabrics that
differ only in injection rate, seed, or fault set.  This module
materialises N such sweep points ("lanes") into one set of flat NumPy
state arrays — VC state of shape ``(lanes, routers, ports, vcs)``, flit
buffers with a depth axis alongside, credit/allocation arrays on the
output side — and advances RC/VA/SA/XB for *all* lanes in one vectorised
step.  Per-lane fault sets are boolean masks over the same axes; drained
or blocked lanes retire independently and simply drop out of every
phase's requester set.

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
objects* a serial run would use, called once per cycle, so RNG streams
and fault arrival order are identical by construction.  Finished lanes
decode back into ordinary :class:`NetworkStats`/:class:`RouterStats`
objects; ``tests/test_golden_determinism.py`` pins them byte-identical
to the event engine per lane.

Lane refill
-----------
Lanes run on *local clocks*: every lane slot carries a start offset and
all cycle-dependent state (traffic generation, fault arrival, bypass
rotation, latency timestamps, inject/drain windows) is computed against
``cycle - off[lane]``.  When a lane retires, its result is decoded
immediately and the next pending structurally-identical point is
installed in the freed slot — the array form of a router's power-on
``reset()``: every per-lane array slice returns to its power-on value
and stale in-flight calendar events are purged.  A
1000-point sweep therefore holds dense ``(lanes, ...)`` arrays at the
configured width for its whole duration; :attr:`lane_occupancy` reports
the achieved density.

Vectorisation strategy
----------------------
Phases operate on *compressed index arrays* (``np.nonzero`` over the
relevant state mask) rather than dense tensors — the work per cycle
scales with the number of busy VCs across all lanes, the same property
the event engine's active sets give a single fabric.  Within one cycle
all same-stage arbiters are independent (each grant touches a distinct
(router, arbiter) pair — see the allocator docstrings), so a masked
segment-argmin implements the rotating-priority grant for every group
at once.  The only scalar remnants are the boundary effects that are
per-packet, not per-cycle: NIC injection state machines, tail-flit
ejection into latency samples, and fault-site injection.

Use :func:`supports` to check a configuration before constructing the
engine; unsupported configurations (adaptive routing, tracing, per-flit
callbacks, ...) should fall back to the event engine per point —
:func:`repro.experiments.parallel.run_lane_sweep` does exactly that and records the
reason string per fallback point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, cast

import numpy as np

from collections import deque

from ..config import PORT_LOCAL, NetworkConfig, SimulationConfig
from ..faults.sites import FaultUnit
from ..observability import maybe_create
from ..router.router import RouterStats
from ..router.routing import make_routing
from .simulator import (
    FaultSchedule,
    RouterFactory,
    SimulationResult,
    TrafficSource,
)
from .stats import LatencySample, NetworkStats
from .topology import Topology

# VC pipeline states (must match repro.router.vc.VCState integer values)
_IDLE, _ROUTING, _WAITING_VA, _ACTIVE = 0, 1, 2, 3

# flit flag bits stored in the buffer arrays
_F_HEAD = 1
_F_TAIL = 2

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

_SUPPORTED_KINDS = ("baseline", "protected")


@dataclass
class LaneSpec:
    """One sweep point to run as a lane of the batched engine.

    The traffic source and fault schedule are per-lane, single-use,
    stateful objects — construct them exactly as a serial run would
    (same seeds from the same ``SeedSequence.spawn``) and the lane's
    RNG stream is identical to its serial run by construction.
    """

    traffic: TrafficSource
    fault_schedule: Optional[FaultSchedule] = None


def supports(
    config: NetworkConfig,
    router_factory: Optional[RouterFactory] = None,
    routing_kind: str = "xy",
    *,
    keep_samples: bool = False,
    on_eject: Optional[Callable] = None,
    observability: object = None,
    schedule_factory: object = None,
) -> Optional[str]:
    """Why the batched engine cannot run this configuration, or ``None``.

    Returns a human-readable reason string for unsupported configs (the
    sweep layer records it and falls back to the event engine per point)
    and ``None`` when the configuration is fully supported.

    ``schedule_factory`` is the sweep point's fault-schedule factory (or
    the schedule class itself): factories marked ``mutates_fabric`` —
    online fault timelines that heal and re-inject sites mid-run —
    decline here, because the lane arrays bake fault flags in at lane
    start and have no mid-run heal seam.
    """
    kind = getattr(router_factory, "router_kind", "baseline")
    if kind not in _SUPPORTED_KINDS:
        return f"router kind {kind!r} not supported (no array model)"
    if getattr(schedule_factory, "mutates_fabric", False):
        return (
            "fault schedule mutates the fabric mid-run "
            "(online timeline heals/reconfigures; no lane heal seam)"
        )
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

    All lanes share one ``NetworkConfig``, ``SimulationConfig``, router
    kind and routing kind (the *structural key*); they differ only in
    their per-lane traffic sources and fault schedules.
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
        reason = supports(
            config, router_factory, routing_kind, keep_samples=keep_samples
        )
        if reason is not None:
            raise ValueError(f"batched engine cannot run this config: {reason}")
        if not lanes:
            raise ValueError("need at least one lane")
        self.config = config
        self.sim_config = sim_config
        self.lanes = list(lanes)
        self.keep_samples = keep_samples
        self.protected = (
            getattr(router_factory, "router_kind", "baseline") == "protected"
        )

        rc = config.router
        self.L = L = len(self.lanes)
        self.R = R = config.num_nodes
        self.P = P = rc.num_ports
        self.V = V = rc.num_vcs
        self.D = D = rc.buffer_depth
        self.NV = rc.num_vnets
        self.VV = rc.vcs_per_vnet
        self.PV = P * V
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

        # --- static wiring (shared by all lanes) -----------------------
        topo = Topology(config)
        self.link_dst = np.full((R, P), -1, dtype=np.int32)
        self.link_dport = np.full((R, P), -1, dtype=np.int32)
        self.up_node = np.full((R, P), -1, dtype=np.int32)
        self.up_port = np.full((R, P), -1, dtype=np.int32)
        for (node, port), (dst, dport) in topo.links.items():
            self.link_dst[node, port] = dst
            self.link_dport[node, port] = dport
        for node in range(R):
            for port in range(1, P):
                up = topo.upstream_link[node][port]
                if up is not None:
                    self.up_node[node, port] = up[0]
                    self.up_port[node, port] = up[1]
        routing = make_routing(config, routing_kind)
        self.rtab = np.array(routing.route_table(), dtype=np.int32)

        # --- per-VC state, physical-slot indexed -----------------------
        shape4 = (L, R, P, V)
        self.st = np.zeros(shape4, dtype=np.int8)  # VCState
        self.route = np.full(shape4, -1, dtype=np.int32)
        self.outvc = np.full(shape4, -1, dtype=np.int32)
        self.vpid = np.full(shape4, -1, dtype=np.int64)
        self.excl = np.zeros(shape4, dtype=np.int64)  # va_excluded bitmask
        # wire-id indirection: ``pwire[..., s]`` is the wire id of the VC
        # object in physical slot s; ``wphys`` is the inverse permutation
        self.pwire = np.broadcast_to(
            np.arange(V, dtype=np.int32), shape4
        ).copy()
        self.wphys = self.pwire.copy()

        # flit buffers: ring per VC over per-flit integer fields
        shape5 = (L, R, P, V, D)
        self.b_pid = np.full(shape5, -1, dtype=np.int64)
        self.b_dest = np.full(shape5, -1, dtype=np.int32)
        self.b_hops = np.zeros(shape5, dtype=np.int32)
        self.b_flags = np.zeros(shape5, dtype=np.int8)
        self.b_head = np.zeros(shape4, dtype=np.int32)
        self.b_cnt = np.zeros(shape4, dtype=np.int32)

        # output side: credits and downstream-VC ownership
        self.cred = np.full(shape4, D, dtype=np.int32)
        self.alloc = np.full(shape4, -1, dtype=np.int64)

        # round-robin arbiter priority pointers
        self.va1_prio = np.zeros((L, R, P, V, P), dtype=np.int32)
        self.va2_prio = np.zeros(shape4, dtype=np.int32)
        self.sa1_prio = np.zeros((L, R, P), dtype=np.int32)
        self.sa2_prio = np.zeros((L, R, P), dtype=np.int32)

        # fault masks, one per protectable unit kind
        shape3 = (L, R, P)
        self.f_rc1 = np.zeros(shape3, dtype=bool)
        self.f_rc2 = np.zeros(shape3, dtype=bool)
        self.f_va1 = np.zeros(shape4, dtype=bool)
        self.f_va2 = np.zeros(shape4, dtype=bool)
        self.f_sa1 = np.zeros(shape3, dtype=bool)
        self.f_sa1b = np.zeros(shape3, dtype=bool)
        self.f_sa2 = np.zeros(shape3, dtype=bool)
        self.f_xbm = np.zeros(shape3, dtype=bool)
        self.f_xbs = np.zeros(shape3, dtype=bool)
        # fast-path flags: phases skip fault branches entirely until the
        # first fault of that kind lands anywhere in the fleet
        self._have_rc = self._have_va1 = self._have_va2 = False
        self._have_sa1 = self._have_excl = False

        # crossbar path plans per (lane, router, dest), fault-dependent
        self.plan_ok = np.ones(shape3, dtype=bool)
        self.plan_arb = np.broadcast_to(
            np.arange(P, dtype=np.int32), shape3
        ).copy()
        self.plan_sec = np.zeros(shape3, dtype=bool)

        # XB queue: at most one SA grant per input port per cycle
        self.xq_valid = np.zeros(shape3, dtype=bool)
        self.xq_slot = np.zeros(shape3, dtype=np.int32)
        self.xq_dest = np.zeros(shape3, dtype=np.int32)

        # calendar events in flight, one ring per event kind indexed by
        # ``cycle % span``: flits/ejections are written ``link_latency``
        # slots ahead, credits ``credit_latency`` slots ahead.  Each slot
        # is a tuple of parallel 1-D arrays or None — within one span
        # window every (slot, kind) pair is written by at most one cycle
        # and each phase writes its kind at most once per cycle, so no
        # same-slot merge is ever needed.
        span = self.span
        _Ring = List[Optional[Tuple[np.ndarray, ...]]]
        self._ring_flit: _Ring = [None] * span
        self._ring_eject: _Ring = [None] * span
        self._ring_credit: _Ring = [None] * span
        self._ring_nic_credit: _Ring = [None] * span
        self._ring_out_credit: _Ring = [None] * span
        self._rings = (
            self._ring_flit, self._ring_eject, self._ring_credit,
            self._ring_nic_credit, self._ring_out_credit,
        )

        # --- scalar per-lane state -------------------------------------
        self.net_stats = [
            NetworkStats(keep_samples=keep_samples) for _ in range(L)
        ]
        self.rstats = np.zeros((L, len(_RS_IDX)), dtype=np.int64)
        #: per-lane packet table: pid -> [src, dest, vnet, len, creation,
        #: injection]; populated at enqueue, popped at tail ejection
        self.pkt_info: List[Dict[int, list]] = [dict() for _ in range(L)]
        self.nics = [
            [_LaneNic(rc) for _ in range(R)] for _ in range(L)
        ]
        self.nic_active: List[set] = [set() for _ in range(L)]
        self.fin = [0] * L  # flits in network, per lane
        self.lane_queued = [0] * L  # queued/mid-injection packets, per lane
        self.last_progress = [0] * L
        self.faults_injected = [0] * L
        self.blocked = [False] * L
        self.drained = [False] * L
        self.end_cycle = [0] * L
        self._act = np.ones(L, dtype=bool)

        # --- lane refill / streaming point queue -----------------------
        # lanes run on local clocks: local cycle = global - off[lane];
        # a retiring lane's slot is refilled from ``pending`` and its
        # result decoded immediately, keyed by sweep point index
        self._pending: deque = deque(pending or ())
        self.off = [0] * L
        self.lane_point = list(range(L))
        self._next_point = L
        self._results: List[Optional[SimulationResult]] = [None] * (
            L + len(self._pending)
        )
        # lane-occupancy accounting (active lane-cycles / lane-cycles)
        self.active_lane_cycles = 0
        self.total_lane_cycles = 0

        # broadcast index helpers
        self._lane_ids = np.arange(L)
        self._any_schedules = any(
            spec.fault_schedule is not None for spec in self.lanes
        )
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

    # ------------------------------------------------------------------
    # fault injection and crossbar path plans
    # ------------------------------------------------------------------
    def _inject_lane_faults(self, cycle: int) -> None:
        for lane in range(self.L):
            if not self._act[lane]:
                continue
            sched = self.lanes[lane].fault_schedule
            if sched is None:
                continue
            for site in sched.events_at(cycle - self.off[lane]):
                if self._inject_site(lane, site):
                    self.faults_injected[lane] += 1

    def _inject_site(self, lane: int, site) -> bool:
        """Mirror ``BaseRouter.inject_fault``: idempotent, plans refreshed."""
        arr = self._fault_arrays[site.unit]
        if site.vc >= 0:
            idx = (lane, site.router, site.port, site.vc)
        else:
            idx = (lane, site.router, site.port)
        if arr[idx]:
            return False
        arr[idx] = True
        unit = site.unit
        if unit in (FaultUnit.RC_PRIMARY, FaultUnit.RC_DUPLICATE):
            self._have_rc = True
        elif unit is FaultUnit.VA1_ARBITER_SET:
            self._have_va1 = True
        elif unit is FaultUnit.VA2_ARBITER:
            self._have_va2 = True
        elif unit in (FaultUnit.SA1_ARBITER, FaultUnit.SA1_BYPASS):
            self._have_sa1 = True
        if unit in (FaultUnit.XB_MUX, FaultUnit.XB_SECONDARY, FaultUnit.SA2_ARBITER):
            self._recompute_plans(lane, site.router)
        return True

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
            if self.protected:
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
    def _step(self, cycle: int) -> None:
        """One cycle for every active lane — mirrors ``NoCSimulator._step``.

        Traffic injection gates itself per lane on the lane's *local*
        inject window, so lanes installed mid-run warm up and drain on
        their own clocks.
        """
        if self._any_schedules:
            self._inject_lane_faults(cycle)
        self._xb_phase(cycle)
        self._sa_phase(cycle)
        self._va_phase()
        self._rc_phase()
        self._dispatch(cycle)
        self._generate_traffic(cycle)
        self._nic_step(cycle)

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

    def _xb_phase(self, cycle: int) -> None:
        """Traverse last cycle's SA winners — mirrors ``BaseRouter.xb_phase``."""
        if not self.xq_valid.any():
            return
        lx, rx, px = np.nonzero(self.xq_valid)
        self.xq_valid[lx, rx, px] = False
        keep = self._act[lx]
        if not keep.all():
            lx, rx, px = lx[keep], rx[keep], px[keep]
            if lx.size == 0:
                return
        vx = self.xq_slot[lx, rx, px]
        dest = self.xq_dest[lx, rx, px]
        ovc = self.outvc[lx, rx, px, vx]
        h = self.b_head[lx, rx, px, vx]
        fpid = self.b_pid[lx, rx, px, vx, h]
        fdest = self.b_dest[lx, rx, px, vx, h]
        fhops = self.b_hops[lx, rx, px, vx, h] + 1
        ffl = self.b_flags[lx, rx, px, vx, h]
        self.b_head[lx, rx, px, vx] = (h + 1) % self.D
        cnt = self.b_cnt[lx, rx, px, vx] - 1
        self.b_cnt[lx, rx, px, vx] = cnt
        self.rstats[:, _I_TRAV] += np.bincount(lx, minlength=self.L)
        wire = self.pwire[lx, rx, px, vx]

        tail = (ffl & _F_TAIL) != 0
        if tail.any():
            lt, rt, pt, vt = lx[tail], rx[tail], px[tail], vx[tail]
            # release the downstream VC, then finish the packet: the slot
            # restarts on the next queued head or falls idle
            self.alloc[lt, rt, dest[tail], ovc[tail]] = -1
            self.route[lt, rt, pt, vt] = -1
            self.outvc[lt, rt, pt, vt] = -1
            self.excl[lt, rt, pt, vt] = 0
            has_next = cnt[tail] > 0
            hn = self.b_head[lt, rt, pt, vt]
            npid = self.b_pid[lt, rt, pt, vt, hn]
            self.st[lt, rt, pt, vt] = np.where(
                has_next, _ROUTING, _IDLE
            ).astype(np.int8)
            self.vpid[lt, rt, pt, vt] = np.where(has_next, npid, -1)

        wf = (cycle + self.link_lat) % self.span
        wc = (cycle + self.cred_lat) % self.span
        local = dest == PORT_LOCAL
        if local.any():
            self._ring_eject[wf] = (
                lx[local], rx[local], ovc[local],
                fpid[local], ffl[local], fhops[local],
            )
        rem = ~local
        if rem.any():
            self._ring_flit[wf] = (
                lx[rem],
                self.link_dst[rx[rem], dest[rem]],
                self.link_dport[rx[rem], dest[rem]],
                ovc[rem],
                fpid[rem], fdest[rem], fhops[rem], ffl[rem],
            )
        # credit return toward whoever feeds this input port
        pl = px == PORT_LOCAL
        if pl.any():
            self._ring_nic_credit[wc] = (lx[pl], rx[pl], wire[pl])
        pr = ~pl
        if pr.any():
            self._ring_credit[wc] = (
                lx[pr],
                self.up_node[rx[pr], px[pr]],
                self.up_port[rx[pr], px[pr]],
                wire[pr],
            )

    def _swap_slots(self, lane: int, r: int, p: int, a: int, b: int) -> None:
        """Exchange the VC *objects* at physical slots a and b (ft_sa swap).

        Everything that belongs to the slot object moves — pipeline state,
        buffer contents, the wire id (``pwire``) — while position-keyed
        state (arbiters, their priorities, fault flags) stays put.
        """
        ia = (lane, r, p, a)
        ib = (lane, r, p, b)
        for arr in (
            self.st, self.route, self.outvc, self.vpid, self.excl,
            self.b_head, self.b_cnt, self.pwire,
        ):
            arr[ia], arr[ib] = arr[ib], arr[ia]
        for arr in (self.b_pid, self.b_dest, self.b_hops, self.b_flags):
            tmp = arr[ia].copy()
            arr[ia] = arr[ib]
            arr[ib] = tmp
        self.wphys[lane, r, p, self.pwire[ia]] = a
        self.wphys[lane, r, p, self.pwire[ib]] = b

    def _sa_phase(self, cycle: int) -> None:
        """Switch allocation — mirrors ``SAUnit.allocate`` (+ ft_sa bypass)."""
        mask = (self.st == _ACTIVE) & (self.b_cnt > 0)
        mask &= self._act[:, None, None, None]
        if not mask.any():
            return
        lc, rc_, pc, sc = np.nonzero(mask)
        rt = self.route[lc, rc_, pc, sc]
        ov = self.outvc[lc, rc_, pc, sc]
        ok = (self.cred[lc, rc_, rt, ov] > 0) & self.plan_ok[lc, rc_, rt]
        if not ok.all():
            lc, rc_, pc, sc = lc[ok], rc_[ok], pc[ok], sc[ok]
            rt, ov = rt[ok], ov[ok]
            if lc.size == 0:
                return
        # stage 1: one winner per input port.  nonzero's C-order already
        # sorts the candidates by (lane, router, port).
        key = (lc * self.R + rc_) * self.P + pc
        starts, seg = self._segments(key)
        gl, gr, gp = lc[starts], rc_[starts], pc[starts]
        win = self._rr_pick(sc, self.sa1_prio[gl, gr, gp], starts, seg, self.V)
        if self._have_sa1:
            fa = self.f_sa1[gl, gr, gp]
            if fa.any():
                healthy = ~fa
                win &= healthy[seg]
                if not self.protected:
                    self.rstats[:, _I_SA_BLOCK] += np.bincount(
                        gl[fa], minlength=self.L
                    )
                else:
                    # bypass path: grant the rotation default, or transfer
                    # the first candidate into an idle default slot (the
                    # rotation runs on each lane's local clock)
                    bounds = np.append(starts, lc.size)
                    for g in np.flatnonzero(fa):
                        l0, r0, p0 = int(gl[g]), int(gr[g]), int(gp[g])
                        default = (
                            (cycle - self.off[l0]) // self.rot
                        ) % self.V
                        if self.f_sa1b[l0, r0, p0]:
                            self.rstats[l0, _I_SA_BLOCK] += 1
                            continue
                        elems = range(int(bounds[g]), int(bounds[g + 1]))
                        cand = [int(sc[i]) for i in elems]
                        if default in cand:
                            self.rstats[l0, _I_SA_BYPASS] += 1
                            win[int(bounds[g]) + cand.index(default)] = True
                        elif (
                            self.st[l0, r0, p0, default] == _IDLE
                            and self.b_cnt[l0, r0, p0, default] == 0
                        ):
                            self._swap_slots(l0, r0, p0, cand[0], default)
                            self.rstats[l0, _I_VC_XFER] += 1
                # advance only the healthy ports' arbiters (one winner each)
                hw = win & healthy[seg]
                self.sa1_prio[gl[healthy], gr[healthy], gp[healthy]] = (
                    sc[hw] + 1
                ) % self.V
            else:
                self.sa1_prio[gl, gr, gp] = (sc[win] + 1) % self.V
        else:
            self.sa1_prio[gl, gr, gp] = (sc[win] + 1) % self.V

        wl, wr, wp, ws = lc[win], rc_[win], pc[win], sc[win]
        if wl.size == 0:
            return
        wrt, wov = rt[win], ov[win]
        # stage 2: winners compete per *arbiter* port (secondary paths
        # borrow the neighbouring output's arbiter)
        arb = self.plan_arb[wl, wr, wrt]
        key2 = (wl * self.R + wr) * self.P + arb
        order = np.argsort(key2, kind="stable")
        starts2, seg2 = self._segments(key2[order])
        g2l = wl[order][starts2]
        g2r = wr[order][starts2]
        g2a = arb[order][starts2]
        win2 = self._rr_pick(
            wp[order], self.sa2_prio[g2l, g2r, g2a], starts2, seg2, self.P
        )
        live = ~self.f_sa2[g2l, g2r, g2a]
        if not live.all():
            win2 &= live[seg2]  # faulty stage-2 arbiter: silent skip
        self.sa2_prio[g2l[live], g2r[live], g2a[live]] = (
            wp[order][win2] + 1
        ) % self.P

        gi = order[win2]
        Gl, Gr, Gp, Gs = wl[gi], wr[gi], wp[gi], ws[gi]
        Grt, Gov = wrt[gi], wov[gi]
        self.cred[Gl, Gr, Grt, Gov] -= 1
        self.rstats[:, _I_SA_GRANT] += np.bincount(Gl, minlength=self.L)
        sec = self.plan_sec[Gl, Gr, Grt]
        if sec.any():
            self.rstats[:, _I_SEC] += np.bincount(Gl[sec], minlength=self.L)
        self.xq_valid[Gl, Gr, Gp] = True
        self.xq_slot[Gl, Gr, Gp] = Gs
        self.xq_dest[Gl, Gr, Gp] = Grt

    def _borrow_arbiters(
        self,
        lw: np.ndarray,
        rw: np.ndarray,
        pw: np.ndarray,
        sw: np.ndarray,
        fa: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Protected stage-1 arbiter borrowing (scalar; faults are rare).

        Mirrors ``ArbiterSharingVAUnit._stage1_arbiters``: a VC whose own
        arbiter set is faulty scans sibling slots in order for a healthy,
        unlent lender that is IDLE or ACTIVE this cycle.  Returns the
        keep-mask and per-requester owner slot (the priority row used).
        """
        keep = np.ones(lw.shape, dtype=bool)
        owner = sw.copy()
        borrowed: set = set()
        prev_key = None
        for i in np.flatnonzero(fa):
            l0, r0, p0, s0 = int(lw[i]), int(rw[i]), int(pw[i]), int(sw[i])
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
                self.rstats[l0, _I_VA_BORROW_WAIT] += 1
                self.rstats[l0, _I_VA_BLOCK] += 1
                keep[i] = False
            else:
                borrowed.add(lender)
                owner[i] = lender
        return keep, owner

    def _va_phase(self) -> None:
        """VC allocation — mirrors ``VAUnit.allocate`` (+ ft_va borrowing)."""
        mask = (self.st == _WAITING_VA) & self._act[:, None, None, None]
        if not mask.any():
            return
        lw, rw, pw, sw = np.nonzero(mask)
        owner = sw
        if self._have_va1:
            fa = self.f_va1[lw, rw, pw, sw]
            if fa.any():
                if self.protected:
                    keep, owner = self._borrow_arbiters(lw, rw, pw, sw, fa)
                else:
                    self.rstats[:, _I_VA_BLOCK] += np.bincount(
                        lw[fa], minlength=self.L
                    )
                    keep = ~fa
                lw, rw, pw, sw = lw[keep], rw[keep], pw[keep], sw[keep]
                owner = owner[keep]
                if lw.size == 0:
                    return
        rt = self.route[lw, rw, pw, sw]
        # free downstream VCs of the requester's vnet (the *wire id* of the
        # slot object decides the vnet, not the physical position)
        lo = (self.pwire[lw, rw, pw, sw] // self.VV) * self.VV
        da = np.arange(self.V)
        free = (da >= lo[:, None]) & (da < (lo + self.VV)[:, None])
        free &= self.alloc[lw, rw, rt, :] < 0
        if self._have_va2 and self.protected:
            ex = self.excl[lw, rw, pw, sw]
            if ex.any():
                free &= ((ex[:, None] >> da) & 1) == 0
        any_free = free.any(axis=1)
        if not any_free.all():
            nf = ~any_free
            self.rstats[:, _I_VA_NOFREE] += np.bincount(
                lw[nf], minlength=self.L
            )
            lw, rw, pw, sw = lw[any_free], rw[any_free], pw[any_free], sw[any_free]
            owner, rt, free = owner[any_free], rt[any_free], free[any_free]
            if lw.size == 0:
                return
        # stage 1 pick: the owner slot's per-output round-robin row
        prio = self.va1_prio[lw, rw, pw, owner, rt]
        dist = np.where(free, (da - prio[:, None]) % self.V, self.V)
        choice = np.argmin(dist, axis=1)
        self.va1_prio[lw, rw, pw, owner, rt] = (choice + 1) % self.V

        # stage 2: proposals grouped per (output port, downstream VC)
        flat = pw * self.V + sw
        key = ((lw * self.R + rw) * self.P + rt) * self.V + choice
        order = np.argsort(key, kind="stable")
        starts, seg = self._segments(key[order])
        g_l = lw[order][starts]
        g_r = rw[order][starts]
        g_rt = rt[order][starts]
        g_ch = choice[order][starts]
        live = np.ones(starts.shape, dtype=bool)
        if self._have_va2:
            faulty_g = self.f_va2[g_l, g_r, g_rt, g_ch]
            if faulty_g.any():
                live = ~faulty_g
                fe = faulty_g[seg]
                self.rstats[:, _I_VA2_RETRY] += np.bincount(
                    lw[order][fe], minlength=self.L
                )
                if self.protected:
                    # record the exclusion so the retry picks elsewhere
                    self.excl[
                        lw[order][fe], rw[order][fe],
                        pw[order][fe], sw[order][fe],
                    ] |= np.int64(1) << choice[order][fe]
                    self._have_excl = True
        win = self._rr_pick(
            flat[order], self.va2_prio[g_l, g_r, g_rt, g_ch], starts, seg, self.PV
        )
        win &= live[seg]
        self.va2_prio[g_l[live], g_r[live], g_rt[live], g_ch[live]] = (
            flat[order][win] + 1
        ) % self.PV

        gi = order[win]
        Wl, Wr, Wp, Ws = lw[gi], rw[gi], pw[gi], sw[gi]
        Wrt, Wch = rt[gi], choice[gi]
        self.outvc[Wl, Wr, Wp, Ws] = Wch
        self.st[Wl, Wr, Wp, Ws] = _ACTIVE
        self.excl[Wl, Wr, Wp, Ws] = 0
        self.alloc[Wl, Wr, Wrt, Wch] = self.vpid[Wl, Wr, Wp, Ws]
        self.rstats[:, _I_VA_GRANT] += np.bincount(Wl, minlength=self.L)
        bm = owner[gi] != Ws
        if bm.any():
            self.rstats[:, _I_VA_BORROWED] += np.bincount(
                Wl[bm], minlength=self.L
            )

    def _rc_phase(self) -> None:
        """Route computation — mirrors ``RCUnit``/``DuplicatedRCUnit``."""
        mask = (self.st == _ROUTING) & self._act[:, None, None, None]
        if not mask.any():
            return
        li, ri, pi, si = np.nonzero(mask)
        if self._have_rc:
            f1 = self.f_rc1[li, ri, pi]
            if self.protected:
                blocked = f1 & self.f_rc2[li, ri, pi]
                dup = f1 & ~blocked
                if dup.any():
                    self.rstats[:, _I_RC_DUP] += np.bincount(
                        li[dup], minlength=self.L
                    )
            else:
                blocked = f1
            if blocked.any():
                self.rstats[:, _I_RC_BLOCK] += np.bincount(
                    li[blocked], minlength=self.L
                )
                keep = ~blocked
                li, ri, pi, si = li[keep], ri[keep], pi[keep], si[keep]
                if li.size == 0:
                    return
        h = self.b_head[li, ri, pi, si]
        out = self.rtab[ri, self.b_dest[li, ri, pi, si, h]]
        pok = self.plan_ok[li, ri, out]
        if not pok.all():
            bad = ~pok
            self.rstats[:, _I_UNREACH] += np.bincount(
                li[bad], minlength=self.L
            )
            li, ri, pi, si, out = li[pok], ri[pok], pi[pok], si[pok], out[pok]
        self.route[li, ri, pi, si] = out
        self.st[li, ri, pi, si] = _WAITING_VA

    # ------------------------------------------------------------------
    # event delivery and the NIC boundary
    # ------------------------------------------------------------------
    def _dispatch(self, cycle: int) -> None:
        """Deliver this slot's events — mirrors ``EventScheduler.dispatch``."""
        s = cycle % self.span
        ev = self._ring_flit[s]
        self._ring_flit[s] = None
        if ev is not None:
            keep = self._act[ev[0]]
            if not keep.all():
                ev = tuple(a[keep] for a in ev)
            l, node, port, w, pid, dst, hops, flags = ev
            if l.size:
                phys = self.wphys[l, node, port, w]
                cnt = self.b_cnt[l, node, port, phys]
                pos = (self.b_head[l, node, port, phys] + cnt) % self.D
                self.b_pid[l, node, port, phys, pos] = pid
                self.b_dest[l, node, port, phys, pos] = dst
                self.b_hops[l, node, port, phys, pos] = hops
                self.b_flags[l, node, port, phys, pos] = flags
                self.b_cnt[l, node, port, phys] = cnt + 1
                self.rstats[:, _I_BUFW] += np.bincount(l, minlength=self.L)
                idle = self.st[l, node, port, phys] == _IDLE
                if idle.any():
                    il, ino = l[idle], node[idle]
                    ipo, iph = port[idle], phys[idle]
                    self.st[il, ino, ipo, iph] = _ROUTING
                    self.route[il, ino, ipo, iph] = -1
                    self.outvc[il, ino, ipo, iph] = -1
                    self.excl[il, ino, ipo, iph] = 0
                    self.vpid[il, ino, ipo, iph] = pid[idle]
                for lane in np.unique(l):
                    self.last_progress[lane] = cycle
        ev = self._ring_eject[s]
        self._ring_eject[s] = None
        oc_l: list = []
        oc_n: list = []
        oc_w: list = []
        if ev is not None:
            act = self._act
            stats = self.net_stats
            fin = self.fin
            lp = self.last_progress
            pinfo = self.pkt_info
            off = self.off
            for lane, node, w, pid, flags, hops in zip(
                ev[0].tolist(), ev[1].tolist(), ev[2].tolist(),
                ev[3].tolist(), ev[4].tolist(), ev[5].tolist(),
            ):
                if not act[lane]:
                    continue
                ns = stats[lane]
                ns.flits_ejected += 1
                fin[lane] -= 1
                lp[lane] = cycle
                oc_l.append(lane)
                oc_n.append(node)
                oc_w.append(w)
                if flags & _F_TAIL:
                    info = pinfo[lane].pop(pid)
                    ns.record_packet(LatencySample(
                        packet_id=pid,
                        src=info[0],
                        dest=info[1],
                        vnet=info[2],
                        size_flits=info[3],
                        creation_cycle=info[4],
                        injection_cycle=info[5],
                        ejection_cycle=cycle - off[lane],
                        hops=hops,
                    ))
        if oc_l:
            self._ring_out_credit[(cycle + self.cred_lat) % self.span] = (
                np.asarray(oc_l), np.asarray(oc_n), np.asarray(oc_w),
            )
        ev = self._ring_credit[s]
        self._ring_credit[s] = None
        if ev is not None:
            keep = self._act[ev[0]]
            if not keep.all():
                ev = tuple(a[keep] for a in ev)
            l, node, port, w = ev
            self.cred[l, node, port, w] += 1
        ev = self._ring_nic_credit[s]
        self._ring_nic_credit[s] = None
        if ev is not None:
            act = self._act
            nics = self.nics
            for lane, node, w in zip(
                ev[0].tolist(), ev[1].tolist(), ev[2].tolist()
            ):
                if act[lane]:
                    nics[lane][node].credits[w] += 1
        ev = self._ring_out_credit[s]
        self._ring_out_credit[s] = None
        if ev is not None:
            keep = self._act[ev[0]]
            if not keep.all():
                ev = tuple(a[keep] for a in ev)
            l, node, w = ev
            self.cred[l, node, PORT_LOCAL, w] += 1

    def _generate_traffic(self, cycle: int) -> None:
        iu = self._inject_until
        for lane in range(self.L):
            if not self._act[lane]:
                continue
            local = cycle - self.off[lane]
            if local >= iu:
                continue
            spec = self.lanes[lane]
            pkts = list(spec.traffic.generate(local))
            if not pkts:
                continue
            ns = self.net_stats[lane]
            nics = self.nics[lane]
            active = self.nic_active[lane]
            info = self.pkt_info[lane]
            for pkt in pkts:
                nic = nics[pkt.src]
                nic.srcq[pkt.vnet].append(pkt)
                nic.queued += 1
                ns.packets_created += 1
                self.lane_queued[lane] += 1
                active.add(pkt.src)
                info[pkt.packet_id] = [
                    pkt.src, pkt.dest, pkt.vnet, pkt.size_flits,
                    pkt.creation_cycle, -1,
                ]

    def _nic_step(self, cycle: int) -> None:
        """Inject up to one flit per NIC — mirrors ``NetworkInterface.step``.

        The per-NIC decision logic is scalar (source queues, credits, vnet
        round-robin), but the resulting buffer writes are batched into one
        vectorised scatter: every NIC injects at most one flit per cycle,
        so the target cells are distinct.
        """
        NV, VV = self.NV, self.VV
        inj: list = []
        for lane in range(self.L):
            if not self._act[lane] or not self.nic_active[lane]:
                continue
            ns = self.net_stats[lane]
            info = self.pkt_info[lane]
            done_nodes = []
            for node in self.nic_active[lane]:
                nic = self.nics[lane][node]
                credits = nic.credits
                for i in range(NV):
                    vnet = (nic.rr + i) % NV
                    ai = nic.active[vnet]
                    if ai is None:
                        q = nic.srcq[vnet]
                        if q:
                            # NIC-side VC allocation on the local input port
                            for d in range(vnet * VV, (vnet + 1) * VV):
                                if nic.alloc[d] is None:
                                    pkt = q.popleft()
                                    nic.alloc[d] = pkt.packet_id
                                    ai = [
                                        pkt.packet_id, pkt.dest, 0,
                                        pkt.size_flits, d,
                                    ]
                                    nic.active[vnet] = ai
                                    break
                    if ai is None:
                        continue
                    d = ai[4]
                    if credits[d] <= 0:
                        continue
                    pid, dest, idx, length = ai[0], ai[1], ai[2], ai[3]
                    flags = (_F_HEAD if idx == 0 else 0) | (
                        _F_TAIL if idx == length - 1 else 0
                    )
                    inj.append((lane, node, d, pid, dest, flags))
                    credits[d] -= 1
                    ns.flits_injected += 1
                    self.fin[lane] += 1
                    if idx == 0:
                        ns.packets_injected += 1
                        info[pid][5] = cycle - self.off[lane]
                    if idx == length - 1:
                        nic.alloc[d] = None
                        nic.active[vnet] = None
                        nic.queued -= 1
                        self.lane_queued[lane] -= 1
                        if nic.queued == 0:
                            done_nodes.append(node)
                    else:
                        ai[2] = idx + 1
                    nic.rr = (vnet + 1) % NV
                    break  # local link bandwidth: one flit per cycle
            for node in done_nodes:
                self.nic_active[lane].discard(node)
        if inj:
            self._scatter_local_flits(inj)

    def _scatter_local_flits(self, inj: list) -> None:
        """Write this cycle's NIC injections into the local-port buffers.

        One flit per NIC per cycle means the (lane, node, slot) targets
        are distinct, so a plain fancy-index scatter is exact.
        """
        l, node, w, pid, dest, flags = (np.asarray(c) for c in zip(*inj))
        phys = self.wphys[l, node, PORT_LOCAL, w]
        cnt = self.b_cnt[l, node, PORT_LOCAL, phys]
        pos = (self.b_head[l, node, PORT_LOCAL, phys] + cnt) % self.D
        self.b_pid[l, node, PORT_LOCAL, phys, pos] = pid
        self.b_dest[l, node, PORT_LOCAL, phys, pos] = dest
        self.b_hops[l, node, PORT_LOCAL, phys, pos] = 0
        self.b_flags[l, node, PORT_LOCAL, phys, pos] = flags
        self.b_cnt[l, node, PORT_LOCAL, phys] = cnt + 1
        self.rstats[:, _I_BUFW] += np.bincount(l, minlength=self.L)
        idle = self.st[l, node, PORT_LOCAL, phys] == _IDLE
        if idle.any():
            il, ino, iph = l[idle], node[idle], phys[idle]
            self.st[il, ino, PORT_LOCAL, iph] = _ROUTING
            self.route[il, ino, PORT_LOCAL, iph] = -1
            self.outvc[il, ino, PORT_LOCAL, iph] = -1
            self.excl[il, ino, PORT_LOCAL, iph] = 0
            self.vpid[il, ino, PORT_LOCAL, iph] = pid[idle]

    # ------------------------------------------------------------------
    # run loop: shared cycle counter, independent lane retirement
    # ------------------------------------------------------------------
    def run(self) -> List[SimulationResult]:
        """Run every point to completion; results in point order.

        Lanes share the global cycle counter but run on their own local
        clocks: each blocks, drains and retires exactly where its serial
        run would (watchdog trips freeze a lane mid-flight; the drain
        predicate — no flits in the network, no queued packets — retires
        it cleanly).  Freed slots are refilled from the pending queue
        until the whole point stream has run.
        """
        sc = self.sim_config
        wd = sc.watchdog_cycles
        for ns in self.net_stats:
            ns.set_window(sc.warmup_cycles, sc.warmup_cycles + sc.measure_cycles)
        inject_until = self._inject_until
        horizon = inject_until + sc.drain_cycles
        cycle = 0
        while True:
            # per-lane retirement scan, in serial check order: watchdog
            # first (it is evaluated before the loop predicates in
            # ``NoCSimulator.run``), then the drain predicate / deadline
            for lane in np.flatnonzero(self._act):
                lane = int(lane)
                if (
                    self.fin[lane] > 0
                    and cycle - self.last_progress[lane] > wd
                ):
                    self.blocked[lane] = True
                    self._retire(lane, cycle, drained=False)
                    continue
                local = cycle - self.off[lane]
                if local >= inject_until:
                    done = (
                        self.fin[lane] == 0 and self.lane_queued[lane] == 0
                    )
                    if done or local >= horizon:
                        self._retire(lane, cycle, drained=done)
            if not self._act.any():
                break
            self.active_lane_cycles += int(self._act.sum())
            self.total_lane_cycles += self.L
            self._step(cycle)
            cycle += 1
        return cast(List[SimulationResult], list(self._results))

    @property
    def lane_occupancy(self) -> float:
        """Fraction of lane slots active, averaged over the cycles run."""
        if self.total_lane_cycles == 0:
            return 1.0
        return self.active_lane_cycles / self.total_lane_cycles

    def _retire(self, lane: int, cycle: int, drained: bool) -> None:
        """Decode one finished lane's result, then refill its slot."""
        local = cycle - self.off[lane]
        self.end_cycle[lane] = local
        self.drained[lane] = drained
        self._act[lane] = False
        self._results[self.lane_point[lane]] = SimulationResult(
            stats=self.net_stats[lane],
            cycles=local,
            blocked=self.blocked[lane],
            drained=drained,
            router_stats=RouterStats(
                *(int(v) for v in self.rstats[lane])
            ),
            faults_injected=self.faults_injected[lane],
        )
        if self._pending:
            self._install_lane(lane, self._pending.popleft(), cycle)

    def _install_lane(self, lane: int, spec: LaneSpec, cycle: int) -> None:
        """Import the next pending point into a freed lane slot.

        Every per-lane array slice and scalar returns to its power-on
        value and the old occupant's stale in-flight events are purged
        from the calendar rings, so the refilled lane is bit-identical
        to the same point run in a fresh fabric — the array form of a
        router's power-on ``reset()``.
        """
        rc = self.config.router
        self.st[lane] = _IDLE
        self.route[lane] = -1
        self.outvc[lane] = -1
        self.vpid[lane] = -1
        self.excl[lane] = 0
        self.pwire[lane] = np.arange(self.V, dtype=np.int32)
        self.wphys[lane] = np.arange(self.V, dtype=np.int32)
        self.b_pid[lane] = -1
        self.b_dest[lane] = -1
        self.b_hops[lane] = 0
        self.b_flags[lane] = 0
        self.b_head[lane] = 0
        self.b_cnt[lane] = 0
        self.cred[lane] = self.D
        self.alloc[lane] = -1
        self.va1_prio[lane] = 0
        self.va2_prio[lane] = 0
        self.sa1_prio[lane] = 0
        self.sa2_prio[lane] = 0
        for arr in self._fault_arrays.values():
            arr[lane] = False
        self.plan_ok[lane] = True
        self.plan_arb[lane] = np.arange(self.P, dtype=np.int32)
        self.plan_sec[lane] = False
        self.xq_valid[lane] = False
        self._purge_lane_events(lane)

        ns = NetworkStats(keep_samples=self.keep_samples)
        sc = self.sim_config
        ns.set_window(sc.warmup_cycles, sc.warmup_cycles + sc.measure_cycles)
        self.net_stats[lane] = ns
        self.rstats[lane] = 0
        self.pkt_info[lane] = {}
        self.nics[lane] = [_LaneNic(rc) for _ in range(self.R)]
        self.nic_active[lane] = set()
        self.fin[lane] = 0
        self.lane_queued[lane] = 0
        self.last_progress[lane] = cycle
        self.faults_injected[lane] = 0
        self.blocked[lane] = False
        self.drained[lane] = False
        self.end_cycle[lane] = 0
        self.off[lane] = cycle
        self.lanes[lane] = spec
        self.lane_point[lane] = self._next_point
        self._next_point += 1
        if spec.fault_schedule is not None:
            self._any_schedules = True
        self._act[lane] = True

    def _purge_lane_events(self, lane: int) -> None:
        """Drop a retired lane's stale in-flight events from every ring.

        A watchdog-blocked lane retires with flits still on the wire;
        without the purge, ``_dispatch``'s activity filter would deliver
        them into the slot's next occupant.
        """
        for ring in self._rings:
            for i, ev in enumerate(ring):
                if ev is None:
                    continue
                keep = ev[0] != lane
                ring[i] = (
                    tuple(a[keep] for a in ev) if keep.any() else None
                )


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


class _LaneNic:
    """Scalar NIC state machine of one (lane, node) — plain Python lists.

    The NIC boundary is inherently per-packet (source queues, one-flit-
    per-cycle injection, per-vnet round-robin), so it stays scalar; lists
    beat NumPy scalar indexing by an order of magnitude here.
    """

    __slots__ = (
        "credits", "alloc", "active", "rr", "queued", "srcq",
    )

    def __init__(self, rc) -> None:
        self.credits = [rc.buffer_depth] * rc.num_vcs
        self.alloc: list = [None] * rc.num_vcs
        #: per-vnet active injection: [pid, dest, next_idx, length,
        #: wire_vc] or None
        self.active: list = [None] * rc.num_vnets
        self.rr = 0
        self.queued = 0
        #: per-vnet FIFO of queued Packets
        self.srcq: list = [deque() for _ in range(rc.num_vnets)]
