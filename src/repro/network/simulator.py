"""The cycle-accurate NoC simulator (GEM5/GARNET substitute).

Per cycle, the simulator executes — for *all* routers before moving on —

1. fault injection due this cycle,
2. **XB**: crossbar traversal of last cycle's SA winners (flits leave onto
   links, credits return upstream),
3. **SA**: switch allocation,
4. **VA**: virtual-channel allocation,
5. **RC**: routing computation,
6. link/credit event delivery (flits arriving after link traversal),
7. traffic generation and NIC injection.

Executing the pipeline phases in reverse order makes each flit advance at
most one stage per cycle, which realises the paper's 4-stage pipeline
(Figure 2) plus a one-cycle link traversal: per-hop head latency is
RC+VA+SA+XB+LT = 5 cycles at zero load.

The simulator is deliberately plain Python tuned the way the hpc-parallel
guides recommend: legible first, then sped up with *activity tracking*
rather than clever machinery — the cycle loop visits only the routers and
NICs in the explicit active sets (idle components cost nothing; see
``docs/performance.md``), link/credit events live in a fixed calendar
ring, and results are bit-identical to the full-scan reference stepper
(:meth:`NoCSimulator._step_reference`, pinned by the golden determinism
test).  Bulk randomness (traffic generation, fault schedules) is
vectorised with NumPy in the traffic/fault modules.

On top of the active sets, :meth:`NoCSimulator._run_stepped` is *event-driven*:
when the fabric is provably idle (no active routers or NICs, no link or
credit events in flight) the loop asks every wake source for its next
due cycle — the traffic generator's :meth:`next_injection` lookahead,
scheduled wake events on the calendar (fault arrivals), the phase
boundary — and advances ``cycle`` straight to the earliest one.  Fully
idle stretches (drain tails after a burst, low-injection loads,
fault-isolated quiet periods) therefore cost zero work per cycle, and
the skip is invisible in the results: every skipped cycle is a no-op in
the reference stepper too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass
from time import perf_counter
from typing import Callable, Iterable, Optional, Protocol

import numpy as np

from ..config import NetworkConfig, PORT_LOCAL, SimulationConfig
from ..faults.recovery import RecoveryMonitor
from ..faults.schedule import FaultSchedule
from ..observability import EventTracer, Observability, harvest, maybe_create
from ..router.flit import Packet
from ..router.router import BaseRouter, BaselineRouter, RouterStats
from ..router.routing import RoutingFunction, make_routing
from .nic import NetworkInterface
from .stats import NetworkStats
from .topology import Topology


class TrafficSource(Protocol):
    """Anything that emits packets: see :mod:`repro.traffic.generator`.

    Sources may additionally implement the *lookahead extension*::

        def next_injection(self, cycle: int, horizon: int) -> Optional[int]

    returning the next cycle in ``[cycle, horizon)`` that will yield
    packets (consuming any randomness for the quiet cycles in between,
    exactly as per-cycle ``generate`` calls would), or ``None`` when the
    window is quiet.  The event-driven loop uses it to skip idle
    stretches; sources without it simply disable skipping during the
    injection window.  A source that declares its ``offered_load`` (flits
    per cycle over the whole fabric) lets :meth:`NoCSimulator.run` hand a
    dense run to a lane of the array engine; others are always stepped.
    """

    def generate(self, cycle: int) -> Iterable[Packet]:
        """Packets created at ``cycle`` (their ``src`` selects the NIC)."""
        ...


# The ``FaultSchedule`` protocol lives in :mod:`repro.faults.schedule`
# (``events_at`` / ``next_cycle`` / ``heals_due``, all mandatory) and is
# re-imported above for the simulator's call sites; a schedule's
# ``recovery_log = True`` makes the simulator install a
# :class:`repro.faults.recovery.RecoveryMonitor` for the run.


RouterFactory = Callable[[int, RoutingFunction], BaseRouter]

#: offered load, in flits per cycle over the whole fabric, from which a
#: width-1 lane finishes a run sooner than the active-set loop, whose cost
#: follows activity, not cycles (``docs/performance.md``, "One run, one lane")
LANE_BREAK_EVEN = 4.0


def baseline_router_factory(config: NetworkConfig) -> RouterFactory:
    """Factory producing unprotected baseline routers."""

    def make(node: int, routing: RoutingFunction) -> BaseRouter:
        return BaselineRouter(node, config.router, routing)

    return make


@dataclass
class SimulationResult:
    """Outcome of one :meth:`NoCSimulator.run`."""

    stats: NetworkStats
    cycles: int
    blocked: bool
    drained: bool
    router_stats: RouterStats
    faults_injected: int
    #: exported observability snapshot (``Observability.export``) when the
    #: run was instrumented, else ``None``; plain dicts, so it survives
    #: pickling back from parallel sweep workers
    observability: Optional[dict] = None
    #: per-event recovery summary (``RecoveryMonitor.summary``) when the
    #: fault schedule requested a recovery log, else ``None``; plain
    #: dicts, so campaign results flow through ``run_lane_sweep`` and the
    #: checkpoint store with zero new plumbing
    recovery: Optional[dict] = None

    @property
    def avg_network_latency(self) -> float:
        return self.stats.avg_network_latency

    @property
    def avg_total_latency(self) -> float:
        return self.stats.avg_total_latency


# integer-coded event kinds: indices into each calendar slot's per-kind
# event lists (cheaper than string-tag dispatch, and grouping by kind keeps
# the dispatch loops monomorphic)
EV_FLIT = 0
EV_EJECT = 1
EV_CREDIT = 2
EV_NIC_CREDIT = 3
EV_OUT_CREDIT = 4
_NUM_EVENT_KINDS = 5


class EventScheduler:
    """Event queue — a calendar ring keyed by delivery cycle.

    Every link/credit event is scheduled exactly ``link_latency`` or
    ``credit_latency`` cycles ahead, so a fixed ring of
    ``max(link, credit) + 1`` slots indexed by ``cycle % span`` replaces a
    dict keyed on absolute cycles.  Each slot holds one list per event
    kind.

    Dispatch order is behaviour-identical to the old insertion-ordered
    queue (and the golden determinism test pins it): within one cycle each
    delivery targets a distinct (router, port, VC) or (NIC, VC) — one flit
    per link, one credit per freed slot — so deliveries of *different*
    kinds commute, and within a kind the per-list insertion order is the
    old queue's insertion order.  Only ejection has an observable side
    channel (trace events, ``on_eject``), and ejections stay in their own
    ordered list.
    """

    def __init__(self, sim: "NoCSimulator") -> None:
        self._sim = sim
        self._link_latency = sim.config.link_latency
        self._credit_latency = sim.config.credit_latency
        span = max(self._link_latency, self._credit_latency) + 1
        self._span = span
        self._ring: list[list[list]] = [
            [[] for _ in range(_NUM_EVENT_KINDS)] for _ in range(span)
        ]
        # dense wiring views (plain list indexing on the per-flit path)
        self._out_link = sim.topology.out_link
        #: flits in flight (pending EV_FLIT + EV_EJECT events), maintained
        #: so ``pending_flits`` is O(1) for the per-cycle drain predicate
        self._in_flight = 0
        #: all ring events in flight (flits + credits) — O(1) idle check
        self._pending = 0
        self.cycle = 0
        #: flit-lifecycle tracer, installed by the simulator when enabled
        self.tracer: Optional["EventTracer"] = None

    # -- called by routers during the XB phase -----------------------------
    def deliver_flit(self, src_node: int, out_port: int, out_vc: int, flit) -> None:
        """Put a flit on the link leaving (src_node, out_port)."""
        slot = self._ring[(self.cycle + self._link_latency) % self._span]
        if out_port == PORT_LOCAL:
            slot[EV_EJECT].append((src_node, out_vc, flit))
            self._in_flight += 1
            self._pending += 1
            return
        link = self._out_link[src_node][out_port]
        if link is None:
            raise AssertionError(
                f"router {src_node} sent a flit off the mesh edge "
                f"(port {out_port}): routing bug"
            )
        slot[EV_FLIT].append((link[0], link[1], out_vc, flit))
        self._in_flight += 1
        self._pending += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                self.cycle,
                "link",
                src_node,
                out_port=out_port,
                out_vc=out_vc,
                packet=flit.packet_id,
                flit=flit.flit_index,
            )

    def return_credit(self, node: int, in_port: int, wire_vc: int) -> None:
        """A slot of (node, in_port, wire_vc) freed; credit the upstream."""
        slot = self._ring[(self.cycle + self._credit_latency) % self._span]
        self._pending += 1
        if in_port == PORT_LOCAL:
            slot[EV_NIC_CREDIT].append((node, wire_vc))
            return
        # a mesh link's reverse twin: out_link names the feeding output too
        up = self._out_link[node][in_port]
        if up is None:
            raise AssertionError(
                f"credit from unconnected port {in_port} of router {node}"
            )
        slot[EV_CREDIT].append((up[0], up[1], wire_vc))

    def return_nic_credit(self, node: int, wire_vc: int) -> None:
        """NIC consumed a flit; credit the router's local output port."""
        slot = self._ring[(self.cycle + self._credit_latency) % self._span]
        slot[EV_OUT_CREDIT].append((node, wire_vc))
        self._pending += 1

    # -- called by the simulator's link phase -------------------------------
    def dispatch(self, cycle: int) -> int:
        """Deliver all events due at ``cycle``; returns #flit deliveries."""
        slot = self._ring[cycle % self._span]
        flit_evs, eject_evs, credit_evs, nic_credit_evs, out_credit_evs = slot
        sim = self._sim
        routers = sim.routers
        flits = 0
        if flit_evs:
            for dst, dst_port, vc, flit in flit_evs:
                routers[dst].receive_flit(dst_port, vc, flit, cycle)
            # a hop-by-hop link delivery is forward progress too: a
            # heavily loaded but live network may go many cycles
            # between ejections without being blocked
            sim._last_progress = cycle
            flits = len(flit_evs)
            self._in_flight -= flits
            self._pending -= flits
            flit_evs.clear()
        if eject_evs:
            nics = sim.nics
            on_eject = sim.on_eject
            for node, vc, flit in eject_evs:
                if on_eject is not None:
                    on_eject(flit, cycle)
                nics[node].eject(flit, vc, cycle, self)
            n = len(eject_evs)
            sim.flits_in_network -= n
            sim._last_progress = cycle
            flits += n
            self._in_flight -= n
            self._pending -= n
            eject_evs.clear()
        if credit_evs:
            for node, out_port, vc in credit_evs:
                routers[node].receive_credit(out_port, vc)
            self._pending -= len(credit_evs)
            credit_evs.clear()
        if nic_credit_evs:
            nics = sim.nics
            for node, vc in nic_credit_evs:
                nics[node].receive_credit(vc)
            self._pending -= len(nic_credit_evs)
            nic_credit_evs.clear()
        if out_credit_evs:
            for node, vc in out_credit_evs:
                routers[node].receive_credit(PORT_LOCAL, vc)
            self._pending -= len(out_credit_evs)
            out_credit_evs.clear()
        return flits

    @property
    def pending_events(self) -> int:
        """Ring events in flight (flits + credits), O(1)."""
        return self._pending

    def pending_flits(self) -> int:
        """Flits currently in flight on links (incl. NIC ejections)."""
        return self._in_flight

    def check_invariants(self) -> None:
        """O(1) counters must match the actual ring contents."""
        actual = sum(len(evs) for slot in self._ring for evs in slot)
        assert actual == self._pending, (
            f"event counter {self._pending} != ring contents {actual}"
        )


class NoCSimulator:
    """Builds the fabric and runs the cycle loop."""

    def __init__(
        self,
        config: NetworkConfig,
        sim_config: SimulationConfig,
        traffic: TrafficSource,
        router_factory: Optional[RouterFactory] = None,
        fault_schedule: Optional[FaultSchedule] = None,
        routing_kind: str = "xy",
        keep_samples: bool = False,
        on_eject: Optional[Callable] = None,
        observability: Optional[Observability] = None,
        use_reference_stepper: bool = False,
    ) -> None:
        if fault_schedule is not None:
            for method in ("events_at", "next_cycle", "heals_due"):
                if not callable(getattr(fault_schedule, method, None)):
                    raise TypeError(
                        f"fault_schedule {type(fault_schedule).__name__!r} "
                        f"is not a FaultSchedule: missing {method}()"
                    )
        self.config = config
        self.sim_config = sim_config
        self.traffic = traffic
        self.topology = Topology(config)
        self.routing = make_routing(config, routing_kind)
        self.routing_kind = routing_kind
        factory = router_factory or baseline_router_factory(config)
        self.routers: list[BaseRouter] = [
            factory(node, self.routing) for node in range(config.num_nodes)
        ]
        self.stats = NetworkStats(keep_samples=keep_samples)
        self.nics = [
            NetworkInterface(n, self.routers[n], config.router, self.stats)
            for n in range(config.num_nodes)
        ]
        self.scheduler = EventScheduler(self)
        self.fault_schedule = fault_schedule
        #: the cycle ``_step`` next polls the schedule on (its ``next_cycle()``)
        self._fault_due = fault_schedule.next_cycle() if fault_schedule is not None else None
        #: observability hook: called as ``on_eject(flit, cycle)`` for every
        #: flit consumed at a destination NIC (used e.g. by the ECC
        #: datapath study to decode payload codewords)
        self.on_eject = on_eject
        #: tracing/metrics/profiling bundle; ``None`` (the default, unless
        #: :func:`repro.observability.configure` enabled it process-wide)
        #: keeps every instrumentation site a single attribute check
        self.obs: Optional[Observability] = (
            observability if observability is not None else maybe_create()
        )
        tracer = self.obs.tracer if self.obs is not None else None
        if tracer is not None:
            # every trace holds the ``packet`` record; the per-stage events,
            # which only this engine's objects emit, go to a handed tracer
            for nic in self.nics:
                nic.packet_tracer = tracer
            if observability is not None:
                for r in self.routers:
                    r.tracer = tracer
                for nic in self.nics:
                    nic.tracer = tracer
                self.scheduler.tracer = tracer
        self.flits_in_network = 0
        self.faults_injected = 0
        #: per-router recovery accounting; installed only when the fault
        #: schedule asks for it (``recovery_log``), so every other
        #: run pays a single ``is not None`` check per cycle
        self.recovery_monitor: Optional[RecoveryMonitor] = (
            self._install_recovery(fault_schedule)
        )
        self.cycle = 0
        self._last_progress = 0
        self.blocked = False
        #: run the full-scan reference stepper instead of the active-set
        #: one — slow, kept for the golden determinism test (the two must
        #: produce byte-identical stats and traces)
        self.use_reference_stepper = use_reference_stepper
        #: nodes whose router / NIC has work this cycle.  Updated by the
        #: ``on_wake`` hooks on idle→busy transitions and pruned in-step;
        #: ``_step`` iterates these (in sorted node order, for determinism)
        #: instead of scanning every component every cycle.
        self._active_routers: set[int] = set()
        self._active_nics: set[int] = set()
        wake_router = self._active_routers.add
        wake_nic = self._active_nics.add
        for r in self.routers:
            r.on_wake = wake_router
        for nic in self.nics:
            nic.on_wake = wake_nic
        if not self.routing.adaptive:
            # non-adaptive routing: share one precomputed route table and
            # give every router its node's row for O(1) route lookup
            table = self.routing.route_table()
            for r in self.routers:
                r.route_row = table[r.node]

    def _install_recovery(
        self, fault_schedule: Optional[FaultSchedule]
    ) -> Optional[RecoveryMonitor]:
        """Fresh :class:`RecoveryMonitor` when the schedule asks for one.

        The monitor doubles as every router's ``recovery`` probe, so a
        fault landing (or healing) reaches it through the per-router
        hook without the hot path growing a second dispatch site.
        """
        if not getattr(fault_schedule, "recovery_log", False):
            return None
        monitor = RecoveryMonitor()
        for r in self.routers:
            r.recovery = monitor
        return monitor

    # ------------------------------------------------------------------
    def _inject_faults(self, cycle: int) -> None:
        """Heal, then inject, the faults due this cycle, waking every
        router that was hit.

        Routing the change through the router's ``on_wake`` hook keeps
        the active-set and event-driven loops honest: a fault landing on
        a fully idle router re-enters it into the schedule the same cycle
        (it is pruned again after its no-op phases if it stays idle), so
        fault-state changes are never deferred until a flit happens to
        arrive.  (The skip-ahead loop never jumps over an event:
        :meth:`_skip_idle` clamps to ``next_cycle()``, which covers heals.)
        """
        schedule = self.fault_schedule
        if schedule is None:
            return
        for site in schedule.heals_due(cycle):
            router = self.routers[site.router]
            if router.heal_fault(site):
                router.wake()
                probe = router.recovery
                if probe is not None:
                    probe.fault_healed(router, site, cycle)
        for site in schedule.events_at(cycle):
            router = self.routers[site.router]
            if router.inject_fault(site):
                self.faults_injected += 1
                router.wake()
                probe = router.recovery
                if probe is not None:
                    probe.fault_landed(router, site, cycle)
        self._fault_due = schedule.next_cycle()

    def _step(self, cycle: int, inject_traffic: bool) -> None:
        """One cycle of the active-set loop (optionally profiled).

        Profiling shares this body: on sampled cycles ``prof`` binds the
        stage profiler and each phase is fenced with ``perf_counter``;
        otherwise every fence is a single ``prof is None`` check (well
        inside the observability layer's <= 5 % disabled-path budget).
        Keeping one body ended the hand-copied ``_step_profiled`` fork —
        the profiled and unprofiled paths are now bit-identical by
        construction (and pinned so by the golden determinism test).
        """
        obs = self.obs
        prof = None
        if obs is not None:
            p = obs.profiler
            if p is not None and p.should_sample(cycle):
                prof = p

        sched = self.scheduler
        sched.cycle = cycle
        t = perf_counter() if prof is not None else 0.0
        # the schedule is polled only on the cycles its ``next_cycle()``
        # names, as the lane engine does; ``_step_reference`` polls every
        # cycle, so the golden tests check the gate
        due = self._fault_due
        if due is not None and due <= cycle:
            self._inject_faults(cycle)
        if prof is not None:
            now = perf_counter()
            prof.record("faults", now - t)
            t = now

        routers = self.routers
        # Snapshot the active routers in sorted node order: phase (and
        # trace) order then matches the reference full scan exactly.  The
        # four phase loops stay separate — phases of different routers are
        # independent within a cycle, but trace emission order is not.
        # RC / VA / SA run on a router only while it holds a VC in that
        # stage (``BaseRouter._in_rc/_in_va/_in_sa``): a skipped call would
        # have scanned P*V VCs and found nothing — no statistic, arbiter or
        # trace side effect — so results stay bit-identical to
        # ``_step_reference``, which runs every phase.
        active = [routers[n] for n in sorted(self._active_routers)]
        for r in active:
            if r._xb_queue:
                r.xb_phase(sched, cycle)
        if prof is not None:
            now = perf_counter()
            prof.record("xb", now - t)
            t = now
        for r in active:
            if r._in_sa:
                r.sa_phase(cycle)
        if prof is not None:
            now = perf_counter()
            prof.record("sa", now - t)
            t = now
        for r in active:
            if r._in_va:
                r.va_phase(cycle)
        if prof is not None:
            now = perf_counter()
            prof.record("va", now - t)
            t = now
        for r in active:
            if r._in_rc:
                r.rc_phase(cycle)
        # Prune before dispatch: anything dispatch wakes (flit deliveries)
        # re-enters through the on_wake hook.
        discard = self._active_routers.discard
        for r in active:
            if r._nonidle == 0 and not r._xb_queue:
                discard(r.node)
        if prof is not None:
            now = perf_counter()
            prof.record("rc", now - t)
            t = now

        sched.dispatch(cycle)
        if prof is not None:
            now = perf_counter()
            prof.record("link", now - t)
            t = now

        nics = self.nics
        if inject_traffic:
            for packet in self.traffic.generate(cycle):
                nics[packet.src].enqueue(packet)
        injected = 0
        discard_nic = self._active_nics.discard
        for n in sorted(self._active_nics):
            nic = nics[n]
            injected += nic.step(cycle)
            if nic._queued == 0:
                discard_nic(n)
        self.flits_in_network += injected
        if prof is not None:
            prof.record("nic", perf_counter() - t)
            prof.cycle_done()

        # recovery watches poll at end-of-cycle so same-cycle mechanism
        # activity counts; counters are frozen while idle, so stepped
        # cycles see every edge even under skip-ahead
        mon = self.recovery_monitor
        if mon is not None and mon.open_watches:
            mon.poll(cycle)

    def _step_reference(self, cycle: int, inject_traffic: bool) -> None:
        """The pre-active-set full-scan stepper (reference semantics).

        Scans every router for every phase and every NIC for injection —
        exactly the seed implementation.  Kept as the oracle for the
        golden determinism test: running the same configuration through
        this stepper and through :meth:`_step` must produce byte-identical
        statistics and trace streams.  The active sets are rebuilt from
        component state after each cycle so the two steppers can even be
        interleaved.
        """
        sched = self.scheduler
        sched.cycle = cycle
        self._inject_faults(cycle)

        routers = self.routers
        for r in routers:
            if r._xb_queue:
                r.xb_phase(sched, cycle)
        for r in routers:
            r.sa_phase(cycle)
        for r in routers:
            r.va_phase(cycle)
        for r in routers:
            r.rc_phase(cycle)

        sched.dispatch(cycle)

        if inject_traffic:
            for packet in self.traffic.generate(cycle):
                self.nics[packet.src].enqueue(packet)
        injected = 0
        for nic in self.nics:
            injected += nic.step(cycle)
        self.flits_in_network += injected

        # rebuild in place (the on_wake hooks hold bound ``add`` methods)
        active_routers = self._active_routers
        active_routers.clear()
        active_routers.update(r.node for r in routers if r.busy)
        active_nics = self._active_nics
        active_nics.clear()
        active_nics.update(nic.node for nic in self.nics if nic._queued)

        mon = self.recovery_monitor
        if mon is not None and mon.open_watches:
            mon.poll(cycle)

    # ------------------------------------------------------------------
    def _skip_idle(self, cycle: int, horizon: int, lookahead) -> int:
        """Advance straight to the next cycle with any scheduled work.

        Only called when the fabric is fully idle — no active routers or
        NICs and no link/credit events in flight — so the only future
        work can come from traffic injection, the fault schedule (its
        ``next_cycle()`` covers arrivals and heals), or the end of the
        phase at ``horizon``.  The traffic lookahead consumes the quiet
        cycles' randomness exactly as per-cycle ``generate`` calls would,
        so the jump is bit-invisible.
        """
        target = horizon
        nxt = lookahead(cycle, horizon)
        if nxt is not None and nxt < target:
            target = nxt
        if self.fault_schedule is not None:
            wake = self.fault_schedule.next_cycle()
            if wake is not None and wake < target:
                target = wake
        return max(target, cycle)

    def run(self) -> SimulationResult:
        """One run, on the engine that finishes it sooner.

        A fresh run on an untouched fabric of one lane kind's routers
        (:func:`repro.network.batched.lane_kind`) that nothing outside the
        event system watches (a tracer handed to a simulator takes the
        per-stage events only its objects emit; metrics, profiles and a
        process-wide trace watch nothing), and whose traffic source
        declares an ``offered_load`` of :data:`LANE_BREAK_EVEN` or more,
        rides a width-1 lane of :class:`repro.network.batched.BatchedLaneEngine`
        on its own traffic, schedule and ``Observability`` objects —
        bit-identical, the lane engine mirrors ``_step_reference`` — and
        every other one is :meth:`_run_stepped`.
        """
        from .batched import BatchedLaneEngine, LaneSpec, lane_kind

        load = getattr(self.traffic, "offered_load", None)
        kind = lane_kind(self.routers)
        if (
            load is None or load < LANE_BREAK_EVEN
            or kind is None
            or self.cycle or self.use_reference_stepper
            or self.on_eject is not None
            or self.scheduler.tracer is not None  # the per-stage hooks
            # a fabric touched by hand (a queued packet, a fault landed, a
            # RoCo module killed) is not a lane's power-on one
            or self._active_routers or self._active_nics
            or any(r.faults.any_faults for r in self.routers)
        ):
            return self._run_stepped()
        lane = LaneSpec(self.traffic, self.fault_schedule)
        res = BatchedLaneEngine(
            self.config, self.sim_config, [lane], kind, self.routing_kind,
            keep_samples=self.stats.keep_samples, observability=self.obs,
        ).run()[0]
        self.stats, self.cycle = res.stats, res.cycles
        self.blocked, self.faults_injected = res.blocked, res.faults_injected
        return res

    def _run_stepped(self) -> SimulationResult:
        """Warmup + measurement + drain, with watchdog protection.

        The loop is event-driven (``docs/performance.md``): whenever the
        fabric is provably idle it jumps ``cycle`` to the earliest future
        wake source instead of stepping through the gap.  Skipping
        engages whenever every wake source is known — the traffic
        source implements the ``next_injection`` lookahead — and never
        under the reference stepper; otherwise the same active-set
        stepper runs every cycle.  Results are bit-identical either way
        (pinned by the golden tests).
        """
        sc = self.sim_config
        self.stats.set_window(sc.warmup_cycles, sc.warmup_cycles + sc.measure_cycles)
        inject_until = sc.warmup_cycles + sc.measure_cycles
        cycle = self.cycle
        self._last_progress = cycle
        reference = self.use_reference_stepper
        step = self._step_reference if reference else self._step

        lookahead = getattr(self.traffic, "next_injection", None)
        can_skip = not reference and lookahead is not None

        active_routers = self._active_routers
        active_nics = self._active_nics
        sched = self.scheduler

        # warmup + measurement
        while cycle < inject_until:
            if (
                can_skip
                and not active_routers
                and not active_nics
                and sched.pending_events == 0
            ):
                cycle = self._skip_idle(cycle, inject_until, lookahead)
                if cycle >= inject_until:
                    break
            step(cycle, inject_traffic=True)
            cycle += 1
            if self._watchdog_tripped(cycle):
                break

        # drain.  No skip-ahead here: the moment the fabric goes fully
        # idle the drained predicate below ends the loop anyway.
        drained = False
        if not self.blocked:
            drain_deadline = cycle + sc.drain_cycles
            while cycle < drain_deadline:
                # the active-NIC set is exactly the NICs with queued or
                # mid-injection packets, so this is the old
                # ``any(nic.queued_packets ...)`` scan in O(1)
                if self.flits_in_network == 0 and not active_nics:
                    break
                step(cycle, inject_traffic=False)
                cycle += 1
                if self._watchdog_tripped(cycle):
                    break
            # Evaluate the drained predicate once, after the loop, for
            # every exit path (early break, deadline expiry, watchdog):
            # a final step that empties the network counts as drained
            # even at the deadline boundary.
            drained = self.flits_in_network == 0 and not active_nics

        self.cycle = cycle
        recovery_export = None
        mon = self.recovery_monitor
        if mon is not None:
            mon.finalize()
            recovery_export = mon.summary()
        obs_export = None
        if self.obs is not None:
            if self.obs.metrics is not None:
                counts = np.array([astuple(r.stats) for r in self.routers]).T
                harvest(self.obs.metrics, counts, self.stats, cycle, self.faults_injected)
            obs_export = self.obs.export()
        return SimulationResult(
            stats=self.stats,
            cycles=cycle,
            blocked=self.blocked,
            drained=drained,
            router_stats=self.aggregate_router_stats(),
            faults_injected=self.faults_injected,
            observability=obs_export,
            recovery=recovery_export,
        )

    def _watchdog_tripped(self, cycle: int) -> bool:
        if (
            self.flits_in_network > 0
            and cycle - self._last_progress > self.sim_config.watchdog_cycles
        ):
            self.blocked = True
            return True
        return False

    # ------------------------------------------------------------------
    def aggregate_router_stats(self) -> RouterStats:
        """Sum of all per-router counters."""
        total = RouterStats()
        for r in self.routers:
            for f in RouterStats.__dataclass_fields__:
                setattr(total, f, getattr(total, f) + getattr(r.stats, f))
        return total

    def check_invariants(self) -> None:
        """Structural invariants across the fabric (property tests)."""
        for r in self.routers:
            r.check_invariants()
        buffered = sum(r.buffered_flits() for r in self.routers)
        # flits are in buffers (XB grants reference still-buffered flits)
        # or on links
        assert buffered + self.scheduler.pending_flits() == self.flits_in_network, (
            f"flit conservation violated: buffered={buffered} "
            f"on_links={self.scheduler.pending_flits()} "
            f"tracked={self.flits_in_network}"
        )
        busy = {r.node for r in self.routers if r.busy}
        assert self._active_routers == busy, (
            f"active-router set {sorted(self._active_routers)} != "
            f"busy routers {sorted(busy)}"
        )
        queued = {nic.node for nic in self.nics if nic.queued_packets}
        assert self._active_nics == queued, (
            f"active-NIC set {sorted(self._active_nics)} != "
            f"NICs with queued packets {sorted(queued)}"
        )
        self.scheduler.check_invariants()
        # credit conservation: per (node, output port or None for the NIC,
        # VC), the credits plus the flits buffered in the downstream VC or on
        # the link toward it, the credits flying back and the XB grants
        # queued for it sum to the buffer depth
        feeder: dict = {far: near for near, far in self.topology.links.items()}
        feeder.update({(n, PORT_LOCAL): (n, None) for n in range(self.config.num_nodes)})
        held: Counter = Counter()
        for r, nic in zip(self.routers, self.nics):
            for port, credits in [*enumerate(op.credits for op in r.out_ports), (None, nic.credits)]:
                held.update({(r.node, port, vc): c for vc, c in enumerate(credits)})
            held.update((r.node, g.plan.dest, g.vc.out_vc) for g in r.pending_grants())
            held.update({(*feeder[r.node, ip.port], vc.index): vc.occupancy
                         for ip in r.in_ports for vc in ip.slots if vc.occupancy})
        for flits, ejects, returns, nic_returns, out_returns in self.scheduler._ring:
            held.update((*feeder[n, p], vc) for n, p, vc, _ in flits)
            held.update((n, PORT_LOCAL, vc) for n, vc, *_ in ejects + out_returns)
            held.update(returns)
            held.update((n, None, vc) for n, vc in nic_returns)
        depth = self.config.router.buffer_depth
        off = {key: n for key, n in held.items() if n != depth}
        assert not off, f"credits + what they owe != buffer depth {depth}: {off}"
