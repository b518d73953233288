"""Deterministic multiprocessing sweep engine (``repro.experiments.parallel``).

Every sweep-shaped artefact of the reproduction — Figures 7/8 (one
simulation per app x fault-state), Table III's Monte-Carlo campaign, the
``fault_sweep``/``load_latency``/``design_space`` extensions and the
fabric-level reliability Monte Carlo — reduces to an *embarrassingly
parallel* list of independent points.  This module runs such a list
across worker processes while guaranteeing **bit-identical results to a
serial run**:

* Each point is a :class:`SweepTask`: a picklable module-level callable
  plus its arguments, tagged with its position in the sweep.  Results
  are always reassembled in task order, so reductions downstream see the
  same operand order regardless of how the work was sharded.
* All randomness is derived *per point* via
  :func:`numpy.random.SeedSequence.spawn` (:func:`spawn_seeds`) **before**
  execution, never from a generator shared across points.  A point's
  random stream therefore depends only on the root seed and the point's
  index — not on which worker ran it, or in what order.

Together these two properties make ``jobs=N`` a pure wall-clock knob:
``tests/test_parallel.py`` pins serial == parallel equality end-to-end.

Workers are plain :mod:`multiprocessing` pools (fork start method where
available — cheap on Linux, no re-import per worker).  Each worker runs
one *shard* (a strided slice of the task list) and reports points
completed, wall time, and simulated cycles; the per-shard
:class:`ShardReport` list is surfaced through
``ExperimentResult.extras["sweep"]`` so the CLI can print a timing
breakdown after every parallel run.

When a resilient runtime is active
(:func:`repro.experiments.resilient.sweep_runtime` — installed by the
unified ``run(..., out_dir=..., resume=...)`` experiment entry points and
the ``--out-dir``/``--resume``/``--retries``/``--task-timeout`` CLI
flags), :func:`run_sweep` transparently reroutes to the checkpointed,
retrying executor in :mod:`repro.experiments.resilient`; results stay
bit-identical, and exhausted retries surface as
:class:`PartialSweepError` (carrying a :class:`PartialSweepReport`)
instead of discarding the completed points.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import NetworkConfig, SimulationConfig
from ..network import warm
from ..observability import merge_exports


# ----------------------------------------------------------------------
# task / result containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One independent sweep point.

    ``fn`` must be a module-level (picklable) callable; ``args`` and
    ``kwargs`` must be picklable too.  ``index`` is the point's position
    in the sweep — results are reassembled by it.
    """

    index: int
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""


@dataclass(frozen=True)
class PointOutcome:
    """Optional rich return value of a task fn: payload + cycles simulated.

    Task functions that run the cycle-accurate simulator should return
    ``PointOutcome(value, cycles)`` (or any object exposing a ``cycles``
    attribute, e.g. :class:`~repro.network.simulator.SimulationResult`)
    so shard reports can account simulated cycles.  Plain return values
    are passed through with ``cycles=0``.
    """

    value: Any
    cycles: int = 0
    #: event-engine fallbacks behind this point (lane-sweep accounting:
    #: a point the batched engine could not take is re-run per-point on
    #: the event engine and flagged here so shard reports surface it)
    fallbacks: int = 0
    #: *why* the batched engine declined (``supports()`` reason strings,
    #: deduplicated upward into ``ShardReport``/``SweepReport`` and the
    #: service ``/v1/stats`` payload, so a silently-slow sweep is
    #: diagnosable instead of just countable)
    fallback_reasons: Tuple[str, ...] = ()
    #: how many sweep points this outcome covers — 1 for ordinary tasks,
    #: the lane count for a batched chunk.  Progress streams and
    #: checkpoint records carry it so per-point accounting survives
    #: chunk-granularity execution.
    points: int = 1


@dataclass(frozen=True)
class PointFailure:
    """An exception captured inside a worker while running one point.

    Failures are *collected*, not swallowed: after every shard finishes,
    :func:`run_sweep` raises a :class:`SweepError` naming each failed
    point with its worker-side traceback.  Capturing (rather than letting
    the exception kill ``pool.map``) guarantees one failing point cannot
    surface as a silently partial sweep and that the CLI exits non-zero
    with *every* failure reported, not just the first.
    """

    index: int
    label: str
    error: str
    traceback: str

    def format(self) -> str:
        label = f" ({self.label})" if self.label else ""
        return f"point {self.index}{label}: {self.error}"


class SweepError(RuntimeError):
    """One or more sweep points raised inside their worker shard."""

    def __init__(self, failures: Sequence[PointFailure]) -> None:
        self.failures = tuple(failures)
        lines = [f"{len(self.failures)} sweep point(s) failed:"]
        lines += [f"  {f.format()}" for f in self.failures]
        first_tb = next((f.traceback for f in self.failures if f.traceback), "")
        if first_tb:
            lines += ["", "first worker traceback:", first_tb]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class ShardReport:
    """Progress/timing of one worker shard.

    ``wall_time`` splits into ``setup_s`` — network construction and
    warm resets, harvested from :mod:`repro.network.warm` — and
    ``run_s``, everything else (dominated by the cycle loops).  The
    split is what makes the reset-reuse win visible per sweep: with the
    warm pool active, ``setup_s`` should be a small fraction of
    ``run_s`` after the shard's first point.
    """

    shard: int
    points: int
    wall_time: float
    cycles: int
    #: seconds spent building / resetting simulators inside this shard
    setup_s: float = 0.0
    #: seconds spent on everything else (cycle loops, reductions)
    run_s: float = 0.0
    #: attempts re-queued by the resilient runtime (crash/hang/exception)
    retries: int = 0
    #: watchdog expiries that killed and replaced this worker slot
    timeouts: int = 0
    #: points durably checkpointed to the run directory by this slot
    checkpointed: int = 0
    #: points this shard ran on the per-point event engine because the
    #: batched lane engine declined their configuration (see
    #: :func:`repro.network.batched.supports`)
    fallbacks: int = 0
    #: deduplicated ``supports()`` reason strings behind ``fallbacks``
    fallback_reasons: Tuple[str, ...] = ()

    def format(self) -> str:
        name = "resumed" if self.shard < 0 else f"shard {self.shard}"
        line = (
            f"{name}: {self.points} points, "
            f"{self.cycles:,} cycles, {self.wall_time:.2f}s "
            f"(setup {self.setup_s:.2f}s, run {self.run_s:.2f}s)"
        )
        extras = [
            f"{n} {what}"
            for n, what in (
                (self.retries, "retries"),
                (self.timeouts, "timeouts"),
                (self.checkpointed, "checkpointed"),
                (self.fallbacks, "event-engine fallbacks"),
            )
            if n
        ]
        if extras:
            line += f" [{', '.join(extras)}]"
        return line


@dataclass(frozen=True)
class SweepReport:
    """What ``run_sweep`` did: shard breakdown + overall wall time."""

    jobs: int
    points: int
    wall_time: float
    shards: tuple[ShardReport, ...]
    #: merged per-point observability data (``repro.observability``):
    #: ``{"metrics": ..., "traces": [(label, snap), ...], "profile": ...}``
    #: — ``None`` when no point was instrumented.  Metrics are merged in
    #: task-index order, so any ``--jobs`` value yields identical bytes.
    observability: Optional[dict] = None
    #: points spliced in from a checkpointed run directory (``--resume``)
    resumed: int = 0

    @property
    def cycles(self) -> int:
        """Total simulated cycles across all shards."""
        return sum(s.cycles for s in self.shards)

    @property
    def retries(self) -> int:
        """Attempts re-queued by the resilient runtime across all slots."""
        return sum(s.retries for s in self.shards)

    @property
    def timeouts(self) -> int:
        """Watchdog kills across all worker slots."""
        return sum(s.timeouts for s in self.shards)

    @property
    def checkpointed(self) -> int:
        """Points durably written to the run directory this run."""
        return sum(s.checkpointed for s in self.shards)

    @property
    def fallbacks(self) -> int:
        """Points re-run on the event engine by a lane sweep."""
        return sum(s.fallbacks for s in self.shards)

    @property
    def fallback_reasons(self) -> Tuple[str, ...]:
        """Deduplicated fallback reason strings across all shards."""
        seen: list[str] = []
        for s in self.shards:
            for r in s.fallback_reasons:
                if r not in seen:
                    seen.append(r)
        return tuple(seen)

    @property
    def worker_time(self) -> float:
        """Summed in-worker wall time (serial-equivalent work)."""
        return sum(s.wall_time for s in self.shards)

    @property
    def setup_time(self) -> float:
        """Summed network construction / warm-reset time across shards."""
        return sum(s.setup_s for s in self.shards)

    @property
    def run_time(self) -> float:
        """Summed non-setup worker time across shards."""
        return sum(s.run_s for s in self.shards)

    def format(self) -> str:
        head = (
            f"sweep: {self.points} points on {self.jobs} worker(s) "
            f"in {self.wall_time:.2f}s "
            f"(worker time {self.worker_time:.2f}s = "
            f"setup {self.setup_time:.2f}s + run {self.run_time:.2f}s, "
            f"{self.cycles:,} cycles simulated)"
        )
        notes = [
            f"{n} {what}"
            for n, what in (
                (self.resumed, "resumed from checkpoint"),
                (self.retries, "retries"),
                (self.timeouts, "timeouts"),
                (self.checkpointed, "checkpointed"),
                (self.fallbacks, "event-engine fallbacks"),
            )
            if n
        ]
        lines = [head + (f" [{', '.join(notes)}]" if notes else "")]
        reasons = self.fallback_reasons
        if reasons:
            lines.append(
                "  fallback reasons: " + "; ".join(reasons)
            )
        if self.jobs > 1:
            lines.extend("  " + s.format() for s in self.shards)
        return "\n".join(lines)


@dataclass(frozen=True)
class PartialSweepReport(SweepReport):
    """A sweep that finished *degraded*: some points failed or were skipped.

    Produced only by the resilient runtime
    (:mod:`repro.experiments.resilient`): completed points are intact (and
    checkpointed when a run directory is attached), ``failed`` lists the
    points whose retries were exhausted, and ``skipped`` the points never
    attempted because the sweep was interrupted.  Carried on
    :class:`PartialSweepError`; the CLI prints it and exits with code 3
    (partial success) rather than 1 (hard failure).
    """

    completed: Tuple[int, ...] = ()
    failed: Tuple[PointFailure, ...] = ()
    skipped: Tuple[int, ...] = ()

    def format(self) -> str:
        lines = [
            f"partial sweep: {len(self.completed)}/{self.points} points "
            f"completed, {len(self.failed)} failed, "
            f"{len(self.skipped)} skipped"
        ]
        lines += [f"  FAILED {f.format()}" for f in self.failed]
        if self.skipped:
            lines.append(
                "  skipped (interrupted before execution): "
                + ", ".join(map(str, self.skipped))
            )
        lines.append(super().format())
        return "\n".join(lines)


class PartialSweepError(SweepError):
    """The sweep completed degraded: retries exhausted on some points.

    Unlike a plain :class:`SweepError`, everything completable *was*
    completed (and checkpointed when durable): ``values`` holds the
    per-point results in task-index order with ``None`` holes at the
    failed/skipped indices, and ``report`` is the
    :class:`PartialSweepReport`.  ``python -m repro.experiments`` maps
    this to exit code 3 so callers can distinguish "usable partial
    result" from "nothing trustworthy".
    """

    def __init__(
        self, report: PartialSweepReport, values: "List[Any]"
    ) -> None:
        super().__init__(report.failed)
        self.report = report
        self.values = values


# ----------------------------------------------------------------------
# deterministic seeding
# ----------------------------------------------------------------------
def spawn_seeds(
    rng: np.random.SeedSequence | np.random.Generator | int | None,
    n: int,
) -> list[np.random.SeedSequence]:
    """``n`` independent child seeds, one per sweep point / MC trial.

    The children depend only on the root entropy and the spawn index —
    not on execution order — so seeding each point from its own child
    makes results independent of worker layout (the serial == parallel
    guarantee).  Accepts the same ``rng`` spellings the reliability
    modules already take: an int seed, ``None`` (fresh OS entropy), an
    existing :class:`~numpy.random.SeedSequence`, or a
    :class:`~numpy.random.Generator` (spawned via its bit generator's
    seed sequence).
    """
    if n < 0:
        raise ValueError("cannot spawn a negative number of seeds")
    if isinstance(rng, np.random.SeedSequence):
        return rng.spawn(n)
    if isinstance(rng, np.random.Generator):
        return rng.bit_generator.seed_seq.spawn(n)
    return np.random.SeedSequence(rng).spawn(n)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise the CLI's ``--jobs`` value to a worker count.

    ``None``/``1`` → serial, ``0`` → all cores, ``N`` → N workers.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0")
    if jobs == 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PackedTask:
    """A task pre-pickled in the parent, unpickled lazily in the worker.

    Shipping the task body as opaque bytes moves argument
    *deserialisation* inside the per-task exception guard: a task whose
    arguments fail to unpickle in the worker (a classic source of raw
    pool tracebacks that abort the whole sweep) is reported as a
    :class:`PointFailure` naming the offending task index, exactly like
    an exception raised by the task function itself.
    """

    index: int
    label: str
    payload: bytes


def _pack(task: SweepTask) -> "_PackedTask | SweepTask":
    """Pre-pickle for the parallel path; pass through if unpicklable.

    A task that cannot even be *pickled* here would also have killed
    ``pool.map``; passing it through lets the pool raise its usual
    (parent-side, immediate) error for truly unpicklable functions while
    worker-side unpickle failures stay contained per task.
    """
    try:
        return _PackedTask(task.index, task.label, pickle.dumps(task))
    except Exception:
        return task


def _execute(
    task: "SweepTask | _PackedTask",
) -> tuple[int, Any, int, int, Tuple[str, ...]]:
    """Run one task; returns (index, value, cycles, fallbacks, reasons).

    Exceptions — including unpickling a :class:`_PackedTask` payload —
    are captured as :class:`PointFailure` values so the rest of the
    shard still runs and the parent can report *all* failures.
    """
    try:
        if isinstance(task, _PackedTask):
            task = pickle.loads(task.payload)
        out = task.fn(*task.args, **task.kwargs)
    except Exception as exc:
        return (
            task.index,
            PointFailure(
                index=task.index,
                label=task.label,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            ),
            0,
            0,
            (),
        )
    if isinstance(out, PointOutcome):
        return (
            task.index,
            out.value,
            int(out.cycles),
            int(out.fallbacks),
            tuple(out.fallback_reasons),
        )
    cycles = getattr(out, "cycles", 0)
    return (
        task.index, out, int(cycles) if isinstance(cycles, int) else 0, 0, ()
    )


def _run_shard(
    payload: "tuple[int, list[SweepTask | _PackedTask]]"
) -> tuple[list[tuple[int, Any, int, int, Tuple[str, ...]]], ShardReport]:
    """Worker entry point: run one shard's tasks serially, in order.

    The body outside :func:`_execute` (shard setup such as draining the
    warm-pool timer, plus report assembly) is guarded too: an exception
    there is attributed to the first task that had not completed, as a
    :class:`PointFailure`, instead of surfacing as a raw pool traceback
    that discards the whole sweep.
    """
    shard_id, tasks = payload
    rows: list[tuple[int, Any, int, int, Tuple[str, ...]]] = []
    t0 = time.perf_counter()
    try:
        warm.drain_setup_seconds()  # discard time accrued before this shard
        rows.extend(_execute(t) for t in tasks)
        setup = warm.drain_setup_seconds()
    except Exception as exc:
        offender = tasks[len(rows)] if len(rows) < len(tasks) else tasks[-1]
        rows.append(
            (
                offender.index,
                PointFailure(
                    index=offender.index,
                    label=offender.label,
                    error=f"shard setup failed: {type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                ),
                0,
                0,
                (),
            )
        )
        setup = 0.0
    wall = time.perf_counter() - t0
    reasons: list[str] = []
    for _, _, _, _, rs in rows:
        for r in rs:
            if r not in reasons:
                reasons.append(r)
    report = ShardReport(
        shard=shard_id,
        points=len(rows),
        wall_time=wall,
        cycles=sum(c for _, _, c, _, _ in rows),
        setup_s=setup,
        run_s=max(0.0, wall - setup),
        fallbacks=sum(f for _, _, _, f, _ in rows),
        fallback_reasons=tuple(reasons),
    )
    return rows, report


def _pool_context() -> mp.context.BaseContext:
    """Fork where the platform has it (cheap, no re-import); else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_sweep(
    tasks: Iterable[SweepTask] | Sequence[SweepTask],
    jobs: Optional[int] = None,
) -> tuple[list[Any], SweepReport]:
    """Execute all tasks; returns (values in task-index order, report).

    Serial (``jobs`` in {None, 1}) runs in-process; parallel shards the
    task list round-robin across a process pool.  Because every task is
    independent and self-seeded, both paths produce identical values.

    When a resilient runtime is active
    (:func:`repro.experiments.resilient.sweep_runtime`), execution is
    rerouted to the checkpointed/retrying executor — values are
    bit-identical; only the failure/durability semantics change.
    """
    tasks = list(tasks)
    indices = sorted(t.index for t in tasks)
    if indices != list(range(len(tasks))):
        raise ValueError("task indices must be exactly 0..len(tasks)-1")

    from . import resilient

    if resilient.active_runtime() is not None:
        return resilient.execute_sweep(tasks, jobs)

    n_jobs = min(resolve_jobs(jobs), len(tasks)) or 1

    t0 = time.perf_counter()
    if n_jobs <= 1:
        shard_outputs = [_run_shard((0, tasks))]
    else:
        # round-robin sharding interleaves long and short points (e.g.
        # low-load vs near-saturation simulations) across workers
        buckets: list[list[SweepTask | _PackedTask]] = [
            [] for _ in range(n_jobs)
        ]
        for i, task in enumerate(tasks):
            buckets[i % n_jobs].append(_pack(task))
        ctx = _pool_context()
        with ctx.Pool(processes=n_jobs) as pool:
            shard_outputs = pool.map(_run_shard, list(enumerate(buckets)))
    wall = time.perf_counter() - t0

    values: list[Any] = [None] * len(tasks)
    for rows, _ in shard_outputs:
        for index, value, _cycles, _fallbacks, _reasons in rows:
            values[index] = value

    failures = [v for v in values if isinstance(v, PointFailure)]
    if failures:
        raise SweepError(failures)

    # fold per-point observability snapshots in task-index order — the
    # order is independent of sharding, so `--jobs N` merges identically
    exports = [
        (tasks[i].label, getattr(v, "observability", None))
        for i, v in enumerate(values)
    ]
    report = SweepReport(
        jobs=n_jobs,
        points=len(tasks),
        wall_time=wall,
        shards=tuple(rep for _, rep in shard_outputs),
        observability=merge_exports(exports),
    )
    return values, report


def map_sweep(
    fn: Callable[..., Any],
    argtuples: Iterable[tuple],
    jobs: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
) -> tuple[list[Any], SweepReport]:
    """Convenience wrapper: ``fn(*args)`` over a list of argument tuples."""
    argtuples = list(argtuples)
    labels = labels or [""] * len(argtuples)
    tasks = [
        SweepTask(index=i, fn=fn, args=tuple(args), label=label)
        for i, (args, label) in enumerate(zip(argtuples, labels))
    ]
    return run_sweep(tasks, jobs=jobs)


# ----------------------------------------------------------------------
# lane sweeps: batched-engine execution of structurally identical points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LanePoint:
    """One simulation point declared *constructively* so it can batch.

    Where :class:`SweepTask` wraps an opaque callable, a ``LanePoint``
    names the ingredients — network/simulation configs, a picklable
    traffic factory, an optional fault-schedule factory, the router
    flavour and routing kind — which lets :func:`run_lane_sweep` group
    points sharing one *structural key* and step each group as lanes of
    a single :class:`repro.network.batched.BatchedLaneEngine` instead of
    one fabric per point.  Factories are called inside the worker (fresh
    RNG streams per attempt, so retries stay bit-identical) and must be
    module-level picklables, same as ``SweepTask.fn``.
    """

    config: NetworkConfig
    sim_config: SimulationConfig
    #: module-level callable returning the point's traffic source
    make_traffic: Callable[..., Any]
    traffic_args: tuple = ()
    #: module-level callable returning the point's fault schedule
    make_schedule: Optional[Callable[..., Any]] = None
    schedule_args: tuple = ()
    router_kind: str = "baseline"
    routing_kind: str = "xy"
    label: str = ""

    def structural_key(self) -> tuple:
        """Everything that must match for two points to share lanes."""
        return (
            self.config,
            self.sim_config,
            self.router_kind,
            self.routing_kind,
        )


def _resolve_factory(kind: str, config: NetworkConfig):
    """Router factory registry (kept as strings so LanePoints pickle)."""
    if kind == "baseline":
        from ..network.simulator import baseline_router_factory

        return baseline_router_factory(config)
    if kind == "protected":
        from ..core.protected_router import protected_router_factory

        return protected_router_factory(config)
    if kind == "roco":
        from ..comparison.roco_router import roco_router_factory

        return roco_router_factory(config)
    raise ValueError(f"unknown router_kind {kind!r}")


def run_point(point: LanePoint, reason: str = "") -> PointOutcome:
    """Run one :class:`LanePoint` on the per-point event engine.

    The lower layer of :func:`run_lane_sweep`: what a group the batched
    engine declines falls back to, one task per point (``reason`` then
    carries the ``supports()`` decline string, so shard reports surface
    *why*), and what tests and benches ``map_sweep`` directly when they
    want the per-point answer.
    """
    schedule = (
        point.make_schedule(*point.schedule_args)
        if point.make_schedule is not None
        else None
    )
    sim = warm.acquire(
        point.config,
        point.sim_config,
        point.make_traffic(*point.traffic_args),
        router_factory=_resolve_factory(point.router_kind, point.config),
        fault_schedule=schedule,
        routing_kind=point.routing_kind,
    )
    res = sim.run()
    return PointOutcome(
        res,
        cycles=res.cycles,
        fallbacks=int(bool(reason)),
        fallback_reasons=(reason,) if reason else (),
    )


def _lane_batched_chunk(
    points: "tuple[LanePoint, ...]", width: Optional[int] = None
) -> PointOutcome:
    """Run a chunk of structurally identical points as batched lanes.

    ``width`` caps the concurrent lane slots: the first ``width`` points
    start immediately and the rest stream into slots freed by retiring
    lanes (lane refill), so arbitrarily long chunks run at a fixed array
    width without going sparse.
    """
    from ..network.batched import BatchedLaneEngine, LaneSpec

    first = points[0]
    lanes = [
        LaneSpec(
            p.make_traffic(*p.traffic_args),
            p.make_schedule(*p.schedule_args)
            if p.make_schedule is not None
            else None,
        )
        for p in points
    ]
    w = len(lanes) if width is None else max(1, min(width, len(lanes)))
    engine = BatchedLaneEngine(
        first.config,
        first.sim_config,
        lanes[:w],
        router_factory=_resolve_factory(first.router_kind, first.config),
        routing_kind=first.routing_kind,
        pending=lanes[w:],
    )
    results = engine.run()
    return PointOutcome(
        results,
        cycles=sum(r.cycles for r in results),
        points=len(results),
    )


def _chunk_evenly(indices: Sequence[int], n_chunks: int) -> list[list[int]]:
    """Split ``indices`` into ``n_chunks`` contiguous, balanced runs."""
    n_chunks = max(1, min(n_chunks, len(indices)))
    base, extra = divmod(len(indices), n_chunks)
    chunks, pos = [], 0
    for c in range(n_chunks):
        size = base + (1 if c < extra else 0)
        chunks.append(list(indices[pos:pos + size]))
        pos += size
    return chunks


#: default cap on concurrent lane slots per batched chunk — the rest of
#: a chunk's points stream in through lane refill, so memory stays flat
#: no matter how many points a chunk carries
DEFAULT_LANE_WIDTH = 32

#: smallest structurally-identical group worth standing up the batched
#: engine for; singletons run faster on the plain event engine
_MIN_LANE_GROUP = 2


def run_lane_sweep(
    points: "Iterable[LanePoint] | Sequence[LanePoint]",
    jobs: Optional[int] = None,
    lane_width: Optional[int] = None,
) -> tuple[list[Any], SweepReport]:
    """Execute lane points; returns (SimulationResults in order, report).

    Points are grouped by :meth:`LanePoint.structural_key`; each
    *supported* group (see :func:`repro.network.batched.supports`) is
    split into contiguous lane chunks — the chunk count is proportional
    to the group's estimated simulated cycles (warmup + measure + drain
    per point), so one long-horizon group splits finer instead of
    straggling a whole shard — and every chunk becomes one task stepping
    its lanes in a single :class:`BatchedLaneEngine` pass, at most
    ``lane_width`` (default :data:`DEFAULT_LANE_WIDTH`) lanes wide with
    the remaining points streaming in through lane refill.  Process
    parallelism and lane batching compose.

    Groups the batched engine declines (adaptive routing, tracing
    enabled, oversized VC space, ...) — and groups too small to batch —
    fall back to one :func:`run_point` task per point, counted in
    ``ShardReport.fallbacks`` with the decline reason threaded into
    ``ShardReport.fallback_reasons``.

    Execution funnels through :func:`run_sweep`, so a resilient runtime
    (checkpointing, retries, watchdog) applies at chunk granularity:
    resilient sweeps shard *groups of lanes*, exactly like the parallel
    path.  Results are bit-identical across ``jobs`` and ``lane_width``
    values and to :func:`run_point` on every point — the batched engine
    is pinned lane-for-lane against the event engine by the golden
    differential tests.
    """
    from ..network.batched import supports as batched_supports

    points = list(points)
    if not points:
        return [], SweepReport(jobs=0, points=0, wall_time=0.0, shards=())

    tasks: list[SweepTask] = []
    placements: list[tuple[bool, list[int]]] = []  # (is_chunk, indices)

    def _add(fn, args, label: str, is_chunk: bool, idxs: list[int]) -> None:
        tasks.append(
            SweepTask(index=len(tasks), fn=fn, args=args, label=label)
        )
        placements.append((is_chunk, idxs))

    n_jobs = resolve_jobs(jobs)
    width = DEFAULT_LANE_WIDTH if lane_width is None else max(1, lane_width)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault(p.structural_key(), []).append(i)

    # triage: batchable groups vs per-point fallbacks (with the decline
    # reason recorded for the report / service stats)
    batchable: list[tuple[list[int], LanePoint]] = []
    fallback: list[tuple[list[int], str]] = []
    for idxs in groups.values():
        rep = points[idxs[0]]
        # the representative's schedule factory may be None (e.g. a
        # fault-free reference point sharing the group): judge the
        # group by its most demanding schedule factory
        sched_factory = next(
            (
                points[j].make_schedule
                for j in idxs
                if getattr(points[j].make_schedule, "mutates_fabric", False)
            ),
            rep.make_schedule,
        )
        reason = batched_supports(
            rep.config,
            _resolve_factory(rep.router_kind, rep.config),
            rep.routing_kind,
            schedule_factory=sched_factory,
        )
        if reason is None and len(idxs) < _MIN_LANE_GROUP:
            reason = (
                f"group of {len(idxs)} structurally-identical point(s)"
                " (below the lane batching threshold)"
            )
        if reason is None:
            batchable.append((idxs, rep))
        else:
            fallback.append((idxs, reason))

    # chunk counts balanced by estimated simulated cycles — the horizon
    # is uniform within a group because sim_config is part of the
    # structural key
    def _horizon(p: LanePoint) -> int:
        sc = p.sim_config
        return sc.warmup_cycles + sc.measure_cycles + sc.drain_cycles

    total_est = sum(_horizon(rep) * len(idxs) for idxs, rep in batchable)
    budget = (total_est / n_jobs) if total_est else 1.0
    for idxs, rep in batchable:
        est = _horizon(rep) * len(idxs)
        n_chunks = max(1, min(len(idxs), round(est / budget)))
        for chunk in _chunk_evenly(idxs, n_chunks):
            label = (
                f"{rep.router_kind}/{rep.routing_kind} "
                f"lanes {chunk[0]}-{chunk[-1]}"
            )
            _add(
                _lane_batched_chunk,
                (tuple(points[j] for j in chunk), width),
                label,
                True,
                chunk,
            )
    for idxs, reason in fallback:
        for j in idxs:
            _add(
                run_point,
                (points[j], reason),
                points[j].label or f"lane {j} (fallback: {reason})",
                False,
                [j],
            )

    values_raw, report = run_sweep(tasks, jobs=jobs)

    out: list[Any] = [None] * len(points)
    for value, (is_chunk, idxs) in zip(values_raw, placements):
        if is_chunk:
            for j, res in zip(idxs, value):
                out[j] = res
        else:
            out[idxs[0]] = value
    return out, replace(report, points=len(points))
