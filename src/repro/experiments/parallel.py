"""Deterministic sweep executor (``repro.experiments.parallel``).

Every sweep-shaped artefact of the reproduction — Figures 7/8 (one
simulation per app x fault-state), Table III's Monte-Carlo campaign, the
``fault_sweep``/``load_latency``/``design_space`` extensions and the
fabric-level reliability Monte Carlo — reduces to an *embarrassingly
parallel* list of independent points.  This module runs such a list
across worker processes while guaranteeing **bit-identical results to a
serial run**:

* Each point is run by a :class:`SweepTask`: a picklable module-level
  callable plus its arguments, tagged with the point's position in the
  sweep (a *batch*, a lane chunk, with several).  Results are always
  reassembled in point order, so reductions downstream see the same
  operand order regardless of how the work was sharded.
* All randomness is derived *per point* via
  :func:`numpy.random.SeedSequence.spawn` (:func:`spawn_seeds`) **before**
  execution, never from a generator shared across points.  A point's
  random stream therefore depends only on the root seed and the point's
  index — not on which worker ran it, or in what order.

Together these two properties make ``jobs=N`` a pure wall-clock knob:
``tests/test_parallel.py`` pins serial == parallel equality end-to-end.

There is one executor, :func:`run_sweep`, with two execution modes it
chooses itself.  A sweep asked for one job with no resilient runtime
active runs **inline**: the tasks execute in this process, in order,
never pickled.  Everything else runs **supervised**: worker processes
under the supervisor in :mod:`repro.experiments.resilient`, which notices
a crashed or hung worker, replaces it, and charges the loss to the
points of its task that had not yet been handed over.  With a runtime active
(:func:`repro.experiments.resilient.sweep_runtime` — installed by the
unified ``run(..., out_dir=..., resume=...)`` experiment entry points and
the ``--out-dir``/``--resume``/``--retries``/``--task-timeout`` CLI
flags) the supervisor also retries, checkpoints and streams progress,
and points that stay failed surface as :class:`PartialSweepError`
(carrying a :class:`PartialSweepReport`); without one every point gets a
single attempt and failures raise :class:`SweepError`.  See
``docs/resilience.md``.

Both modes call one :func:`run_task` per task, which hands over one
:class:`TaskRow` per point, and give the rows to one assembly step, which
rebuilds values in point order, derives the per-slot :class:`ShardReport`
list (points, wall time, simulated cycles — surfaced through
``ExperimentResult.extras["sweep"]`` so the CLI can print a timing
breakdown after every parallel run) and applies the error rule.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np
# NumPy loads its random package on first use: a worker forked from a parent
# that never drew a number would import it (14 modules) again after each
# fork, and this module is the one every such parent has imported
import numpy.random  # noqa: F401

from ..config import NetworkConfig, SimulationConfig
# the lane engine loads with this module, on the importing thread: loaded
# by a sweep's first call instead, a server would load it on a request
# thread, whose malloc arena holds the pages (+2.4 MB peak on service_mix)
from ..network import batched, warm
from ..observability import MetricsRegistry, global_config, merge_exports

if TYPE_CHECKING:
    from .resilient import SweepRuntime


# ----------------------------------------------------------------------
# task / result containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One unit of scheduling: a sweep point, or a batch of them.

    ``fn`` must be a module-level (picklable) callable; ``args`` and
    ``kwargs`` must be picklable too.  A plain task runs point ``index``
    (named ``label``) and returns its value.  A *batch* lists each
    point's ``(index, label)`` in ``points``, takes their items as its
    first argument, and is called as ``fn(*args, emit=emit, **kwargs)``:
    it calls ``emit(k, value)`` once per point (``k`` its position in
    ``points``) as each value exists.  Its own ``index`` and ``label``
    are in no record.
    """

    index: int
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""
    points: Tuple[Tuple[int, str], ...] = ()

    def members(self) -> Tuple[Tuple[int, str], ...]:
        """``(index, label)`` of every point the task runs."""
        return self.points or ((self.index, self.label),)

    def narrow(self, keep: Sequence[int]) -> "SweepTask":
        """The task on the points of ``keep`` alone: a batch's retry or
        resume runs only its points without a record."""
        at = [k for k, (i, _) in enumerate(self.points) if i in keep]
        if len(at) == len(self.points):
            return self
        items, *rest = self.args
        return replace(
            self,
            args=(tuple(items[k] for k in at), *rest),
            points=tuple(self.points[k] for k in at),
        )


@dataclass(frozen=True)
class PointFailure:
    """A point that stayed failed: its task raised, or its worker died.

    Failures are *collected*, not swallowed: after every other point has
    run, :func:`run_sweep` raises a :class:`SweepError` naming each
    failed point with its worker-side traceback.  Capturing guarantees
    one failing point cannot surface as a silently partial sweep and that
    the CLI exits non-zero with *every* failure reported, not just the
    first.
    """

    index: int
    label: str
    error: str
    traceback: str

    def format(self) -> str:
        label = f" ({self.label})" if self.label else ""
        return f"point {self.index}{label}: {self.error}"


class SweepError(RuntimeError):
    """One or more sweep points failed (raised, or lost their worker)."""

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

    ``wall_time`` is the summed duration of the shard's completed points.
    """

    shard: int
    points: int
    wall_time: float
    cycles: int
    #: attempts re-queued by the resilient runtime (crash/hang/exception)
    retries: int = 0
    #: watchdog expiries that killed and replaced this worker slot
    timeouts: int = 0
    #: points durably checkpointed to the run directory by this slot
    checkpointed: int = 0

    def format(self) -> str:
        name = "resumed" if self.shard < 0 else f"shard {self.shard}"
        line = (
            f"{name}: {self.points} points, "
            f"{self.cycles:,} cycles, {self.wall_time:.2f}s"
        )
        extras = [
            f"{n} {what}"
            for n, what in (
                (self.retries, "retries"),
                (self.timeouts, "timeouts"),
                (self.checkpointed, "checkpointed"),
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
    #: always ``0`` and ``()``: the lane engine declines no configuration;
    #: the ledger reads both until a ``benchmark`` PR retires its names
    fallbacks: int = 0
    fallback_reasons: Tuple[str, ...] = ()

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

    def format(self) -> str:
        head = (
            f"sweep: {self.points} points on {self.jobs} worker(s) "
            f"in {self.wall_time:.2f}s "
            f"({self.cycles:,} cycles simulated)"
        )
        notes = [
            f"{n} {what}"
            for n, what in (
                (self.resumed, "resumed from checkpoint"),
                (self.retries, "retries"),
                (self.timeouts, "timeouts"),
                (self.checkpointed, "checkpointed"),
            )
            if n
        ]
        lines = [head + (f" [{', '.join(notes)}]" if notes else "")]
        if self.jobs > 1:
            lines.extend("  " + s.format() for s in self.shards)
        return "\n".join(lines)


@dataclass(frozen=True)
class PartialSweepReport(SweepReport):
    """A sweep that finished *degraded*: some points failed or were skipped.

    Produced only under a resilient runtime
    (:func:`repro.experiments.resilient.sweep_runtime`): completed points are intact (and
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
    completed (and checkpointed when durable): ``values`` holds one
    result per sweep point, with ``None`` holes at the failed/skipped
    indices, and ``report`` is the
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
class TaskRow:
    """What one attempt produced for one point — the only result record.

    :func:`run_task` fills it wherever the task runs; the supervisor adds
    ``attempts`` / ``slot`` / ``timed_out``, the checkpoint store writes
    and reloads it (``slot=-1`` marks a resumed row), and
    :func:`run_sweep` assembles values, shard reports and errors from
    nothing else.  ``error`` is empty exactly when the attempt succeeded.
    """

    index: int
    value: Any = None
    cycles: int = 0
    #: seconds the task function took to produce this point's value
    run_s: float = 0.0
    error: str = ""
    traceback: str = ""
    #: executions of this point's task so far, this one included
    attempts: int = 1
    #: worker slot that ran it; 0 inline, -1 spliced from a checkpoint
    slot: int = 0
    #: the attempt ended because the watchdog killed its worker
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.error

    @classmethod
    def failed(cls, index: int, exc: BaseException) -> "TaskRow":
        """The row of an attempt that raised (call inside ``except``)."""
        return cls(
            index=index,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


def run_task(
    task: SweepTask, record: Callable[[TaskRow], Any]
) -> Optional[TaskRow]:
    """Run one task in this process, handing each point's row to
    ``record`` the moment its value exists; returns the failed row of an
    attempt that raised, else ``None``.

    The single place a task function is called: inline sweeps call it
    directly, supervised workers between unpickling the task and
    pickling each value.  A row's ``run_s`` is the time since the
    previous hand-over, so a batch's rows sum to its run.
    """
    members = task.members()
    since = time.perf_counter()

    def emit(k: int, value: Any) -> None:
        nonlocal since
        now = time.perf_counter()
        cycles = getattr(value, "cycles", 0)
        record(TaskRow(
            index=members[k][0],
            value=value,
            cycles=cycles if isinstance(cycles, int) else 0,
            run_s=now - since,
        ))
        since = now

    try:
        if task.points:
            task.fn(*task.args, emit=emit, **task.kwargs)
        else:
            emit(0, task.fn(*task.args, **task.kwargs))
    except Exception as exc:
        return TaskRow.failed(task.index, exc)
    return None


def _shard_report(
    slot: int, final: Sequence[TaskRow], retried: Sequence[TaskRow], durable: bool
) -> ShardReport:
    """One slot's :class:`ShardReport`, from the rows that slot produced."""
    done = [r for r in final if r.slot == slot and r.ok]
    lost = [r for r in retried if r.slot == slot]
    dead = [r for r in final if r.slot == slot and not r.ok]
    return ShardReport(
        shard=slot,
        points=len(done),
        wall_time=sum(r.run_s for r in done),
        cycles=sum(r.cycles for r in done),
        retries=len(lost),
        timeouts=sum(r.timed_out for r in lost + dead),
        checkpointed=len(done) if durable and slot >= 0 else 0,
    )


def run_sweep(
    tasks: Iterable[SweepTask] | Sequence[SweepTask],
    jobs: Optional[int] = None,
) -> tuple[list[Any], SweepReport]:
    """Execute all tasks; returns (values in point order, report).

    The tasks' points must be exactly ``0..n-1``, each run by one task.
    Two execution modes, chosen from what is visible here: **inline**
    (no runtime active and one job: the tasks run in this process, in
    order, never pickled) and **supervised** (everything else: worker
    processes under :mod:`repro.experiments.resilient`'s supervisor, with
    the active runtime's retry policy / checkpoint store / progress hook,
    or one attempt and no store when no runtime is active).  Every task
    is independent and self-seeded, so both produce identical values.

    A failed point never stops the others from running: afterwards,
    without a runtime :class:`SweepError` names every failure, with one
    :class:`PartialSweepError` also carries the completed values.
    """
    from . import resilient  # it imports this module at load time

    tasks = list(tasks)
    labels = dict(p for t in tasks for p in t.members())
    if sorted(i for t in tasks for i, _ in t.members()) != list(range(len(labels))):
        raise ValueError("the tasks' points must be exactly 0..n-1, once each")
    runtime = resilient.active_runtime()
    n_jobs = min(resolve_jobs(jobs), len(tasks)) or 1

    t0 = time.perf_counter()
    retried: Sequence[TaskRow] = ()
    if runtime is None and n_jobs <= 1:
        rows, slots = _run_inline(tasks), 1
    else:
        rows, retried, slots = resilient.supervise(tasks, n_jobs)
    wall = time.perf_counter() - t0
    return _assemble(labels, rows, retried, slots, wall, runtime)


def _run_inline(tasks: Sequence[SweepTask]) -> "dict[int, TaskRow]":
    """Every task in this process, in order: each point's row."""
    rows: dict[int, TaskRow] = {}
    for task in tasks:
        failed = run_task(task, lambda row: rows.setdefault(row.index, row))
        if failed is not None:
            for i, _ in task.members():
                rows.setdefault(i, replace(failed, index=i))
    return rows


def _assemble(
    labels: "dict[int, str]",
    rows: "dict[int, TaskRow]",
    retried: Sequence[TaskRow],
    slots: int,
    wall: float,
    runtime: "Optional[SweepRuntime]",
) -> tuple[list[Any], SweepReport]:
    """Values, report and the error rule of a sweep, from its rows.

    ``rows`` holds each point's last row (a success, spliced from the
    checkpoint or fresh, or the attempt that exhausted its retries);
    ``retried`` the failed attempts that were re-queued, one row per
    point they cost.
    """
    final = [rows[i] for i in sorted(rows)]
    values: list[Any] = [None] * len(labels)
    for row in final:
        values[row.index] = row.value
    failures = tuple(
        PointFailure(
            index=r.index,
            label=labels[r.index],
            error=f"{r.error} [{r.attempts} attempt(s)]",
            traceback=r.traceback,
        )
        for r in final
        if not r.ok
    )
    if failures and runtime is None:
        raise SweepError(failures)
    # only an interrupted sweep under a runtime leaves a point without a row
    skipped = tuple(i for i in range(len(labels)) if i not in rows)

    resumed = sum(r.slot < 0 for r in final)
    durable = runtime is not None and runtime.store is not None
    shards = tuple(
        _shard_report(slot, final, retried, durable)
        for slot in (*range(slots), *([-1] if resumed else []))
    )
    fields: dict[str, Any] = dict(
        jobs=slots,
        points=len(labels),
        wall_time=wall,
        shards=shards,
        resumed=resumed,
    )
    report = (
        PartialSweepReport(
            completed=tuple(r.index for r in final if r.ok),
            failed=failures,
            skipped=skipped,
            **fields,
        )
        if failures or skipped
        else SweepReport(**fields)
    )
    # fold per-point observability snapshots in point order — the order
    # is independent of sharding, so `--jobs N` merges identically
    report = replace(report, observability=_fold(
        [(labels[i], getattr(v, "observability", None)) for i, v in enumerate(values)],
        report,
        runtime,
    ))
    if isinstance(report, PartialSweepReport):
        raise PartialSweepError(report, values)
    return values, report


def _fold(
    exports: "list[tuple[str, Any]]",
    report: SweepReport,
    runtime: "Optional[SweepRuntime]",
) -> Optional[dict]:
    """Merge per-point observability exports in the order given; with a
    runtime and metrics on, the runtime's counters (read off ``report``,
    all in points) join them."""
    if runtime is not None and global_config().metrics:
        failed = len(getattr(report, "failed", ()))
        skipped = len(getattr(report, "skipped", ()))
        reg = MetricsRegistry()
        reg.inc("resilient.points_completed", report.points - failed - skipped)
        reg.inc("resilient.points_resumed", report.resumed)
        reg.inc("resilient.points_failed", failed)
        reg.inc("resilient.points_skipped", skipped)
        reg.inc("resilient.retries", report.retries)
        reg.inc("resilient.timeouts", report.timeouts)
        reg.inc("resilient.checkpointed", report.checkpointed)
        exports = [*exports, ("resilient-runtime", {"metrics": reg.snapshot()})]
    return merge_exports(exports)


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


def run_trials(
    fn: Callable[..., np.ndarray],
    args: Callable[[List[np.random.SeedSequence]], tuple],
    trials: int,
    rng: np.random.SeedSequence | np.random.Generator | int | None,
    jobs: Optional[int] = None,
) -> tuple[np.ndarray, SweepReport]:
    """A Monte-Carlo campaign of ``trials`` self-seeded trials, as one sweep.

    ``fn(*args(seeds))`` runs one chunk of trials and returns one row per
    trial; the rows come back concatenated in trial order.  Each trial
    draws from its own child seed (:func:`spawn_seeds`), so chunking
    cannot change results: a few chunks per worker amortise per-chunk
    setup while keeping the pool busy.
    """
    seeds = spawn_seeds(rng, trials)
    n_jobs = min(resolve_jobs(jobs), trials)
    n_chunks = 1 if n_jobs == 1 else min(trials, n_jobs * 4)
    bounds = np.linspace(0, trials, n_chunks + 1).astype(int)
    tasks = [
        SweepTask(index=i, fn=fn, args=args(seeds[a:b]), label=f"trials[{a}:{b}]")
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    chunks, report = run_sweep(tasks, jobs=jobs)
    return np.concatenate(chunks), report


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
    module-level picklables, same as ``SweepTask.fn``.  Factories are
    pure: equal arguments build equal streams, so the points of a chunk
    whose ``(make_traffic, traffic_args)`` are equal — a fault-free and
    a faulty run under identical traffic, the baseline and protected
    replay of one fault timeline — are handed one source, drawn once.
    The schedule a factory returns may heal sites mid-run and ask for a
    recovery log (:class:`repro.faults.timeline.FaultTimeline`): lanes
    honour both, as :func:`run_point` does.
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
        """What the lane engine reads off a group, so what two points must
        share to be lanes of one engine.

        Router kind is not part of it: every lane kind is a per-lane mask,
        so all runs of one campaign step in one engine.  Nor is ``sim_config.seed``, which the engine never reads
        (a point's streams come from its factories' arguments), so points
        that differ only in it share lanes too.
        """
        return (self.config, replace(self.sim_config, seed=0), self.routing_kind)


def run_point(point: LanePoint) -> Any:
    """Run one :class:`LanePoint` as a single ``NoCSimulator.run()``.

    The lower layer of :func:`run_lane_sweep`, one task per point of a
    group too small for a lane chunk, and what tests and benches
    ``map_sweep`` directly when they want the per-point answer (``run()``
    picks the engine by load).
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
        router_factory=batched.router_factory(point.router_kind, point.config),
        fault_schedule=schedule,
        routing_kind=point.routing_kind,
    )
    return sim.run()


def _lane_batched_chunk(
    points: "tuple[LanePoint, ...]",
    width: int,
    emit: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run a chunk of structurally identical points as batched lanes;
    results in point order, each also handed to ``emit`` as it retires.

    ``width`` caps the concurrent lane slots: the first ``width`` points
    start immediately and the rest stream into slots freed by retiring
    lanes (lane refill), so arbitrarily long chunks run at a fixed array
    width without going sparse.  Points with equal traffic factory and
    arguments share one source object — one stream, which the engine
    draws once (unhashable arguments: a stream of its own).
    """
    sources: dict[tuple, Any] = {}

    def traffic(p: LanePoint) -> Any:
        key = (p.make_traffic, p.traffic_args)
        try:
            hash(key)
        except TypeError:
            return p.make_traffic(*p.traffic_args)
        if key not in sources:
            sources[key] = p.make_traffic(*p.traffic_args)
        return sources[key]

    first = points[0]
    lanes = [
        batched.LaneSpec(
            traffic(p),
            p.make_schedule(*p.schedule_args)
            if p.make_schedule is not None
            else None,
            p.router_kind,
        )
        for p in points
    ]
    w = min(width, len(lanes))
    engine = batched.BatchedLaneEngine(
        first.config,
        first.sim_config,
        lanes[:w],
        routing_kind=first.routing_kind,
        pending=lanes[w:],
    )
    return engine.run(emit)


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


#: cap on concurrent lane slots per batched chunk — the rest of a chunk's
#: points stream in through lane refill, so memory stays flat no matter
#: how many points a chunk carries
DEFAULT_LANE_WIDTH = 32

#: smallest structurally-identical group stepped as a lane chunk; a
#: smaller one goes to :func:`run_point`, whose ``run()`` picks the engine
#: from the point's declared load
_MIN_LANE_GROUP = 2


def run_lane_sweep(
    points: "Iterable[LanePoint] | Sequence[LanePoint]",
    jobs: Optional[int] = None,
) -> tuple[list[Any], SweepReport]:
    """Execute lane points; returns (SimulationResults in order, report).

    Points are grouped by :meth:`LanePoint.structural_key`; each group
    of :data:`_MIN_LANE_GROUP` or more points is split into contiguous
    lane chunks — the chunk count is proportional
    to the group's estimated simulated cycles (warmup + measure + drain
    per point), so one long-horizon group splits finer instead of
    straggling a whole shard — and every chunk becomes one task stepping
    its lanes in a single :class:`BatchedLaneEngine` pass, at most
    :data:`DEFAULT_LANE_WIDTH` lanes wide with the remaining points
    streaming in through lane refill.  Process parallelism and lane
    batching compose.

    A point of a smaller group is a :func:`run_point` task of its own:
    its ``run()`` picks the engine by load and may still step it as a
    width-1 lane.  Every configuration a point can name is a lane, so no
    point runs on the object engine for want of an array model.  Metrics,
    profiles and traces ride the lanes; the report's ``observability``
    folds the points' exports in point order, whichever task ran them.

    Execution funnels through :func:`run_sweep`, a chunk as a batch task
    that hands each point over as its lane retires: results, failures
    and counts are in points, and a retry or a resume reruns a chunk on
    its unrecorded points alone.  Results are bit-identical across
    ``jobs``, slot widths and :func:`run_point` (the golden tests).
    """
    points = list(points)
    if not points:
        return [], SweepReport(jobs=0, points=0, wall_time=0.0, shards=())

    n_jobs = resolve_jobs(jobs)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault(p.structural_key(), []).append(i)

    batchable: list[tuple[list[int], LanePoint]] = []
    singles: list[int] = []
    for idxs in groups.values():
        if len(idxs) < _MIN_LANE_GROUP:
            singles += idxs
        else:
            batchable.append((idxs, points[idxs[0]]))

    labels = [p.label or f"lane {j}" for j, p in enumerate(points)]
    tasks: list[SweepTask] = []

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
            kinds = "+".join(dict.fromkeys(points[j].router_kind for j in chunk))
            tasks.append(SweepTask(
                index=chunk[0],
                fn=_lane_batched_chunk,
                args=(tuple(points[j] for j in chunk), DEFAULT_LANE_WIDTH),
                label=f"{kinds}/{rep.routing_kind} lanes {chunk[0]}-{chunk[-1]}",
                points=tuple((j, labels[j]) for j in chunk),
            ))
    for j in singles:
        tasks.append(SweepTask(index=j, fn=run_point, args=(points[j],), label=labels[j]))

    return run_sweep(tasks, jobs=jobs)
