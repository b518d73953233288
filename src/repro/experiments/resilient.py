"""Resilient sweep runtime: checkpointed, resumable, retrying execution.

The paper's router keeps delivering packets while arbiters and crossbar
muxes die; this module gives the *experiment harness* the same shape of
graceful degradation (detect → contain → reroute, FASHION-style) for the
sweeps in :mod:`repro.experiments.parallel`:

* **detect** — every point runs in a supervised worker process with a
  per-attempt wall-clock watchdog; a crashed (e.g. OOM-killed) or hung
  worker is noticed within one poll interval;
* **contain** — the loss is confined to the points the worker had not
  yet handed over: the worker is killed and replaced, those points are
  retried with exponential backoff (:class:`RetryPolicy`), and every
  *other* point keeps running or stays recorded;
* **degrade** — a point that exhausts its retries becomes a recorded
  failure, not an abort: the sweep completes everything completable and
  raises :class:`~repro.experiments.parallel.PartialSweepError` carrying
  a :class:`~repro.experiments.parallel.PartialSweepReport` that lists
  completed / failed / skipped points (the CLI maps it to a distinct
  exit code, 3, vs 1 for a hard failure);
* **checkpoint / resume** — with a run directory attached
  (:class:`CheckpointStore`), each completed point (a lane chunk's as
  its lane retires) is appended to an append-only JSONL file, filed
  under the sweep's :func:`sweep_key` — a hash of the bytes its workers
  execute — so a sweep killed mid-run
  (SIGKILL, preemption, power loss) resumes with ``--resume RUN_DIR``
  re-executing only the missing points, and a sweep that differs in
  anything it runs finds no records to splice.  Because every point is
  seeded up front via ``SeedSequence.spawn`` and results are merged in
  point order, a resumed run is bit-identical to an uninterrupted one
  (pinned by ``tests/test_resilient.py``).

This module holds the durable store, the runtime context and the
supervisor.  It is not a second executor:
:func:`~repro.experiments.parallel.run_sweep` is the only one, and
:func:`supervise` is its worker-process mode, so a dead worker costs the
points it was still running (never a hang) whether or not a runtime is
active.  What a runtime adds is the *policy* — retries, the watchdog,
the store, a progress hook and the partial-success error — and a
*lifetime*: the worker processes belong to the :class:`SweepRuntime`,
so the second sweep of a runtime reuses the first one's.  With none active each point gets a
single attempt (:data:`NO_RETRY`), nothing is stored and the workers end
with the sweep.

Activation is context-based so the experiment modules need no plumbing:
:func:`sweep_runtime` installs the runtime for the current call stack and
:func:`~repro.experiments.parallel.run_sweep` consults it.  The unified
``run(config, *, jobs=None, seed=None, out_dir=None, resume=None)``
experiment entry points (see :mod:`repro.experiments.runner`) wrap their
bodies in it; ``python -m repro.experiments`` wraps each experiment in
one built from ``--out-dir`` / ``--resume`` / ``--retries`` /
``--task-timeout``, and since the outermost activation wins, that one
reaches every nested sweep.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import base64
import json
import multiprocessing as mp
import os
import pickle
import stat
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from hashlib import sha256
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import __version__
from .parallel import SweepTask, TaskRow, run_task

__all__ = [
    "CheckpointStore",
    "ResumeError",
    "RetryPolicy",
    "SweepRuntime",
    "active_runtime",
    "atomic_write_json",
    "sweep_runtime",
]


def atomic_write_json(path: str | os.PathLike, obj: Any, **dump_kwargs: Any) -> None:
    """Write ``obj`` as JSON so readers never observe a torn file.

    The durable-store primitive shared by :class:`CheckpointStore`
    (manifest updates) and :class:`repro.service.cache.ResultCache`
    (content-addressed entries): dump to a sibling ``.tmp`` file, then
    :func:`os.replace` it into place — on POSIX the rename is atomic, so
    a crash mid-write leaves either the old content or the new, never a
    prefix of the new.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fp:
        json.dump(obj, fp, **dump_kwargs)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
#: the backoff before a point's second attempt; each later one doubles it,
#: up to :data:`BACKOFF_CAP_S` (seconds)
BACKOFF_S = 0.25
BACKOFF_CAP_S = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before a point is declared failed.

    ``max_attempts`` counts the first execution too (1 = no retries).
    A crash, hang (``timeout_s`` exceeded), or in-task exception each
    consume one attempt; consecutive attempts of the same point are
    separated by :meth:`delay`, the one fixed schedule (0.25 s doubling,
    capped at 30 s).  ``timeout_s=None`` disables the watchdog.  Retrying
    is sound because every point is a pure function of its spawned seed:
    a retried point returns bit-identical results.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt number ``attempt``."""
        if attempt < 1:
            raise ValueError("attempts are numbered from 1")
        return min(BACKOFF_CAP_S, BACKOFF_S * 2 ** (attempt - 1))


#: one attempt per point, no watchdog: what supervised sweeps run under
#: when no runtime is active
NO_RETRY = RetryPolicy(max_attempts=1)


# ----------------------------------------------------------------------
# durable run directory
# ----------------------------------------------------------------------
class ResumeError(RuntimeError):
    """The run directory cannot take the run: it already holds one and
    this is not a resume, or its manifest is of an unsupported version."""


MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 3


def sweep_key(payloads: Sequence[bytes]) -> str:
    """Name of a sweep in a run directory: what its workers execute.

    SHA-256 over the release (``repro.__version__``) and each task's
    whole pickle in task order, so a sweep that differs in anything a worker
    runs — seed, scale, config, chunking (``--jobs`` re-chunks a lane
    sweep) or release — has another key and finds no records of the
    first.  An unpicklable task counts as an empty pickle: it never
    reaches a worker, so it never has a record.
    """
    digest = sha256(__version__.encode())
    for payload in payloads:
        digest.update(len(payload).to_bytes(8, "little"))
        digest.update(payload)
    return digest.hexdigest()


class CheckpointStore:
    """Append-only durable state of one run directory.

    Layout::

        RUN_DIR/
          manifest.json      {"version": 3, "sweeps": {KEY: {"points": N,
                              "file": "sweep-KEY.jsonl"}}}
          sweep-KEY.jsonl    one JSON line per completed point

    ``KEY`` is :func:`sweep_key`: a sweep's records are found by the bytes
    it runs, never by its position among the sweeps of a run, so any
    number of experiments and sweeps share one directory and a resume
    under other flags finds nothing to splice and runs in full.

    Each JSONL line carries the point's index, label, attempt count,
    cycle/timing accounting, and the base64-pickled value — enough to
    splice the point back into a resumed sweep bit-identically.  A
    directory of another manifest version (version 2 held one record per
    lane chunk) is refused, never spliced.  Lines
    are flushed as they are appended, and a truncated final line (the
    signature of a SIGKILL mid-write) is ignored on reload and ended
    there, so the records a resume appends stay one to a line.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        self.path = Path(path)
        self.resume = bool(resume)
        manifest_path = self.path / MANIFEST_NAME
        if manifest_path.exists():
            if not resume:
                raise ResumeError(
                    f"{self.path} already holds a run; pass resume=True "
                    "(CLI: --resume) to continue it, or choose a fresh "
                    "--out-dir"
                )
            with open(manifest_path) as fp:
                self._manifest = json.load(fp)
            if self._manifest.get("version") != _MANIFEST_VERSION:
                raise ResumeError(
                    f"unsupported manifest version in {manifest_path}"
                )
        else:
            self.path.mkdir(parents=True, exist_ok=True)
            self._manifest = {"version": _MANIFEST_VERSION, "sweeps": {}}
            self._write_manifest()
        self._files: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        atomic_write_json(
            self.path / MANIFEST_NAME, self._manifest, sort_keys=True, indent=1
        )

    def _sweep_file(self, key: str) -> Path:
        return self.path / f"sweep-{key}.jsonl"

    # ------------------------------------------------------------------
    def open_sweep(self, key: str, points: int) -> Dict[int, TaskRow]:
        """Register sweep ``key`` of ``points`` points; return the rows
        already recorded under it (none on its first run)."""
        if key in self._manifest["sweeps"]:
            return self._load(key, points)
        self._manifest["sweeps"][key] = {
            "points": points, "file": self._sweep_file(key).name,
        }
        self._write_manifest()
        return {}

    def _load(self, key: str, points: int) -> Dict[int, TaskRow]:
        path = self._sweep_file(key)
        done: Dict[int, TaskRow] = {}
        if not path.exists():
            return done
        raw = b"\n"
        with open(path, "rb") as fp:
            for raw in fp:
                try:
                    rec = json.loads(raw)
                    value = pickle.loads(base64.b64decode(rec["value"]))
                    row = TaskRow(
                        index=int(rec["index"]),
                        value=value,
                        cycles=int(rec["cycles"]),
                        run_s=float(rec["run_s"]),
                        attempts=int(rec["attempts"]),
                        slot=-1,
                    )
                except (
                    ValueError, TypeError, KeyError, EOFError,
                    pickle.UnpicklingError,
                ):
                    # truncated / torn final line from an interrupted run
                    continue
                if 0 <= row.index < points:
                    done[row.index] = row
        if not raw.endswith(b"\n"):
            # end the torn line: the first record this resume appends must
            # start a line of its own to be readable at the next resume
            with open(path, "ab") as fp:
                fp.write(b"\n")
        return done

    def append(
        self, key: str, row: TaskRow, label: str, value_bytes: bytes
    ) -> None:
        """Durably record one completed point of sweep ``key`` (append +
        flush).  ``value_bytes`` is ``row.value`` as the worker pickled it.
        """
        fp = self._files.get(key)
        if fp is None:
            fp = open(self._sweep_file(key), "a")
            self._files[key] = fp
        rec = {
            "index": row.index,
            "label": label,
            "attempts": row.attempts,
            "cycles": row.cycles,
            "run_s": round(row.run_s, 6),
            "value": base64.b64encode(value_bytes).decode("ascii"),
        }
        fp.write(json.dumps(rec, sort_keys=True) + "\n")
        fp.flush()

    def close(self) -> None:
        for fp in self._files.values():
            fp.close()
        self._files.clear()


# ----------------------------------------------------------------------
# runtime context
# ----------------------------------------------------------------------
class SweepRuntime:
    """One resilience configuration and the worker processes forked under it.

    ``store`` and ``retry`` are fixed for the runtime's life.  The
    supervised workers are the runtime's too: a sweep *borrows* slots
    (:meth:`borrow` forks only when no idle worker is alive) and
    :meth:`release` takes back every slot that is idle and alive, so the
    next sweep of the same runtime — the protected Monte-Carlo after the
    baseline one, or a server's next request — starts on a process that
    has already imported, drawn and stepped.  :meth:`close` stops the
    idle workers and closes the store; no worker outlives it.

    A progress hook belongs to an activation, not to the runtime:
    :meth:`activate` installs the runtime on the calling thread, so one
    runtime can serve several threads.
    """

    def __init__(
        self,
        store: Optional[CheckpointStore] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.store = store
        self.retry = retry or RetryPolicy()
        #: worker processes forked so far (first starts and replacements)
        self.spawned = 0
        self._lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._closed = False

    @property
    def idle(self) -> int:
        """Workers waiting for the next sweep."""
        return len(self._idle)

    @contextmanager
    def activate(
        self, progress: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> Iterator[SweepRuntime]:
        """Install this runtime for sweeps the calling thread runs inside
        the block.

        ``progress`` is an optional per-point completion hook: it is
        called with a small dict (the ``sweep`` key, point
        ``index``/``label``, ``attempts``, ``resumed``) the moment each
        point is recorded, once per point, a lane chunk's included.  It runs on the supervisor thread, so it must be
        cheap and thread-safe — :mod:`repro.service` uses it to stream
        completed points to HTTP clients while the sweep is still running.
        """
        _set_active(_ActiveRun(self, progress))
        try:
            yield self
        finally:
            _set_active(None)

    def start(self, worker: _Worker) -> None:
        """Fork ``worker``'s process: a new slot's, or a lost one's successor."""
        worker.spawn()
        with self._lock:
            self.spawned += 1

    def borrow(self, n: int) -> List[_Worker]:
        """``n`` live, idle workers numbered ``0..n-1``: kept ones first,
        forked ones for the rest."""
        with self._lock:
            kept, self._idle = self._idle[-n:], self._idle[:-n]
        workers = []
        for w in kept:
            if w.proc.is_alive():
                workers.append(w)
            else:  # died while idle (e.g. OOM-killed between sweeps)
                w.discard()
        ctx = _pool_context()
        while len(workers) < n:
            workers.append(_Worker(len(workers), ctx))
            self.start(workers[-1])
        for slot, w in enumerate(workers):
            w.slot = slot
        return workers

    def release(self, workers: Sequence[_Worker]) -> None:
        """Take back the slots that are idle and alive; end the rest.

        A slot still busy (an interrupt), dead, or returned after
        :meth:`close` is never kept.
        """
        with self._lock:
            keep = [] if self._closed else [
                w for w in workers if not w.busy and w.proc.is_alive()
            ]
            self._idle.extend(keep)
        for w in workers:
            if w.busy:
                w.discard()
            elif w not in keep:
                w.shutdown()

    def close(self) -> None:
        """Stop every idle worker and close the store."""
        with self._lock:
            idle, self._idle, self._closed = self._idle, [], True
        for w in idle:
            w.shutdown()
        if self.store is not None:
            self.store.close()


class _ActiveRun:
    """One activation: the runtime and this activation's progress hook."""

    __slots__ = ("runtime", "progress")

    def __init__(
        self,
        runtime: SweepRuntime,
        progress: Optional[Callable[[Dict[str, Any]], None]],
    ) -> None:
        self.runtime = runtime
        self.progress = progress


#: per-thread activation: the sweep-as-a-service server computes several
#: experiments concurrently, each on its own thread with its own
#: activation (progress hook) and tests run runtimes side by side; a
#: module-global here would leak one into another's sweeps
_tls = threading.local()


def _get_active() -> Optional[_ActiveRun]:
    return getattr(_tls, "active", None)


def _set_active(run: Optional[_ActiveRun]) -> None:
    _tls.active = run


def active_runtime() -> Optional[SweepRuntime]:
    """The installed runtime of the current thread, or ``None``."""
    active = _get_active()
    return None if active is None else active.runtime


@contextmanager
def sweep_runtime(
    out_dir: Optional[str | os.PathLike] = None,
    resume: Optional[str | os.PathLike] = None,
    retry: Optional[RetryPolicy] = None,
) -> Iterator[Optional[SweepRuntime]]:
    """Install the resilient runtime for sweeps run inside the block.

    ``resume`` names an existing run directory (missing points only are
    re-executed; checkpointing continues into the same directory);
    ``out_dir`` starts a fresh one.  With neither, the block is a no-op
    unless ``retry`` is given, in which case sweeps run supervised
    without durability; with a directory and no ``retry`` the policy is
    :class:`RetryPolicy`'s default.  The block owns its runtime: worker
    processes forked by one of its sweeps serve the later ones and are
    stopped on exit — none outlives the block.  Activation is **per
    thread** — concurrent threads each get their own runtime (a caller
    that wants one runtime across threads, or a progress hook, like the
    results server, builds a :class:`SweepRuntime` and activates it on
    each).  Nested activations on the same thread are no-ops: the
    outermost runtime wins, so an experiment entry point wrapping its
    body does not disturb a caller's runtime — which is how
    ``python -m repro.experiments`` hands its ``--retries`` /
    ``--task-timeout`` policy to every nested sweep.
    """
    active = _get_active()
    if active is not None:  # outermost activation wins
        yield active.runtime
        return
    store: Optional[CheckpointStore] = None
    if resume is not None:
        store = CheckpointStore(resume, resume=True)
    elif out_dir is not None:
        store = CheckpointStore(out_dir, resume=False)
    if store is None and retry is None:
        yield None
        return
    runtime = SweepRuntime(store=store, retry=retry)
    try:
        with runtime.activate():
            yield runtime
    finally:
        runtime.close()


# ----------------------------------------------------------------------
# supervised worker processes
# ----------------------------------------------------------------------
def _worker_main(conn: connection.Connection) -> None:  # pragma: no cover — child
    """Worker loop: receive ``(payload, keep)``, send ``(row, value_bytes)``
    per point, then the end of the task (``None``, or its failed row).

    Runs until the supervisor sends ``None`` or the pipe closes.
    """
    _drop_inherited_sockets(conn.fileno())
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        try:
            conn.send(_run_pickled(conn.send, *msg))
        except (BrokenPipeError, OSError):
            return


def _drop_inherited_sockets(keep: int) -> None:  # pragma: no cover — child
    """Let go of every socket a forked worker inherited, except its pipe.

    A fork duplicates the parent's descriptors: the supervisor's end of
    every worker's pipe (while a copy is open no worker sees EOF, so none
    would notice a SIGKILLed parent) and, under :mod:`repro.service`, the
    listening socket and every client connection (one the server closes
    would stay open to its client).  Each is replaced by ``/dev/null``
    rather than closed, so an inherited Python object closing "its"
    descriptor later cannot hit a reused one.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # a platform without it: nothing to enumerate them by
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:  # the descriptor listdir itself had open
            pass
    os.close(null)


def _run_pickled(
    send: Callable[[Tuple[TaskRow, bytes]], None], payload: bytes, keep: Sequence[int]
) -> Optional[TaskRow]:
    """:func:`run_task` on the points of ``keep``, unpickled, each point
    sent as ``(row, value_bytes)``; returns a failed attempt's row.

    A value crosses the pipe (and reaches the checkpoint) as its own
    pickle, so a poisoned task or an unpicklable result is contained to
    the points still unsent, like an exception inside the task.
    """
    try:
        task = pickle.loads(payload).narrow(keep)
        return run_task(
            task, lambda row: send((replace(row, value=None), pickle.dumps(row.value)))
        )
    except Exception as exc:
        return TaskRow.failed(-1, exc)


def _pool_context() -> mp.context.BaseContext:
    """Fork where the platform has it (cheap, no re-import); else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _Worker:
    """One supervised worker slot (process + pipe + in-flight task).

    Created unstarted; :meth:`SweepRuntime.start` forks its process.
    """

    __slots__ = ("slot", "ctx", "proc", "conn", "index", "started")

    def __init__(self, slot: int, ctx: mp.context.BaseContext) -> None:
        self.slot = slot
        self.ctx = ctx

    def spawn(self) -> None:
        parent, child = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_worker_main, args=(child,), daemon=True,
            name=f"resilient-worker-{self.slot}",
        )
        proc.start()
        child.close()
        self.proc, self.conn = proc, parent
        self.index: Optional[int] = None
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.index is not None

    def dispatch(self, index: int, payload: bytes, keep: Sequence[int]) -> None:
        self.conn.send((payload, tuple(keep)))
        self.index = index
        self.started = time.monotonic()

    def discard(self) -> None:
        """Tear the slot down at once (crashed, hung, or interrupted)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover — already gone
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)

    def shutdown(self) -> None:
        """Polite stop of an idle worker: ask it to leave its loop, give
        it :data:`_STOP_GRACE_S` to exit on its own, then tear down."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        connection.wait([self.proc.sentinel], timeout=_STOP_GRACE_S)
        self.discard()


#: how long :meth:`_Worker.shutdown` waits for a worker to exit by itself
_STOP_GRACE_S = 0.1

#: supervisor poll interval: health checks and backoff wakeups (seconds)
_POLL_S = 0.05


class _Supervisor:
    """Run a list of tasks across replaceable workers with retries.

    The workers are borrowed from the runtime for the length of
    :meth:`run` and handed back on the way out.  The supervisor owns all
    scheduling state: a ready queue of ``(not_before, task)`` entries,
    the busy map implied by the worker slots, each task's points without
    a row (``remaining``, all a retry runs), and the outcome rows per
    point — ``rows`` each point's last word, ``retried`` one row per
    point a re-queued attempt cost.  One loop iteration = dispatch what
    is due, wait briefly for results, then health-check every busy
    worker (crash and watchdog detection).
    """

    def __init__(
        self,
        payloads: Dict[int, bytes],
        remaining: Dict[int, List[int]],
        n_workers: int,
        runtime: SweepRuntime,
        on_success: Callable[[TaskRow, bytes], None],
    ) -> None:
        self.runtime = runtime
        self.policy = runtime.retry
        self.on_success = on_success
        self.payloads = payloads
        self.remaining = remaining
        self.rows: Dict[int, TaskRow] = {}
        self.retried: List[TaskRow] = []
        self.attempts: Dict[int, int] = dict.fromkeys(remaining, 0)
        self.ready: List[Tuple[float, int]] = [  # (not_before, task)
            (0.0, task) for task in remaining
        ]
        self.workers = runtime.borrow(min(n_workers, len(self.ready)))

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self.ready) + sum(1 for w in self.workers if w.busy)

    def run(self) -> None:
        try:
            while self.outstanding:
                self._dispatch_due()
                self._collect(timeout=self._poll_timeout())
                self._health_check()
        finally:
            self.runtime.release(self.workers)

    # ------------------------------------------------------------------
    def _poll_timeout(self) -> float:
        """Sleep at most to the next backoff release or watchdog deadline.

        Release times only matter while a worker is idle to take the
        task: with every worker busy, queued tasks are already due and
        clamping to them would spin on a zero timeout.
        """
        now = time.monotonic()
        horizon = now + _POLL_S
        if not all(w.busy for w in self.workers):
            for not_before, _ in self.ready:
                horizon = min(horizon, max(now, not_before))
        if self.policy.timeout_s is not None:
            for w in self.workers:
                if w.busy:
                    horizon = min(horizon, w.started + self.policy.timeout_s)
        return max(0.0, horizon - now)

    def _dispatch_due(self) -> None:
        if not self.ready:
            return
        now = time.monotonic()
        for w in self.workers:
            if not self.ready:
                return
            if w.busy:
                continue
            slot_i = next(
                (i for i, (nb, _) in enumerate(self.ready) if nb <= now), None
            )
            if slot_i is None:
                return
            _, task = self.ready.pop(slot_i)
            self.attempts[task] += 1
            w.dispatch(task, self.payloads[task], self.remaining[task])

    def _collect(self, timeout: float) -> None:
        busy = {w.conn: w for w in self.workers if w.busy}
        if not busy:
            if timeout:
                time.sleep(timeout)
            return
        for conn in connection.wait(list(busy), timeout=timeout):
            w = busy[conn]
            try:
                while w.busy and conn.poll():
                    self._receive(w, conn.recv())
            except (EOFError, OSError):
                # a dead process is attributed by the health check; a
                # live worker that closed its pipe is equally lost —
                # replace it and charge the attempt here
                if w.busy and w.proc.is_alive():
                    self._lost(w, "worker closed its result pipe")

    def _receive(self, w: _Worker, msg: Any) -> None:
        """One message of ``w``'s task: a point's ``(row, value_bytes)``,
        or the task's end (``None``, or the row of its failed attempt)."""
        task = w.index
        assert task is not None
        if isinstance(msg, tuple):
            row, value_bytes = msg
            row = replace(
                row,
                value=pickle.loads(value_bytes),
                attempts=self.attempts[task],
                slot=w.slot,
            )
            self.remaining[task].remove(row.index)
            self.rows[row.index] = row
            self.on_success(row, value_bytes)
            return
        w.index = None
        if msg is not None:
            self._attempt_failed(task, replace(msg, slot=w.slot))

    def _health_check(self) -> None:
        now = time.monotonic()
        for w in self.workers:
            if not w.busy:
                continue
            if not w.proc.is_alive():
                self._lost(w, f"worker crashed (exit code {w.proc.exitcode})")
            elif (
                self.policy.timeout_s is not None
                and now - w.started > self.policy.timeout_s
            ):
                self._lost(
                    w,
                    f"point timed out after {self.policy.timeout_s:g}s "
                    "(worker killed and replaced)",
                    timed_out=True,
                )

    def _lost(self, w: _Worker, error: str, timed_out: bool = False) -> None:
        """Kill a crashed/hung worker's remains, respawn the slot and
        charge the attempt to the points its task had not handed over."""
        task = w.index
        assert task is not None
        row = TaskRow(index=-1, error=error, slot=w.slot, timed_out=timed_out)
        w.discard()
        self.runtime.start(w)
        self._attempt_failed(task, row)

    def _attempt_failed(self, task: int, row: TaskRow) -> None:
        """Charge a failed attempt to ``task``'s points without a row:
        re-queue the task on those alone, or record them as failed."""
        attempts = self.attempts[task]
        lost = [
            replace(row, index=i, attempts=attempts) for i in self.remaining[task]
        ]
        if not lost:
            return
        if attempts < self.policy.max_attempts:
            self.retried += lost
            self.ready.append(
                (time.monotonic() + self.policy.delay(attempts), task)
            )
        else:
            self.rows.update((r.index, r) for r in lost)


# ----------------------------------------------------------------------
# the supervised mode of run_sweep
# ----------------------------------------------------------------------
def _pickle(
    tasks: Sequence[SweepTask],
) -> Tuple[Dict[int, bytes], Dict[int, TaskRow]]:
    """Each task as the bytes a worker receives, by its position, or,
    for one that cannot be pickled, the failed rows of its points: it
    cannot reach a worker, and retrying cannot help either."""
    payloads: Dict[int, bytes] = {}
    unpicklable: Dict[int, TaskRow] = {}
    for pos, t in enumerate(tasks):
        try:
            payloads[pos] = pickle.dumps(t)
        except Exception as exc:
            for i, _ in t.members():
                unpicklable[i] = TaskRow(
                    index=i,
                    error=f"unpicklable task: {type(exc).__name__}: {exc}",
                )
    return payloads, unpicklable


def supervise(
    tasks: Sequence[SweepTask], n_jobs: int
) -> Tuple[Dict[int, TaskRow], List[TaskRow], int]:
    """Run ``tasks`` on supervised workers for
    :func:`~repro.experiments.parallel.run_sweep`.

    Returns ``(rows, retried, slots)``: each point's last row (absent
    only for points an interrupt left unrun), the failed attempts that
    were re-queued, one row per point each cost, and the worker-slot
    count.  The active runtime's policy, store, workers and progress
    hook apply; with none active, one attempt each and no store.  Each
    task is pickled once; in task order, those bytes name the sweep
    (:func:`sweep_key`).  A task with recorded points runs on the others
    alone.
    """
    active = _get_active()
    runtime = active.runtime if active else SweepRuntime(retry=NO_RETRY)
    store = runtime.store
    progress = active.progress if active else None
    payloads, rows = _pickle(tasks)
    key = sweep_key([payloads.get(pos, b"") for pos in range(len(tasks))])
    labels = dict(p for t in tasks for p in t.members())

    def _report(row: TaskRow) -> None:
        if progress is not None:
            progress({
                "sweep": key,
                "index": row.index,
                "label": labels[row.index],
                "attempts": row.attempts,
                "resumed": row.slot < 0,
            })

    def _on_success(row: TaskRow, value_bytes: bytes) -> None:
        if store is not None:
            store.append(key, row, labels[row.index], value_bytes)
        _report(row)

    if store is not None:
        resumed = store.open_sweep(key, len(labels))
        for index in sorted(resumed):
            _report(resumed[index])
        rows.update(resumed)
    remaining = {
        pos: todo
        for pos in payloads
        if (todo := [i for i, _ in tasks[pos].members() if i not in rows])
    }
    if not remaining:
        return rows, [], 0
    sup = _Supervisor(payloads, remaining, n_jobs, runtime, _on_success)
    try:
        sup.run()
    except KeyboardInterrupt:
        # graceful preemption under a runtime: everything checkpointed
        # so far is durable, and the points without a row are reported
        # as skipped instead of vanishing; with no runtime it propagates
        if active is None:
            raise
    finally:
        if active is None:  # the temporary runtime ends with its sweep
            runtime.close()
    rows.update(sup.rows)
    return rows, sup.retried, len(sup.workers)
