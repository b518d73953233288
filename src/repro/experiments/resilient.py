"""Resilient sweep runtime: checkpointed, resumable, retrying execution.

The paper's router keeps delivering packets while arbiters and crossbar
muxes die; this module gives the *experiment harness* the same shape of
graceful degradation (detect → contain → reroute, FASHION-style) for the
sweeps in :mod:`repro.experiments.parallel`:

* **detect** — every point runs in a supervised worker process with a
  per-attempt wall-clock watchdog; a crashed (e.g. OOM-killed) or hung
  worker is noticed within one poll interval;
* **contain** — the loss is confined to that one point: the worker is
  killed and replaced, the point is retried with exponential backoff
  (:class:`RetryPolicy`), and every *other* point keeps running;
* **degrade** — a point that exhausts its retries becomes a recorded
  failure, not an abort: the sweep completes everything completable and
  raises :class:`~repro.experiments.parallel.PartialSweepError` carrying
  a :class:`~repro.experiments.parallel.PartialSweepReport` that lists
  completed / failed / skipped points (the CLI maps it to a distinct
  exit code, 3, vs 1 for a hard failure);
* **checkpoint / resume** — with a run directory attached
  (:class:`CheckpointStore`), each completed point is appended to an
  append-only JSONL file the moment it finishes, so a sweep killed
  mid-run (SIGKILL, preemption, power loss) resumes with ``--resume
  RUN_DIR`` re-executing only the missing points.  Because every point
  is seeded up front via ``SeedSequence.spawn`` and results are merged
  in task-index order, a resumed run is bit-identical to an
  uninterrupted one (pinned by ``tests/test_resilient.py``).

Activation is context-based so the experiment modules need no plumbing:
:func:`sweep_runtime` installs the runtime for the current call stack and
:func:`~repro.experiments.parallel.run_sweep` consults it.  The unified
``run(config, *, jobs=None, seed=None, out_dir=None, resume=None)``
experiment entry points (see :mod:`repro.experiments.runner`) wrap their
bodies in it, which is how ``--out-dir`` / ``--resume`` / ``--retries`` /
``--task-timeout`` on ``python -m repro.experiments`` reach every nested
sweep.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from hashlib import sha256
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "CheckpointStore",
    "ResumeError",
    "RetryPolicy",
    "SweepRuntime",
    "active_runtime",
    "atomic_write_json",
    "configure",
    "reset",
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
@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before a point is declared failed.

    ``max_attempts`` counts the first execution too (1 = no retries).
    A crash, hang (``timeout_s`` exceeded), or in-task exception each
    consume one attempt; consecutive attempts of the same point are
    separated by ``backoff_s * backoff_factor**(attempt-1)`` seconds,
    capped at ``max_backoff_s``.  ``timeout_s=None`` disables the
    watchdog.  Retrying is sound because every point is a pure function
    of its spawned seed: a retried point returns bit-identical results.
    """

    max_attempts: int = 3
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt number ``attempt``."""
        if attempt < 1:
            raise ValueError("attempts are numbered from 1")
        return min(self.max_backoff_s, self.backoff_s * self.backoff_factor ** (attempt - 1))


#: a policy that reproduces the classic engine's behaviour exactly
NO_RETRY = RetryPolicy(max_attempts=1)


# ----------------------------------------------------------------------
# durable run directory
# ----------------------------------------------------------------------
class ResumeError(RuntimeError):
    """The run directory does not match the sweep being (re-)executed."""


MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1


def sweep_fingerprint(tasks: Sequence[Any]) -> str:
    """Identity of a sweep for resume validation.

    Hashes the task count plus each point's ``(index, label, fn)``
    triple.  Arguments are deliberately *not* hashed (their pickles are
    not stable across interpreter invocations under ``PYTHONHASHSEED``);
    labels conventionally encode the swept parameters, which is the
    discriminating power resume validation needs.
    """
    ident = [
        (t.index, t.label, f"{t.fn.__module__}.{t.fn.__qualname__}")
        for t in tasks
    ]
    return sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CompletedPoint:
    """One checkpointed point, as reloaded from the run directory."""

    index: int
    value: Any
    cycles: int
    setup_s: float
    run_s: float
    attempts: int
    fallbacks: int = 0
    fallback_reasons: Tuple[str, ...] = ()
    #: sweep points behind this record (lane chunks cover several)
    points: int = 1


class CheckpointStore:
    """Append-only durable state of one run directory.

    Layout::

        RUN_DIR/
          manifest.json    {"version": 1, "sweeps": {"0": {"points": N,
                            "fingerprint": "...", "file": "sweep-000.jsonl"}}}
          sweep-000.jsonl  one JSON line per completed point
          sweep-001.jsonl  (experiments may run several sweeps in sequence)

    Each JSONL line carries the point's index, label, attempt count,
    cycle/timing accounting, and the base64-pickled return value — enough
    to splice the point back into a resumed sweep bit-identically.  Lines
    are flushed as they are appended, and a truncated final line (the
    signature of a SIGKILL mid-write) is ignored on reload.
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
        self._files: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        atomic_write_json(
            self.path / MANIFEST_NAME, self._manifest, sort_keys=True, indent=1
        )

    def _sweep_file(self, seq: int) -> Path:
        return self.path / f"sweep-{seq:03d}.jsonl"

    # ------------------------------------------------------------------
    def open_sweep(
        self, seq: int, fingerprint: str, points: int
    ) -> Dict[int, CompletedPoint]:
        """Register sweep ``seq`` and return its already-completed points.

        On a fresh run the sweep is recorded in the manifest and the
        returned dict is empty.  On resume the manifest entry must match
        the fingerprint and point count, else :class:`ResumeError` —
        resuming a *different* sweep from a stale directory would merge
        unrelated results.
        """
        key = str(seq)
        entry = self._manifest["sweeps"].get(key)
        if entry is None:
            self._manifest["sweeps"][key] = {
                "points": points,
                "fingerprint": fingerprint,
                "file": self._sweep_file(seq).name,
            }
            self._write_manifest()
            return {}
        if entry["fingerprint"] != fingerprint or entry["points"] != points:
            raise ResumeError(
                f"sweep {seq} in {self.path} was recorded with "
                f"{entry['points']} point(s) / fingerprint "
                f"{entry['fingerprint']}; the sweep being resumed has "
                f"{points} point(s) / fingerprint {fingerprint} — the run "
                "directory belongs to a different configuration"
            )
        return self._load(seq, points)

    def _load(self, seq: int, points: int) -> Dict[int, CompletedPoint]:
        path = self._sweep_file(seq)
        done: Dict[int, CompletedPoint] = {}
        if not path.exists():
            return done
        with open(path, "rb") as fp:
            for raw in fp:
                try:
                    rec = json.loads(raw)
                    value = pickle.loads(base64.b64decode(rec["value"]))
                except (ValueError, KeyError, EOFError, pickle.UnpicklingError):
                    # truncated / torn final line from an interrupted run
                    continue
                index = int(rec["index"])
                if not 0 <= index < points:
                    continue
                done[index] = CompletedPoint(
                    index=index,
                    value=value,
                    cycles=int(rec.get("cycles", 0)),
                    setup_s=float(rec.get("setup_s", 0.0)),
                    run_s=float(rec.get("run_s", 0.0)),
                    attempts=int(rec.get("attempts", 1)),
                    fallbacks=int(rec.get("fallbacks", 0)),
                    fallback_reasons=tuple(rec.get("fallback_reasons", [])),
                    points=int(rec.get("points", 1)),
                )
        return done

    def append(
        self,
        seq: int,
        *,
        index: int,
        label: str,
        value_bytes: bytes,
        cycles: int,
        setup_s: float,
        run_s: float,
        attempts: int,
        fallbacks: int = 0,
        fallback_reasons: Sequence[str] = (),
        points: int = 1,
    ) -> None:
        """Durably record one completed point (append + flush)."""
        fp = self._files.get(seq)
        if fp is None:
            fp = open(self._sweep_file(seq), "a")
            self._files[seq] = fp
        rec = {
            "index": index,
            "label": label,
            "attempts": attempts,
            "cycles": cycles,
            "fallbacks": fallbacks,
            "fallback_reasons": list(fallback_reasons),
            "points": points,
            "setup_s": round(setup_s, 6),
            "run_s": round(run_s, 6),
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
@dataclass(frozen=True)
class SweepRuntime:
    """The resilience configuration one :func:`sweep_runtime` installs.

    ``progress`` is an optional per-point completion hook: the resilient
    executor calls it with a small dict (``sweep`` sequence number,
    point ``index``/``label``, ``attempts``, ``resumed``) the moment each
    point finishes.  It runs on the supervisor thread, so it must be
    cheap and thread-safe — :mod:`repro.service` uses it to stream
    completed points to HTTP clients while the sweep is still running.
    """

    store: Optional[CheckpointStore] = None
    retry: RetryPolicy = RetryPolicy()
    progress: Optional[Callable[[Dict[str, Any]], None]] = None


class _ActiveRun:
    """Mutable per-activation state: the runtime plus a sweep counter.

    Experiments may run several sweeps in sequence (e.g. baseline then
    protected Monte Carlo); the counter assigns each its own checkpoint
    file.  The execution order of sweeps inside an experiment is
    deterministic, so sequence numbers line up across runs and resumes.
    """

    __slots__ = ("runtime", "next_seq")

    def __init__(self, runtime: SweepRuntime) -> None:
        self.runtime = runtime
        self.next_seq = 0


#: per-thread activation: the sweep-as-a-service server computes several
#: experiments concurrently, each on its own thread with its own runtime
#: (progress hook, checkpoint store); a module-global here would leak one
#: request's runtime into another's sweeps
_tls = threading.local()


def _get_active() -> Optional[_ActiveRun]:
    return getattr(_tls, "active", None)


def _set_active(run: Optional[_ActiveRun]) -> None:
    _tls.active = run


#: process default retry policy; ``configure`` (CLI --retries/--task-timeout)
#: replaces it and forces the resilient executor on for subsequent runs
_default_policy: RetryPolicy = RetryPolicy()
_force_resilient: bool = False


def configure(
    *,
    max_attempts: Optional[int] = None,
    backoff_s: Optional[float] = None,
    backoff_factor: Optional[float] = None,
    max_backoff_s: Optional[float] = None,
    timeout_s: Optional[float] = None,
) -> RetryPolicy:
    """Set the process-default :class:`RetryPolicy` and force resilient mode.

    Mirrors :func:`repro.observability.configure`: the CLI calls this for
    ``--retries`` / ``--task-timeout`` so retry behaviour reaches sweeps
    nested arbitrarily deep in an experiment.  Returns the new default.
    """
    global _default_policy, _force_resilient
    changes = {
        k: v
        for k, v in {
            "max_attempts": max_attempts,
            "backoff_s": backoff_s,
            "backoff_factor": backoff_factor,
            "max_backoff_s": max_backoff_s,
            "timeout_s": timeout_s,
        }.items()
        if v is not None
    }
    _default_policy = replace(_default_policy, **changes)
    _force_resilient = True
    return _default_policy


def reset() -> None:
    """Restore the inactive default (test isolation helper)."""
    global _default_policy, _force_resilient
    _default_policy = RetryPolicy()
    _force_resilient = False
    _set_active(None)


def active_runtime() -> Optional[SweepRuntime]:
    """The installed runtime of the current thread, or ``None``."""
    active = _get_active()
    return None if active is None else active.runtime


@contextmanager
def sweep_runtime(
    out_dir: Optional[str | os.PathLike] = None,
    resume: Optional[str | os.PathLike] = None,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Iterator[Optional[SweepRuntime]]:
    """Install the resilient runtime for sweeps run inside the block.

    ``resume`` names an existing run directory (missing points only are
    re-executed; checkpointing continues into the same directory);
    ``out_dir`` starts a fresh one.  With neither, the block is a no-op
    unless a retry policy (here or via :func:`configure`) or a
    ``progress`` hook is given, in which case sweeps run supervised
    without durability.  Activation is **per thread** — concurrent
    threads (e.g. the results server computing several cache misses at
    once) each get their own runtime.  Nested activations on the same
    thread are no-ops: the outermost runtime wins, so an experiment
    entry point wrapping its body does not disturb a caller's runtime.
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
    policy = retry if retry is not None else _default_policy
    if (
        store is None
        and retry is None
        and progress is None
        and not _force_resilient
    ):
        yield None
        return
    run = _ActiveRun(SweepRuntime(store=store, retry=policy, progress=progress))
    _set_active(run)
    try:
        yield run.runtime
    finally:
        _set_active(None)
        if store is not None:
            store.close()


def _claim_sequence() -> int:
    active = _get_active()
    assert active is not None
    seq = active.next_seq
    active.next_seq += 1
    return seq


# ----------------------------------------------------------------------
# supervised worker processes
# ----------------------------------------------------------------------
def _worker_main(conn: connection.Connection) -> None:  # pragma: no cover — child
    """Worker loop: receive ``(index, payload)``, send a result dict.

    Runs until the supervisor sends ``None`` or the pipe closes.  All
    exceptions — including unpickling a poisoned task and pickling an
    unpicklable result — are contained to the offending point.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        index, payload = msg
        try:
            conn.send(_run_payload(index, payload))
        except (BrokenPipeError, OSError):
            return


def _run_payload(index: int, payload: bytes) -> dict:
    """Execute one pickled task; never raises."""
    import traceback as tb

    from ..network import warm

    warm.drain_setup_seconds()
    t0 = time.perf_counter()
    try:
        task = pickle.loads(payload)
        out = task.fn(*task.args, **task.kwargs)
        if type(out).__name__ == "PointOutcome":
            value, cycles = out.value, int(out.cycles)
            fallbacks = int(getattr(out, "fallbacks", 0))
            reasons = list(getattr(out, "fallback_reasons", ()) or ())
            points = int(getattr(out, "points", 1))
        else:
            value = out
            raw = getattr(out, "cycles", 0)
            cycles = int(raw) if isinstance(raw, int) else 0
            fallbacks = 0
            reasons = []
            points = 1
        value_bytes = pickle.dumps(value)
    except Exception as exc:
        return {
            "index": index,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": tb.format_exc(),
        }
    wall = time.perf_counter() - t0
    setup = warm.drain_setup_seconds()
    return {
        "index": index,
        "ok": True,
        "value": value_bytes,
        "cycles": cycles,
        "fallbacks": fallbacks,
        "fallback_reasons": reasons,
        "points": points,
        "setup_s": setup,
        "run_s": max(0.0, wall - setup),
    }


class _Worker:
    """One supervised worker slot (process + pipe + in-flight state)."""

    __slots__ = ("slot", "proc", "conn", "index", "attempt", "started",
                 "points", "cycles", "setup_s", "run_s", "retries",
                 "timeouts", "checkpointed", "fallbacks",
                 "fallback_reasons")

    def __init__(self, slot: int, ctx) -> None:
        self.slot = slot
        self.points = 0
        self.cycles = 0
        self.setup_s = 0.0
        self.run_s = 0.0
        self.retries = 0
        self.timeouts = 0
        self.checkpointed = 0
        self.fallbacks = 0
        self.fallback_reasons: List[str] = []
        self.proc = None
        self.conn = None
        self.index: Optional[int] = None
        self.spawn(ctx)

    def spawn(self, ctx) -> None:
        parent, child = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main, args=(child,), daemon=True,
            name=f"resilient-worker-{self.slot}",
        )
        proc.start()
        child.close()
        self.proc, self.conn = proc, parent
        self.index, self.attempt, self.started = None, 0, 0.0

    @property
    def busy(self) -> bool:
        return self.index is not None

    def dispatch(self, index: int, attempt: int, payload: bytes) -> None:
        self.conn.send((index, payload))
        self.index, self.attempt = index, attempt
        self.started = time.monotonic()

    def discard(self, kill: bool = True) -> None:
        """Tear the slot down (crashed, hung, or sweep over)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover — already gone
            pass
        if self.proc is not None:
            if kill and self.proc.is_alive():
                self.proc.kill()
            self.proc.join(timeout=5.0)

    def shutdown(self) -> None:
        """Polite end-of-sweep stop (lets the worker exit its loop)."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.discard(kill=True)


#: supervisor poll interval: health checks and backoff wakeups (seconds)
_POLL_S = 0.05


class _Supervisor:
    """Run a list of tasks across replaceable workers with retries.

    The supervisor owns all scheduling state: a ready queue of
    ``(not_before, attempt, task)`` entries, the busy map implied by the
    worker slots, and the outcome tables.  One loop iteration = dispatch
    what is due, wait briefly for results, then health-check every busy
    worker (crash and watchdog detection).
    """

    def __init__(self, tasks, n_workers: int, policy: RetryPolicy, ctx) -> None:
        self.policy = policy
        self.ctx = ctx
        self.tasks = {t.index: t for t in tasks}
        self.payloads: Dict[int, bytes] = {}
        self.results: Dict[int, dict] = {}
        self.failures: Dict[int, dict] = {}
        self.attempts: Dict[int, int] = {t.index: 0 for t in tasks}
        self.ready: List[Tuple[float, int]] = []  # (not_before, index)
        self.on_success = None  # set by execute_sweep for checkpointing
        for t in tasks:
            try:
                self.payloads[t.index] = pickle.dumps(t)
            except Exception as exc:
                # an unpicklable task cannot reach a worker; retrying
                # cannot help either — fail the point immediately
                self.failures[t.index] = {
                    "error": f"unpicklable task: {type(exc).__name__}: {exc}",
                    "traceback": "",
                    "attempts": 1,
                }
        self.ready = [
            (0.0, t.index) for t in tasks if t.index not in self.failures
        ]
        self.workers = [
            _Worker(slot, ctx)
            for slot in range(min(n_workers, max(1, len(self.ready))))
        ]

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
            for w in self.workers:
                w.shutdown()

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
            _, index = self.ready.pop(slot_i)
            self.attempts[index] += 1
            w.dispatch(index, self.attempts[index], self.payloads[index])

    def _collect(self, timeout: float) -> None:
        busy = {w.conn: w for w in self.workers if w.busy}
        if not busy:
            if timeout:
                time.sleep(timeout)
            return
        for conn in connection.wait(list(busy), timeout=timeout):
            w = busy[conn]
            try:
                result = conn.recv()
            except (EOFError, OSError):
                # a dead process is attributed by the health check; a
                # live worker that closed its pipe is equally lost —
                # replace it and charge the attempt here
                if w.proc.is_alive():
                    index = w.index
                    self._replace(w)
                    self._attempt_failed(
                        w, index, "worker closed its result pipe", ""
                    )
                continue
            index = w.index
            w.index = None
            if result["ok"]:
                w.points += 1
                w.cycles += result["cycles"]
                w.fallbacks += result.get("fallbacks", 0)
                for r in result.get("fallback_reasons", []):
                    if r not in w.fallback_reasons:
                        w.fallback_reasons.append(r)
                w.setup_s += result["setup_s"]
                w.run_s += result["run_s"]
                result["attempts"] = self.attempts[index]
                result["slot"] = w.slot
                self.results[index] = result
                if self.on_success is not None:
                    self.on_success(index, result, w)
            else:
                self._attempt_failed(w, index, result["error"], result["traceback"])

    def _health_check(self) -> None:
        now = time.monotonic()
        for w in self.workers:
            if not w.busy:
                continue
            if not w.proc.is_alive():
                index = w.index
                code = w.proc.exitcode
                self._replace(w)
                self._attempt_failed(
                    w, index,
                    f"worker crashed (exit code {code})",
                    "",
                )
            elif (
                self.policy.timeout_s is not None
                and now - w.started > self.policy.timeout_s
            ):
                index = w.index
                w.timeouts += 1
                self._replace(w)
                self._attempt_failed(
                    w, index,
                    f"point timed out after {self.policy.timeout_s:g}s "
                    "(worker killed and replaced)",
                    "",
                )

    def _replace(self, w: _Worker) -> None:
        """Kill a crashed/hung worker's remains and respawn the slot."""
        w.discard(kill=True)
        w.spawn(self.ctx)

    def _attempt_failed(
        self, w: _Worker, index: int, error: str, tb: str
    ) -> None:
        attempt = self.attempts[index]
        if attempt < self.policy.max_attempts:
            w.retries += 1
            self.ready.append(
                (time.monotonic() + self.policy.delay(attempt), index)
            )
        else:
            self.failures[index] = {
                "error": error, "traceback": tb, "attempts": attempt,
            }


# ----------------------------------------------------------------------
# the resilient run_sweep implementation
# ----------------------------------------------------------------------
def execute_sweep(tasks, jobs: Optional[int]):
    """Entry point used by :func:`repro.experiments.parallel.run_sweep`.

    Returns ``(values, SweepReport)`` like the classic engine; raises
    :class:`~repro.experiments.parallel.PartialSweepError` when points
    remain failed after retries (carrying everything that *did* complete)
    — never a raw worker traceback.
    """
    from ..observability import MetricsRegistry, global_config, merge_exports
    from .parallel import (
        PartialSweepError,
        PartialSweepReport,
        PointFailure,
        ShardReport,
        SweepReport,
        _pool_context,
        resolve_jobs,
    )

    active = _get_active()
    assert active is not None, "execute_sweep requires an active runtime"
    runtime = active.runtime
    store, policy = runtime.store, runtime.retry
    progress = runtime.progress
    seq = _claim_sequence()

    done: Dict[int, CompletedPoint] = {}
    if store is not None:
        done = store.open_sweep(seq, sweep_fingerprint(tasks), len(tasks))
    todo = [t for t in tasks if t.index not in done]
    labels = {t.index: t.label for t in tasks}
    if progress is not None:
        for index in sorted(done):
            progress({
                "sweep": seq,
                "index": index,
                "label": labels[index],
                "attempts": done[index].attempts,
                "points": done[index].points,
                "resumed": True,
            })

    t0 = time.perf_counter()
    sup: Optional[_Supervisor] = None
    skipped: Tuple[int, ...] = ()
    if todo:
        n_workers = min(resolve_jobs(jobs), len(todo)) or 1
        sup = _Supervisor(todo, n_workers, policy, _pool_context())

        def _on_point_done(index: int, result: dict, w: _Worker) -> None:
            if store is not None:
                store.append(
                    seq,
                    index=index,
                    label=labels[index],
                    value_bytes=result["value"],
                    cycles=result["cycles"],
                    setup_s=result["setup_s"],
                    run_s=result["run_s"],
                    attempts=result["attempts"],
                    fallbacks=result.get("fallbacks", 0),
                    fallback_reasons=result.get("fallback_reasons", []),
                    points=result.get("points", 1),
                )
                w.checkpointed += 1
            if progress is not None:
                progress({
                    "sweep": seq,
                    "index": index,
                    "label": labels[index],
                    "attempts": result["attempts"],
                    "points": result.get("points", 1),
                    "resumed": False,
                })

        sup.on_success = _on_point_done
        try:
            sup.run()
        except KeyboardInterrupt:
            # graceful preemption: everything checkpointed so far is
            # durable; report the rest as skipped instead of vanishing
            skipped = tuple(
                sorted(
                    set(t.index for t in todo)
                    - set(sup.results)
                    - set(sup.failures)
                )
            )
    wall = time.perf_counter() - t0

    # ---- reassemble values in task-index order -----------------------
    values: List[Any] = [None] * len(tasks)
    failures: List[PointFailure] = []
    for index, point in done.items():
        values[index] = point.value
    if sup is not None:
        for index, result in sup.results.items():
            values[index] = pickle.loads(result["value"])
        for index in sorted(sup.failures):
            info = sup.failures[index]
            failures.append(
                PointFailure(
                    index=index,
                    label=labels[index],
                    error=f"{info['error']} "
                    f"[{info['attempts']} attempt(s)]",
                    traceback=info["traceback"],
                )
            )

    # ---- shard reports: one per worker slot, plus the resumed points --
    shards = []
    if sup is not None:
        shards = [
            ShardReport(
                shard=w.slot,
                points=w.points,
                wall_time=wall,
                cycles=w.cycles,
                setup_s=w.setup_s,
                run_s=w.run_s,
                retries=w.retries,
                timeouts=w.timeouts,
                checkpointed=w.checkpointed,
                fallbacks=w.fallbacks,
                fallback_reasons=tuple(w.fallback_reasons),
            )
            for w in sup.workers
        ]
    if done:
        shards.append(
            ShardReport(
                shard=-1,
                points=sum(p.points for p in done.values()),
                wall_time=0.0,
                cycles=sum(p.cycles for p in done.values()),
                setup_s=sum(p.setup_s for p in done.values()),
                run_s=sum(p.run_s for p in done.values()),
                fallbacks=sum(p.fallbacks for p in done.values()),
                fallback_reasons=tuple(dict.fromkeys(
                    r
                    for p in done.values()
                    for r in p.fallback_reasons
                )),
            )
        )

    completed = tuple(i for i, v in enumerate(values) if v is not None)
    exports = [
        (tasks[i].label, getattr(v, "observability", None))
        for i, v in enumerate(values)
    ]
    observability = merge_exports(exports)
    # surface runtime counters through the metrics registry when it is on
    if global_config().metrics:
        reg = MetricsRegistry()
        reg.inc("resilient.points_completed", len(completed))
        reg.inc(
            "resilient.points_resumed",
            sum(p.points for p in done.values()),
        )
        reg.inc("resilient.points_failed", len(failures))
        reg.inc("resilient.points_skipped", len(skipped))
        reg.inc("resilient.retries", sum(s.retries for s in shards))
        reg.inc("resilient.timeouts", sum(s.timeouts for s in shards))
        reg.inc("resilient.checkpointed", sum(s.checkpointed for s in shards))
        merged = merge_exports(
            (exports if observability else [])
            + [("resilient-runtime", {"metrics": reg.snapshot()})]
        )
        observability = merged

    report_kwargs = dict(
        jobs=len(sup.workers) if sup is not None else 0,
        points=len(tasks),
        wall_time=wall,
        shards=tuple(shards),
        observability=observability,
        # point-accurate: a resumed lane chunk covers several points
        resumed=sum(p.points for p in done.values()),
    )
    if failures or skipped:
        report = PartialSweepReport(
            completed=completed,
            failed=tuple(failures),
            skipped=skipped,
            **report_kwargs,
        )
        raise PartialSweepError(report, values)
    return values, SweepReport(**report_kwargs)
