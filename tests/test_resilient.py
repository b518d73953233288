"""Tests for the resilient sweep runtime (repro.experiments.resilient).

Covers the detect/contain/reroute loop (crashed and hung workers are
killed, replaced, and the point retried), graceful degradation to
:class:`PartialSweepError` / exit code 3, and the durability contract:
a sweep SIGKILLed mid-run resumes from its checkpoint directory
bit-identical to an uninterrupted run.
"""

import base64
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import sweep_files
from repro.experiments import fig7, runner, table1
from repro.experiments.latency import LatencyConfig
from repro.experiments.parallel import (
    PartialSweepError,
    PartialSweepReport,
    PointFailure,
    SweepTask,
    TaskRow,
    run_sweep,
)
from repro.experiments import resilient
from repro.experiments.resilient import (
    NO_RETRY,
    CheckpointStore,
    ResumeError,
    RetryPolicy,
    sweep_runtime,
)


# ---------------------------------------------------------------------
# worker task functions (module level: pickled into worker processes)
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _crash_once(x, marker_dir):
    """SIGKILL our own worker on the first attempt, succeed on retry."""
    marker = Path(marker_dir) / f"attempted-{x}"
    if not marker.exists():
        marker.write_text(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _hang(x, marker_dir=None):
    if marker_dir is not None:
        (Path(marker_dir) / f"hung-{x}").write_text(str(os.getpid()))
    time.sleep(3600)


def _pid(x):
    return os.getpid()


def _draw(x, seed):
    import numpy as np

    return np.random.default_rng(seed).random(3).tolist()


def _nap(x):
    time.sleep(0.2)
    return x


def _tasks(fn, n, offset=0, **kwargs):
    return [
        SweepTask(
            index=i, fn=fn, args=(i + offset,), kwargs=kwargs, label=f"p{i}"
        )
        for i in range(n)
    ]


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries 10 ms apart instead of the 0.25 s schedule."""
    monkeypatch.setattr(resilient, "BACKOFF_S", 0.01)


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        """One fixed schedule: 0.25 s, doubling, capped at 30 s."""
        p = RetryPolicy(max_attempts=10)
        assert [p.delay(n) for n in range(1, 10)] == [
            0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0,
        ]
        with pytest.raises(ValueError):
            p.delay(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)


class TestRetryAndContainment:
    def test_plain_sweep_unchanged_without_runtime(self):
        values, report = run_sweep(_tasks(_square, 4), jobs=2)
        assert values == [0, 1, 4, 9]
        assert report.resumed == 0 and report.retries == 0

    def test_crashed_worker_is_replaced_and_point_retried(
        self, tmp_path, fast_backoff
    ):
        tasks = _tasks(_crash_once, 4, marker_dir=str(tmp_path))
        with sweep_runtime(retry=RetryPolicy(max_attempts=3)):
            values, report = run_sweep(tasks, jobs=2)
        assert values == [0, 1, 4, 9]
        assert report.retries >= 1  # every point crashed its worker once

    def test_always_failing_point_degrades_to_partial(self, fast_backoff):
        tasks = _tasks(_square, 4)
        tasks[2] = SweepTask(index=2, fn=_boom, args=(2,), label="p2")
        with sweep_runtime(retry=RetryPolicy(max_attempts=2)):
            with pytest.raises(PartialSweepError) as exc_info:
                run_sweep(tasks, jobs=2)
        exc = exc_info.value
        assert exc.values == [0, 1, None, 9]
        report = exc.report
        assert isinstance(report, PartialSweepReport)
        assert report.completed == (0, 1, 3)
        assert [f.index for f in report.failed] == [2]
        assert "boom on 2" in report.failed[0].error
        assert report.skipped == ()

    def test_supervisor_sleeps_while_every_worker_is_busy(self):
        """More queued tasks than workers must not busy-spin the parent:
        already-due queue entries are no reason to poll at timeout 0."""
        with sweep_runtime(retry=RetryPolicy(max_attempts=1)):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            values, _ = run_sweep(_tasks(_nap, 4), jobs=1)
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
        assert values == [0, 1, 2, 3]
        assert wall >= 0.8
        assert cpu < 0.2 * wall, f"parent burned {cpu:.2f}s CPU in {wall:.2f}s"

    def test_hung_point_hits_watchdog(self, fast_backoff):
        tasks = _tasks(_square, 3)
        tasks[1] = SweepTask(index=1, fn=_hang, args=(1,), label="hang")
        policy = RetryPolicy(max_attempts=2, timeout_s=0.3)
        with sweep_runtime(retry=policy):
            with pytest.raises(PartialSweepError) as exc_info:
                run_sweep(tasks, jobs=2)
        exc = exc_info.value
        assert exc.values == [0, None, 4]
        assert exc.report.timeouts == 2  # both attempts timed out
        assert "timed out" in exc.report.failed[0].error


class TestWorkerLifetime:
    """Workers belong to the runtime: reused by its later sweeps, gone
    with it, and never reused after being busy, dead or lost."""

    def test_sweeps_of_one_runtime_share_a_worker(self):
        with sweep_runtime(retry=NO_RETRY) as runtime:
            first, _ = run_sweep(_tasks(_pid, 3), jobs=1)
            second, _ = run_sweep(_tasks(_pid, 3), jobs=1)
            assert runtime.spawned == 1 and runtime.idle == 1
        assert len(set(first + second)) == 1
        assert not multiprocessing.active_children()
        third, _ = run_sweep(_tasks(_pid, 2), jobs=2)  # no runtime: its own
        assert not set(third) & set(first)
        assert not multiprocessing.active_children()

    def test_worker_killed_while_idle_is_replaced_on_borrow(self):
        with sweep_runtime(retry=NO_RETRY) as runtime:
            (pid,), _ = run_sweep(_tasks(_pid, 1), jobs=1)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while any(p.pid == pid for p in multiprocessing.active_children()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (replacement,), report = run_sweep(_tasks(_pid, 1), jobs=1)
            assert replacement != pid and report.retries == 0
            assert runtime.spawned == 2 and runtime.idle == 1

    def test_lost_slots_are_never_kept(self, tmp_path, fast_backoff):
        tasks = _tasks(_crash_once, 2, marker_dir=str(tmp_path))
        tasks.append(SweepTask(
            index=2, fn=_hang, args=(2,), label="hang",
            kwargs={"marker_dir": str(tmp_path)},
        ))
        policy = RetryPolicy(max_attempts=2, timeout_s=0.5)
        with sweep_runtime(retry=policy) as runtime:
            with pytest.raises(PartialSweepError) as exc_info:
                run_sweep(tasks, jobs=2)
            assert exc_info.value.values == [0, 1, None]
            lost = {int(f.read_text()) for f in tmp_path.iterdir()}
            assert len(lost) >= 2  # the crashed workers and the hung one(s)
            kept = {w.proc.pid for w in runtime._idle}
            assert len(kept) == 2 and not kept & lost
            assert all(w.proc.is_alive() for w in runtime._idle)
            pids, report = run_sweep(_tasks(_pid, 4), jobs=2)
            assert set(pids) <= kept and report.retries == 0

    def test_interrupt_keeps_no_busy_worker(self, monkeypatch):
        collect = resilient._Supervisor._collect

        def interrupted(self, timeout):
            if all(w.busy for w in self.workers):
                raise KeyboardInterrupt
            collect(self, timeout)

        with sweep_runtime(retry=NO_RETRY) as runtime:
            run_sweep(_tasks(_pid, 2), jobs=2)
            assert runtime.idle == 2
            monkeypatch.setattr(resilient._Supervisor, "_collect", interrupted)
            with pytest.raises(PartialSweepError) as exc_info:
                run_sweep(_tasks(_hang, 4), jobs=2)
            assert exc_info.value.report.skipped == (0, 1, 2, 3)
            assert runtime.idle == 0
            assert not multiprocessing.active_children()

    def test_release_after_close_keeps_nothing(self):
        runtime = resilient.SweepRuntime()
        workers = runtime.borrow(1)
        runtime.close()
        runtime.release(workers)  # a sweep that outlived its server's close()
        assert runtime.idle == 0 and not multiprocessing.active_children()

    def test_shutdown_lets_the_worker_exit_by_itself(self):
        runtime = resilient.SweepRuntime()
        (worker,) = runtime.borrow(1)
        runtime.release([worker])
        runtime.close()
        assert worker.proc.exitcode == 0  # left its loop; -9 would be a kill

    def test_resume_is_identical_on_fresh_and_reused_workers(self, tmp_path):
        """Two sweeps per run: uninterrupted, the second rides the first's
        workers; resumed with the first complete it forks its own; resumed
        with both cut it rides the first's again."""
        first = [
            SweepTask(index=i, fn=_draw, args=(i, 100 + i), label=f"a{i}")
            for i in range(4)
        ]
        second = [
            SweepTask(index=i, fn=_draw, args=(i, 200 + i), label=f"b{i}")
            for i in range(4)
        ]

        def run(**kw):
            with sweep_runtime(**kw) as runtime:
                values = run_sweep(first, jobs=2)[0] + run_sweep(second, jobs=2)[0]
                return values, runtime.spawned

        def checkpointed(run_dir):
            return {
                (path.name, rec["index"]): rec["value"]
                for path in sorted(Path(run_dir).glob("sweep-*.jsonl"))
                for rec in map(json.loads, path.read_text().splitlines())
            }

        def cut(name, keep_first, keep_second):
            shutil.copytree(tmp_path / "ref", tmp_path / name)
            for tasks, keep in ((first, keep_first), (second, keep_second)):
                path = _sweep_file(tmp_path / name, tasks)
                path.write_text("".join(path.read_text().splitlines(True)[:keep]))
            return tmp_path / name

        reference, spawned = run(out_dir=tmp_path / "ref")
        assert spawned == 2
        fresh, spawned = run(resume=cut("fresh", 4, 1))
        assert spawned == 2  # nothing left of the first sweep to fork for
        reused, spawned = run(resume=cut("reused", 1, 1))
        assert spawned == 2
        assert fresh == reference and reused == reference
        golden = checkpointed(tmp_path / "ref")
        assert len(golden) == 8
        assert checkpointed(tmp_path / "fresh") == golden
        assert checkpointed(tmp_path / "reused") == golden


def _sweep_file(run_dir, tasks):
    """``tasks``' checkpoint file in ``run_dir``: the manifest entry of
    the key their pickles name."""
    key = resilient.sweep_key([pickle.dumps(t) for t in tasks])
    manifest = json.loads((Path(run_dir) / "manifest.json").read_text())
    return Path(run_dir) / manifest["sweeps"][key]["file"]


class TestCheckpointStore:
    def test_refuses_existing_run_without_resume(self, tmp_path):
        CheckpointStore(tmp_path, resume=False).close()
        with pytest.raises(ResumeError, match="already holds a run"):
            CheckpointStore(tmp_path, resume=False)
        # resume=True continues it
        CheckpointStore(tmp_path, resume=True).close()

    def test_checkpoint_then_resume_runs_nothing(self, tmp_path):
        with sweep_runtime(out_dir=tmp_path):
            values, report = run_sweep(_tasks(_square, 5), jobs=2)
        assert values == [0, 1, 4, 9, 16]
        assert report.checkpointed == 5
        (jsonl,) = sweep_files(tmp_path)
        assert len(jsonl.read_text().splitlines()) == 5

        with sweep_runtime(resume=tmp_path):
            values2, report2 = run_sweep(_tasks(_square, 5), jobs=2)
        assert values2 == values
        assert report2.resumed == 5
        assert report2.checkpointed == 0

    def test_a_resume_of_another_sweep_splices_nothing(self, tmp_path):
        """Equal point count and labels, other arguments: the resume
        finds no record of its own, runs in full, and leaves the first
        sweep's records where a resume of that one still finds them."""
        with sweep_runtime(out_dir=tmp_path):
            run_sweep(_tasks(_square, 4), jobs=1)
        with sweep_runtime(resume=tmp_path):
            values, report = run_sweep(_tasks(_square, 4, offset=10), jobs=1)
        assert values == [100, 121, 144, 169]
        assert (report.resumed, report.checkpointed) == (0, 4)
        files = sweep_files(tmp_path)
        assert [len(f.read_text().splitlines()) for f in files] == [4, 4]
        with sweep_runtime(resume=tmp_path):
            values, report = run_sweep(_tasks(_square, 4), jobs=1)
        assert values == [0, 1, 4, 9] and report.resumed == 4

    def test_two_sweeps_of_one_run_keep_their_records(self, tmp_path):
        """No sweep numbering: a resume that runs the sweeps in the
        other order finds each one's records all the same."""
        with sweep_runtime(out_dir=tmp_path):
            run_sweep(_tasks(_square, 3), jobs=1)
            run_sweep(_tasks(_square, 3, offset=5), jobs=1)
        with sweep_runtime(resume=tmp_path):
            shifted, late = run_sweep(_tasks(_square, 3, offset=5), jobs=1)
            plain, early = run_sweep(_tasks(_square, 3), jobs=1)
        assert (plain, shifted) == ([0, 1, 4], [25, 36, 49])
        assert (early.resumed, late.resumed) == (3, 3)
        assert early.checkpointed == late.checkpointed == 0

    def test_a_store_of_another_release_resumes_nothing(
        self, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            patch.setattr(resilient, "__version__", "0.0.1")
            with sweep_runtime(out_dir=tmp_path):
                run_sweep(_tasks(_square, 3), jobs=1)
        with sweep_runtime(resume=tmp_path):
            values, report = run_sweep(_tasks(_square, 3), jobs=1)
        assert values == [0, 1, 4]
        assert (report.resumed, report.checkpointed) == (0, 3)

    def test_a_version_1_directory_is_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"version": 1, "sweeps": {}})
        )
        with pytest.raises(ResumeError, match="unsupported manifest version"):
            CheckpointStore(tmp_path, resume=True)

    def test_a_version_2_directory_of_chunk_records_is_refused(self, tmp_path):
        """Version 2 kept one record per lane chunk, keyed by task: its
        indices are not points, so a resume refuses it, never splices it."""
        with sweep_runtime(out_dir=tmp_path):
            run_sweep(_tasks(_square, 2), jobs=1)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            manifest.read_text().replace('"version": 3', '"version": 2')
        )
        with pytest.raises(ResumeError, match="unsupported manifest version"):
            with sweep_runtime(resume=tmp_path):
                pass

    def test_torn_final_line_is_ignored(self, tmp_path):
        with sweep_runtime(out_dir=tmp_path):
            run_sweep(_tasks(_square, 4), jobs=1)
        (path,) = sweep_files(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # SIGKILL mid-write
        with sweep_runtime(resume=tmp_path):
            values, report = run_sweep(_tasks(_square, 4), jobs=1)
        assert values == [0, 1, 4, 9]
        assert report.resumed == 3  # torn point re-executed
        assert report.checkpointed == 1

    @staticmethod
    def _value(i):
        return {"point": i, "pad": "x" * (5 + i)}

    def _append(self, store, i):
        value = self._value(i)
        store.append(
            "k", TaskRow(index=i, value=value, cycles=10 * i), f"p{i}",
            pickle.dumps(value),
        )

    def _reload(self, run_dir):
        """Sweep ``k``'s rows as a resume of ``run_dir`` loads them."""
        store = CheckpointStore(run_dir, resume=True)
        rows = store.open_sweep("k", 5)
        store.close()
        return rows

    def _three_records(self, run_dir):
        """Points 0-2 of a five-point sweep, checkpointed; the JSONL file."""
        store = CheckpointStore(run_dir)
        store.open_sweep("k", 5)
        for i in range(3):
            self._append(store, i)
        store.close()
        (path,) = sweep_files(run_dir)
        return path

    def test_truncation_at_every_byte_offset(self, tmp_path):
        """Whatever byte a SIGKILL cut the file at, the reload never
        raises, never yields a wrong value, and every record whose JSON
        is whole loads."""
        file = self._three_records(tmp_path)
        whole = file.read_bytes()
        newlines = [i for i, b in enumerate(whole) if b == 0x0A]
        assert len(newlines) == 3 and whole.endswith(b"\n")
        for cut in range(len(whole) + 1):
            file.write_bytes(whole[:cut])
            rows = self._reload(tmp_path)
            complete = sum(cut >= nl for nl in newlines)
            assert sorted(rows) == list(range(complete)), cut
            for i, row in rows.items():
                assert row.value == self._value(i), cut
                assert (row.cycles, row.slot) == (10 * i, -1), cut

    def test_first_append_after_a_torn_tail_is_readable(self, tmp_path):
        file = self._three_records(tmp_path)
        file.write_bytes(file.read_bytes()[:-10])  # SIGKILL mid-write
        store = CheckpointStore(tmp_path, resume=True)
        assert sorted(store.open_sweep("k", 5)) == [0, 1]
        self._append(store, 2)
        self._append(store, 3)
        store.close()
        rows = self._reload(tmp_path)
        assert sorted(rows) == [0, 1, 2, 3]
        assert all(row.value == self._value(i) for i, row in rows.items())

    def _add_record(self, file, drop=(), **changes):
        rec = {
            "index": 3, "label": "p3", "attempts": 2, "cycles": 30,
            "run_s": 1.5,
            "value": base64.b64encode(pickle.dumps(self._value(3))).decode(),
        }
        rec.update(changes)
        for key in drop:
            del rec[key]
        with open(file, "a") as fp:
            fp.write(json.dumps(rec, sort_keys=True) + "\n")

    def test_a_checkpoint_line_with_setup_s_still_loads(self, tmp_path):
        """A record may carry a key the store no longer writes (``setup_s``,
        written before 2.2): the key is ignored, the record loads."""
        file = self._three_records(tmp_path)
        self._add_record(file, setup_s=0.25)
        rows = self._reload(tmp_path)
        assert sorted(rows) == [0, 1, 2, 3]
        assert rows[3] == TaskRow(
            index=3, value=self._value(3), cycles=30, run_s=1.5,
            attempts=2, slot=-1,
        )

    def test_a_checkpoint_line_with_fallback_keys_still_loads(self, tmp_path):
        """Records written before 2.3 carry a task's ``fallbacks`` and
        ``fallback_reasons``; the store ignores both keys."""
        file = self._three_records(tmp_path)
        self._add_record(
            file, attempts=1, run_s=0.5, fallbacks=1,
            fallback_reasons=["router kind 'roco'"],
        )
        rows = self._reload(tmp_path)
        assert sorted(rows) == [0, 1, 2, 3]
        assert rows[3] == TaskRow(
            index=3, value=self._value(3), cycles=30, run_s=0.5, slot=-1
        )

    @pytest.mark.parametrize(
        "field", ["index", "value", "cycles", "run_s", "attempts"]
    )
    def test_a_record_missing_a_field_is_rerun(self, tmp_path, field):
        """A record is whole or it is not one: no default fills a gap."""
        file = self._three_records(tmp_path)
        self._add_record(file, drop=(field,))
        assert sorted(self._reload(tmp_path)) == [0, 1, 2]


#: driver executed as a subprocess so the kill test can SIGKILL the whole
#: process group; task fns resolve as __main__.* in every invocation, so
#: the killed and the resumed run pickle the same tasks: one sweep key.
_DRIVER = """\
import json, sys, time

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.resilient import sweep_runtime

DELAY = float(sys.argv[4])


def slow_value(i, seed):
    import numpy as np

    time.sleep(DELAY)
    rng = np.random.default_rng(seed)
    return float(rng.random()) + i


def main():
    mode, run_dir, out_json = sys.argv[1:4]
    tasks = [
        SweepTask(index=i, fn=slow_value, args=(i, 1000 + i), label=f"p{i}")
        for i in range(10)
    ]
    kw = {"resume": run_dir} if mode == "resume" else {"out_dir": run_dir}
    with sweep_runtime(**kw):
        values, report = run_sweep(tasks, jobs=2)
    with open(out_json, "w") as fp:
        json.dump({"values": values, "resumed": report.resumed}, fp)


main()
"""


def _spawn_driver(script, mode, run_dir, out_json, delay, tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script), mode, str(run_dir), str(out_json),
         str(delay)],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestKillMidSweepGolden:
    """The acceptance pin: SIGKILL mid-sweep + --resume == uninterrupted."""

    def test_sigkill_resume_bit_identical(self, tmp_path):
        script = tmp_path / "driver.py"
        script.write_text(_DRIVER)

        # reference: uninterrupted run
        ref_json = tmp_path / "ref.json"
        proc = _spawn_driver(
            script, "run", tmp_path / "ref-run", ref_json, 0.0, tmp_path
        )
        assert proc.wait(timeout=120) == 0
        reference = json.loads(ref_json.read_text())
        assert len(reference["values"]) == 10

        # killed run: slow points, SIGKILL the process group once the
        # checkpoint holds at least one completed point
        run_dir = tmp_path / "killed-run"
        kill_json = tmp_path / "kill.json"
        proc = _spawn_driver(script, "run", run_dir, kill_json, 0.5, tmp_path)
        deadline = time.time() + 60
        while time.time() < deadline:
            files = sweep_files(run_dir)
            if files and files[0].exists() and files[0].read_text().splitlines():
                break
            if proc.poll() is not None:
                pytest.fail("driver exited before it could be killed")
            time.sleep(0.01)
        else:
            pytest.fail("no checkpointed point appeared within 60s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert not kill_json.exists()  # it really died mid-run

        # resume: only the missing points re-execute; values identical
        resume_json = tmp_path / "resume.json"
        proc = _spawn_driver(
            script, "resume", run_dir, resume_json, 0.0, tmp_path
        )
        assert proc.wait(timeout=120) == 0
        resumed = json.loads(resume_json.read_text())
        assert resumed["values"] == reference["values"]
        assert 1 <= resumed["resumed"] <= 10


def _point_sweep_quick(out_dir=None, resume=None):
    """Two fault_sweep-style points run one task each, so the store
    holds one checkpoint record per point (lane sweeps checkpoint per
    *chunk* — see TestLaneChunkResume in tests/test_batched_engine.py)."""
    from repro.experiments.latency import (
        QUICK_CONFIG,
        suite_schedule,
        suite_traffic,
    )
    from repro.experiments.parallel import LanePoint, map_sweep, run_point

    cfg = QUICK_CONFIG
    net = cfg.network()
    points = [
        LanePoint(
            config=net,
            sim_config=cfg.simulation(),
            make_traffic=suite_traffic,
            traffic_args=(net, "lu", cfg.seed, cfg.rate_scale),
            make_schedule=suite_schedule if n else None,
            schedule_args=(net, cfg.warmup_cycles, n, cfg.seed) if n else (),
            router_kind="protected",
            label=f"lu@{n}faults",
        )
        for n in (0, 8)
    ]
    with sweep_runtime(out_dir=out_dir, resume=resume):
        return map_sweep(run_point, [(p,) for p in points])


class TestSimulationResumeGolden:
    """Resume splices simulation results bit-identically into a real
    sweep (checkpoint truncated in-process instead of SIGKILL — cheaper
    than a subprocess, same reload path)."""

    def test_truncated_checkpoint_resume_matches(self, tmp_path):
        full, _ = _point_sweep_quick(out_dir=tmp_path / "run")
        # drop the last checkpointed point: simulates dying mid-sweep
        (jsonl,) = sweep_files(tmp_path / "run")
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 2  # one point per fault count (0, 8)
        jsonl.write_text(lines[0] + "\n")

        resumed, report = _point_sweep_quick(resume=tmp_path / "run")
        assert [r.cycles for r in resumed] == [r.cycles for r in full]
        assert [r.stats.summary() for r in resumed] == [
            r.stats.summary() for r in full
        ]
        assert report.resumed == 1


#: Figure 7 at a size a test affords: 16 points, one lane chunk per job
_TINY_FIG7 = LatencyConfig(
    width=4, height=4, warmup_cycles=100, measure_cycles=400,
    drain_cycles=800, num_faults=16,
)


def _fig7(config, seed, **kw):
    res = fig7.run(config, seed=seed, **kw)
    return res.rows, res.extras["sweep"].resumed


class TestNoSplice:
    """A resume under other flags runs in full.  A lane chunk's label
    names its kind and lanes, not its seed or mesh: only what the chunk
    runs tells two such runs apart."""

    def test_a_resume_under_another_seed_runs_in_full(self, tmp_path):
        first, _ = _fig7(_TINY_FIG7, 1, out_dir=tmp_path)
        rows, resumed = _fig7(_TINY_FIG7, 2, resume=tmp_path)
        fresh, _ = _fig7(_TINY_FIG7, 2)
        assert resumed == 0 and rows == fresh and rows != first
        assert len(sweep_files(tmp_path)) == 2

    def test_a_resume_of_another_mesh_runs_in_full(self, tmp_path):
        narrow = replace(_TINY_FIG7, width=3)
        _fig7(_TINY_FIG7, 1, out_dir=tmp_path)
        rows, resumed = _fig7(narrow, 1, resume=tmp_path)
        fresh, _ = _fig7(narrow, 1)
        assert resumed == 0 and rows == fresh


#: driver for :class:`TestKillMidChunk`: Figure 7's 16 points at test
#: size, one lane chunk at one job, under metrics.  In ``kill`` mode the
#: chunk holds once it has handed over ``HELD_AFTER`` points; the chunk
#: function is wrapped in every mode (one sweep key) and logs the lanes
#: of every chunk it builds
_CHUNK_DRIVER = """\
import json, sys, threading

from repro import observability
from repro.experiments import fig7, parallel
from repro.experiments.latency import LatencyConfig

HELD_AFTER = 5
mode, run_dir, out_json = sys.argv[1:4]
lane_chunk = parallel._lane_batched_chunk


def held_chunk(points, width, emit=None):
    with open(out_json + ".lanes", "a") as fp:
        fp.write(f"{len(points)}\\n")
    handed = []

    def hand_over(k, result):
        emit(k, result)
        handed.append(k)
        if mode == "kill" and len(handed) == HELD_AFTER:
            threading.Event().wait()

    return lane_chunk(points, width, hand_over)


parallel._lane_batched_chunk = held_chunk
observability.configure(metrics=True)
config = LatencyConfig(
    width=4, height=4, warmup_cycles=100, measure_cycles=400,
    drain_cycles=800, num_faults=16,
)
kw = {"resume": run_dir} if mode == "resume" else {"out_dir": run_dir}
res = fig7.run(config, jobs=1, seed=1, **kw)
report = res.extras["sweep"]
counters = report.observability["metrics"]["counters"]
with open(out_json, "w") as fp:
    json.dump({
        "rows": repr(res.rows),
        "points": report.points,
        "checkpointed": report.checkpointed,
        "counters": {
            k: v for k, v in counters.items() if k.startswith("resilient.")
        },
    }, fp)
"""


class TestKillMidChunk:
    """A SIGKILL inside a lane chunk costs only the points it had not
    handed over: the resume builds its engine over those alone, and the
    runtime's counters add up in points."""

    def test_sigkill_inside_a_chunk_reruns_only_its_unrecorded_points(self, tmp_path):
        script = tmp_path / "driver.py"
        script.write_text(_CHUNK_DRIVER)

        def run(mode, run_dir, out_json):
            proc = _spawn_driver(script, mode, run_dir, out_json, 0.0, tmp_path)
            assert proc.wait(timeout=120) == 0
            lanes = Path(f"{out_json}.lanes").read_text().split()
            return json.loads(out_json.read_text()), lanes

        reference, lanes = run("run", tmp_path / "ref-run", tmp_path / "ref.json")
        assert lanes == ["16"]  # one chunk of every point
        assert reference["points"] == 16
        assert reference["checkpointed"] == 16
        assert reference["counters"]["resilient.points_completed"] == 16
        assert reference["counters"]["resilient.checkpointed"] == 16

        run_dir, kill_json = tmp_path / "killed-run", tmp_path / "kill.json"
        proc = _spawn_driver(script, "kill", run_dir, kill_json, 0.0, tmp_path)
        deadline = time.time() + 60
        while time.time() < deadline:
            files = sweep_files(run_dir)
            if files and files[0].exists() and files[0].read_text().count("\n") == 5:
                (jsonl,) = files
                break
            if proc.poll() is not None:
                pytest.fail("driver exited before it could be killed")
            time.sleep(0.01)
        else:
            pytest.fail("the chunk's first five points were not recorded within 60s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert not kill_json.exists()
        at_kill = len(jsonl.read_text().splitlines())
        assert at_kill == 5

        resumed, lanes = run("resume", run_dir, tmp_path / "resume.json")
        assert lanes == ["11"]  # the chunk on its unrecorded points alone
        assert resumed["rows"] == reference["rows"]
        counters = resumed["counters"]
        assert counters["resilient.points_resumed"] == at_kill
        assert counters["resilient.points_completed"] + counters.get(
            "resilient.points_failed", 0
        ) + counters.get("resilient.points_skipped", 0) == resumed["points"] == 16
        assert counters["resilient.checkpointed"] == resumed["checkpointed"] == 11
        assert len(jsonl.read_text().splitlines()) == 16


class TestCLI:
    def test_partial_sweep_maps_to_exit_3(self, monkeypatch, capsys):
        def _partial(config=None, **_):
            report = PartialSweepReport(
                jobs=1, points=2, wall_time=0.0, shards=(),
                completed=(0,),
                failed=(
                    PointFailure(
                        index=1, label="p1", error="boom", traceback=""
                    ),
                ),
            )
            raise PartialSweepError(report, [42, None])

        monkeypatch.setattr(table1, "run", _partial)
        rc = runner.main(["table1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "table1 PARTIAL" in err
        assert "1/2 points completed" in err
        assert "partially completed" in err

    def test_hard_failure_still_exits_1(self, monkeypatch, capsys):
        def _hard(config=None, **_):
            raise RuntimeError("hard failure")

        monkeypatch.setattr(table1, "run", _hard)
        assert runner.main(["table1"]) == 1

    def test_out_dir_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main([
                "table1", "--out-dir", str(tmp_path / "a"),
                "--resume", str(tmp_path / "b"),
            ])

    def test_retries_flag_reaches_the_experiment_and_leaves_nothing(
        self, monkeypatch, tmp_path
    ):
        """The CLI's policy is the outermost runtime, so the experiment's
        own ``sweep_runtime`` (and every sweep inside it) runs under it;
        the experiment is called with no directories of its own."""
        seen = []
        real = table1.run

        def probe(config=None, **kw):
            seen.append((resilient.active_runtime().retry, kw))
            with sweep_runtime(out_dir=tmp_path / "inner") as inner:
                assert inner is resilient.active_runtime()
            return real(config, **kw)

        monkeypatch.setattr(table1, "run", probe)
        assert runner.main(
            ["table1", "--retries", "4", "--task-timeout", "9"]
        ) == 0
        (policy, kw), = seen
        assert policy == RetryPolicy(max_attempts=5, timeout_s=9.0)
        assert kw["out_dir"] is None and kw["resume"] is None
        assert not (tmp_path / "inner").exists()
        # nothing outlives the run: the next sweep_runtime() is a no-op
        assert resilient.active_runtime() is None
        with sweep_runtime() as rt:
            assert rt is None

    def test_an_existing_run_is_refused_without_resume(self, tmp_path, capsys):
        assert runner.main(["table1", "--out-dir", str(tmp_path)]) == 0
        assert runner.main(["table1", "--out-dir", str(tmp_path)]) == 1
        assert "already holds a run" in capsys.readouterr().err

    def test_all_checkpoints_into_one_directory(
        self, monkeypatch, tmp_path, capsys
    ):
        """One runtime and one directory for every experiment of ``all``:
        their sweeps sit side by side, and a resume finds each."""
        monkeypatch.setattr(runner, "EXPERIMENTS", {
            name: runner.EXPERIMENTS[name]
            for name in ("fault_sweep", "network_reliability")
        })
        assert runner.main(["all", "--quick", "--out-dir", str(tmp_path)]) == 0
        assert not [p for p in tmp_path.iterdir() if p.is_dir()]
        files = sweep_files(tmp_path)
        assert len(files) >= 2 and all(f.exists() for f in files)
        capsys.readouterr()
        assert runner.main(["all", "--quick", "--resume", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "checkpointed]" not in out
        assert out.count("resumed from checkpoint") == 2
        assert len(sweep_files(tmp_path)) == len(files)

    def test_out_dir_checkpoints_experiment(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = runner.main([
            "network_reliability", "--quick", "--jobs", "2", "--out-dir", str(run_dir),
        ])
        assert rc == 0
        assert (run_dir / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "checkpointed" in out

        rc = runner.main([
            "network_reliability", "--quick", "--jobs", "2", "--resume", str(run_dir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out
