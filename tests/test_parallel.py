"""Tests for the deterministic multiprocessing sweep engine
(:mod:`repro.experiments.parallel`) and the serial == parallel guarantee
of every sweep-shaped experiment wired into it."""

import dataclasses

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.experiments.parallel import (
    SweepTask,
    map_sweep,
    resolve_jobs,
    run_sweep,
    spawn_seeds,
)


def _square(x):
    return x * x


def _with_cycles(x):
    return _Ran(10 * x)


def _boom(x):
    raise RuntimeError(f"task {x} failed")


class TestEngine:
    def test_serial_matches_parallel_values(self):
        serial, _ = map_sweep(_square, [(i,) for i in range(9)])
        parallel, _ = map_sweep(_square, [(i,) for i in range(9)], jobs=3)
        assert serial == parallel == [i * i for i in range(9)]

    def test_results_in_task_order(self):
        tasks = [SweepTask(index=i, fn=_square, args=(i,)) for i in range(7)]
        values, _ = run_sweep(tasks, jobs=2)
        assert values == [i * i for i in range(7)]

    def test_bad_indices_rejected(self):
        tasks = [SweepTask(index=5, fn=_square, args=(1,))]
        with pytest.raises(ValueError):
            run_sweep(tasks)

    def test_cycles_of_a_value_are_accounted(self):
        values, report = map_sweep(_with_cycles, [(i,) for i in range(4)])
        assert values == [_Ran(0), _Ran(10), _Ran(20), _Ran(30)]
        assert report.cycles == 10 * (0 + 1 + 2 + 3)

    def test_shard_report_covers_all_points(self):
        _, report = map_sweep(_square, [(i,) for i in range(10)], jobs=3)
        assert report.jobs == 3
        assert sum(s.points for s in report.shards) == 10
        assert report.points == 10
        assert "points" in report.format()

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError):
            map_sweep(_boom, [(1,)], jobs=2)

    def test_more_jobs_than_tasks(self):
        values, report = map_sweep(_square, [(3,)], jobs=8)
        assert values == [9]
        assert report.jobs == 1  # clamped to the task count

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1  # all cores
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestSpawnSeeds:
    def test_deterministic_and_independent_of_layout(self):
        a = spawn_seeds(42, 8)
        b = spawn_seeds(42, 8)
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        assert all(
            np.random.default_rng(x).integers(1 << 30)
            == np.random.default_rng(y).integers(1 << 30)
            for x, y in zip(a, b)
        )

    def test_children_differ(self):
        a, b = spawn_seeds(42, 2)
        assert np.random.default_rng(a).integers(1 << 30) != np.random.default_rng(
            b
        ).integers(1 << 30)

    def test_accepts_generator_and_seedseq(self):
        assert len(spawn_seeds(np.random.default_rng(1), 3)) == 3
        assert len(spawn_seeds(np.random.SeedSequence(1), 3)) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)


class TestMonteCarloDeterminism:
    def test_network_reliability_bit_identical(self):
        from repro.config import NetworkConfig
        from repro.reliability.network_level import analyze_network_reliability

        net = NetworkConfig(width=3, height=3)
        serial = analyze_network_reliability(net, trials=24, rng=9)
        sharded = analyze_network_reliability(net, trials=24, rng=9, jobs=2)
        assert serial.mean_first_failure == sharded.mean_first_failure
        assert serial.mean_kth_failure == sharded.mean_kth_failure
        assert serial.mean_disconnection == sharded.mean_disconnection


class TestSimulationSweepDeterminism:
    def test_load_latency_bit_identical(self):
        from repro.experiments import load_latency

        cfg = load_latency.LoadLatencyConfig(
            rates=(0.04, 0.10), measure=400, num_faults=8
        )
        serial = load_latency.run(cfg)
        parallel = load_latency.run(cfg, jobs=2)
        assert serial.extras["points"] == parallel.extras["points"]
        assert parallel.extras["sweep"].cycles > 0  # simulated cycles are accounted

    def test_fault_sweep_bit_identical(self):
        from repro.experiments import fault_sweep
        from repro.experiments.latency import LatencyConfig

        cfg = fault_sweep.FaultSweepConfig(
            fault_counts=(0, 8),
            latency=LatencyConfig(
                width=4, height=4, warmup_cycles=200, measure_cycles=600,
                drain_cycles=2000, num_faults=8,
            ),
        )
        serial = fault_sweep.run(cfg)
        parallel = fault_sweep.run(cfg, jobs=2)
        assert serial.extras["rows"] == parallel.extras["rows"]


class TestRunnerJobsFlag:
    def test_cli_accepts_jobs(self, capsys):
        from repro.experiments.runner import main

        assert main(["network_reliability", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "sweep:" in out  # shard report surfaced

    def test_cli_rejects_negative_jobs(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["table2", "--jobs", "-1"])

    def test_registry_passes_jobs_through(self):
        from repro.experiments import run_experiment

        res = run_experiment("network_reliability", quick=True, jobs=2)
        assert res.extras["sweep"].jobs == 2


def _boom_even(x):
    if x % 2 == 0:
        raise ValueError(f"even point {x}")
    return x


class TestWorkerFailures:
    """A point raising inside a worker must fail the sweep loudly."""

    def test_all_failures_collected_with_tracebacks(self):
        from repro.experiments.parallel import SweepError

        with pytest.raises(SweepError) as exc_info:
            map_sweep(
                _boom_even,
                [(i,) for i in range(6)],
                jobs=2,
                labels=[f"p{i}" for i in range(6)],
            )
        err = exc_info.value
        # every failing point is reported, in task order, with its label
        assert [f.index for f in err.failures] == [0, 2, 4]
        assert err.failures[0].label == "p0"
        assert "ValueError: even point 0" in str(err)
        assert "Traceback" in err.failures[0].traceback

    def test_sweep_error_is_a_runtime_error(self):
        from repro.experiments.parallel import SweepError

        assert issubclass(SweepError, RuntimeError)

    def test_serial_path_fails_identically(self):
        from repro.experiments.parallel import SweepError

        with pytest.raises(SweepError) as exc_info:
            map_sweep(_boom_even, [(0,)], jobs=1)
        assert len(exc_info.value.failures) == 1

    def test_cli_exits_nonzero_on_worker_failure(self, capsys, monkeypatch):
        """Regression: ``python -m repro.experiments`` must not exit 0
        when an experiment raises inside a parallel worker shard."""
        from repro.experiments import runner, table1

        def _failing(config=None, *, jobs=None, **_):
            values, _ = map_sweep(_boom_even, [(0,), (1,)], jobs=jobs or 2)
            return values

        monkeypatch.setattr(table1, "run", _failing)
        rc = runner.main(["table1", "--jobs", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "table1 FAILED" in err
        assert "sweep point(s) failed" in err


def _raise_on_load():
    raise RuntimeError("poisoned payload")


class _PoisonOnUnpickle:
    """Pickles fine, explodes when a worker tries to unpickle it."""

    def __reduce__(self):
        return (_raise_on_load, ())


def _identity(x):
    return x


class TestShardSetupFailures:
    """Worker-side failures outside the point function (argument
    unpickling, shard setup) must surface as a PointFailure naming the
    offending task index — not as a raw pool traceback."""

    def test_poisoned_argument_fails_only_its_point(self):
        from repro.experiments.parallel import SweepError, SweepTask, run_sweep

        tasks = [
            SweepTask(index=0, fn=_identity, args=(0,), label="ok0"),
            SweepTask(
                index=1, fn=_identity, args=(_PoisonOnUnpickle(),),
                label="poisoned",
            ),
            SweepTask(index=2, fn=_identity, args=(2,), label="ok2"),
        ]
        with pytest.raises(SweepError) as exc_info:
            run_sweep(tasks, jobs=2)
        failures = exc_info.value.failures
        assert [f.index for f in failures] == [1]
        assert failures[0].label == "poisoned"
        assert "poisoned payload" in failures[0].error

    def test_serial_path_never_pickles(self):
        """jobs=1 stays in-process: arguments are not serialised, so an
        unpicklable (or poison) argument is simply passed through."""
        from repro.experiments.parallel import SweepTask, run_sweep

        poison = _PoisonOnUnpickle()
        tasks = [SweepTask(index=0, fn=_identity, args=(poison,))]
        values, _ = run_sweep(tasks, jobs=1)
        assert values[0] is poison


# ---------------------------------------------------------------------
# one executor: every mode of run_sweep assembles the same answer
@dataclasses.dataclass(frozen=True)
class _Ran:
    """A result exposing ``cycles`` the way ``SimulationResult`` does."""

    cycles: int


@dataclasses.dataclass(frozen=True)
class _Instrumented:
    observability: dict


def _batch(items, emit):
    """A batch task: hands its points over out of order, one by one."""
    for k in reversed(range(len(items))):
        emit(k, _Ran(items[k]))


def _instrumented(hits):
    reg = MetricsRegistry()
    reg.inc("probe.hits", hits)
    return _Instrumented({"metrics": reg.snapshot()})


_MIXED = [
    (_square, (3,)), (_Ran, (11,)), (_batch, ((5, 10, 15),)), (_instrumented, (4,)),
]


@pytest.mark.parametrize(
    "jobs, durable",
    [(1, False), (2, False), (1, True), (2, True)],
    ids=["inline", "supervised", "store-jobs1", "store-jobs2"],
)
def test_every_mode_assembles_the_same_sweep(jobs, durable, tmp_path):
    from repro import observability
    from repro.experiments import resilient

    tasks = [
        SweepTask(index=i, fn=fn, args=args, label=f"t{i}")
        for i, (fn, args) in enumerate(_MIXED)
    ]
    # the batch runs points 2-4; the last task moves up to point 5
    tasks[2] = dataclasses.replace(tasks[2], points=((2, "b2"), (3, "b3"), (4, "b4")))
    tasks[3] = dataclasses.replace(tasks[3], index=5)
    observability.configure(metrics=True)  # turns the resilient.* counters on
    try:
        with resilient.sweep_runtime(out_dir=tmp_path if durable else None):
            assert (resilient.active_runtime() is not None) == durable
            values, report = run_sweep(tasks, jobs=jobs)
    finally:
        observability.reset()

    assert values == [9, _Ran(11), _Ran(5), _Ran(10), _Ran(15), _instrumented(4)]
    assert report.points == 6 and report.jobs == jobs
    assert report.cycles == 11 + 30
    # every point is a row of its own, the batch's three included
    assert sum(s.points for s in report.shards) == 6
    assert report.checkpointed == (6 if durable else 0)
    counters = report.observability["metrics"]["counters"]
    assert any(k.startswith("resilient.") for k in counters) == durable
    assert {
        k: v for k, v in counters.items() if not k.startswith("resilient.")
    } == {"probe.hits": 4}


_CRASH_DRIVER = """\
import multiprocessing, os, signal, sys, threading, time

from repro.experiments.parallel import (
    PartialSweepError, SweepError, SweepTask, run_sweep,
)
from repro.experiments.resilient import NO_RETRY, sweep_runtime


def die_on_2(x):
    if x == 2:
        os._exit(9)  # what an OOM kill looks like from the parent
    return x * x


def nap(x, started):
    open(os.path.join(started, str(x)), "w").close()
    time.sleep(30)


def tasks(fn, *extra):
    return [
        SweepTask(index=i, fn=fn, args=(i, *extra), label=f"p{i}")
        for i in range(4)
    ]


def interrupt_once_running(started):
    while len(os.listdir(started)) < 2:  # both workers are inside a task
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGINT)


try:
    run_sweep(tasks(die_on_2), jobs=2)
except SweepError as exc:
    assert not isinstance(exc, PartialSweepError)
    (failure,) = exc.failures
    assert failure.index == 2 and failure.label == "p2", failure
    assert "worker c" in failure.error and "[1 attempt(s)]" in failure.error
else:
    sys.exit("a dead worker did not fail the sweep")
assert not multiprocessing.active_children()

for runtime in (False, True):
    started = os.path.join(sys.argv[1], str(runtime))
    os.mkdir(started)
    threading.Thread(target=interrupt_once_running, args=(started,)).start()
    try:
        with sweep_runtime(retry=NO_RETRY if runtime else None):
            run_sweep(tasks(nap, started), jobs=2)
    except KeyboardInterrupt:
        assert not runtime
    except PartialSweepError as exc:
        assert runtime and exc.report.skipped == (0, 1, 2, 3), exc.report
        assert exc.values == [None] * 4
    else:
        sys.exit("the interrupt vanished")
    assert not multiprocessing.active_children()
print("ok")
"""


def test_dead_worker_or_interrupt_never_hangs_a_plain_sweep(tmp_path):
    """``jobs=2`` with no runtime: a worker that dies fails its one point
    as a ``SweepError`` within seconds, and ``KeyboardInterrupt``
    propagates (or, under a runtime, becomes ``skipped``) with every
    worker shut down.  Run in a subprocess under a hard timeout because
    the process pool this replaced waited forever on the dead worker."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = tmp_path / "driver.py"
    script.write_text(_CRASH_DRIVER)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path)], env=env, timeout=30,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


_IMPORT_DRIVER = """\
import sys

import repro.experiments.parallel as parallel

assert "numpy.random" in sys.modules
before = {name for name in sys.modules if name.startswith("numpy")}


def draw(x):
    import numpy as np

    value = np.random.default_rng(x).random()
    return value, sorted(n for n in sys.modules if n.startswith("numpy"))


values, _ = parallel.run_sweep(
    [parallel.SweepTask(index=i, fn=draw, args=(i,)) for i in range(2)], jobs=2
)
for _, loaded in values:
    assert set(loaded) <= before, sorted(set(loaded) - before)
print("ok")
"""


def test_a_forked_worker_imports_no_numpy_module(tmp_path):
    """NumPy loads ``numpy.random`` on first use; ``parallel`` imports it so
    a worker forked from a parent that never drew a number starts with it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = tmp_path / "driver.py"
    script.write_text(_IMPORT_DRIVER)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, timeout=60,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
