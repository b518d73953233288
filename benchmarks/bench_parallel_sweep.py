"""Engineering benchmark: serial vs parallel sweep execution.

Runs a sweep-shaped experiment (the ``load_latency`` curve — one
independent simulation per point) through :mod:`repro.experiments.parallel`
serially and with ``jobs=2``, and the Table III Monte-Carlo campaign
(trial sharding rather than point sharding) both ways, asserting that the
results are bit-identical — the engine's determinism guarantee.  The
serial / ``jobs=2`` wall-time ratio is printed, not gated: on a shared
two-vCPU host it sits near 1x on any commit (ROADMAP 5(i)), and speed
claims are made against the ledger.
"""

import os
import time

import numpy as np

from repro.experiments.load_latency import sweep_sharded
from repro.reliability.spf import monte_carlo_faults_to_failure

RATES = (0.04, 0.08, 0.12, 0.16)
MEASURE = 1200


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_load_latency_serial_equals_parallel(benchmark):
    (serial_points, _), serial_s = _timed(
        sweep_sharded, RATES, measure=MEASURE, num_faults=16
    )

    def parallel():
        return sweep_sharded(RATES, measure=MEASURE, num_faults=16, jobs=2)

    (parallel_points, report) = benchmark.pedantic(
        parallel, rounds=1, iterations=1, warmup_rounds=0
    )
    parallel_s = report.wall_time

    # determinism: jobs is a pure wall-clock knob
    assert serial_points[0] == parallel_points[0]
    assert serial_points == parallel_points

    speedup = serial_s / parallel_s
    print(
        f"\nload_latency sweep: serial {serial_s:.2f}s, "
        f"jobs=2 {parallel_s:.2f}s -> {speedup:.2f}x "
        f"({_usable_cores()} usable core(s))"
    )


def test_spf_monte_carlo_serial_equals_parallel(benchmark):
    trials = 4000
    serial_mc, serial_s = _timed(
        monte_carlo_faults_to_failure, trials=trials, rng=1
    )

    def parallel():
        return monte_carlo_faults_to_failure(trials=trials, rng=1, jobs=2)

    parallel_mc = benchmark.pedantic(
        parallel, rounds=1, iterations=1, warmup_rounds=0
    )

    assert np.array_equal(serial_mc.samples, parallel_mc.samples)

    parallel_s = parallel_mc.sweep.wall_time
    speedup = serial_s / parallel_s
    print(
        f"\nspf monte carlo ({trials} trials): serial {serial_s:.2f}s, "
        f"jobs=2 {parallel_s:.2f}s -> {speedup:.2f}x "
        f"({_usable_cores()} usable core(s))"
    )
