"""Engineering benchmark: what a resilient runtime costs a sweep.

Every ``jobs=2`` sweep runs on supervised workers
(:mod:`repro.experiments.resilient`); a runtime adds the retry policy
and an append-only checkpoint store on top.  That must stay cheap: this
bench runs the same sweep on the supervisor bare (no runtime: one
attempt, nothing stored) and under a runtime that checkpoints every
point with ``max_attempts=2`` — the one variable is the store and the
policy — and asserts the overhead is bounded, then re-runs from the
completed checkpoint and asserts the resume path short-circuits
execution entirely.

Set ``REPRO_BENCH_JSON=<path>`` to write the measurements as JSON
(the CI `benchmark-smoke` job publishes them as the
``BENCH_resilient_sweep.json`` artifact and gates them with
``compare_bench.py``).
"""

import json
import os
import time

import numpy as np

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.resilient import RetryPolicy, sweep_runtime

POINTS = 12
DRAWS = 120_000  # ~a few ms of real numpy work per point


def _write_json(payload: dict) -> None:
    path = os.environ.get("REPRO_BENCH_JSON", "")
    if not path:
        return
    existing = {}
    if os.path.exists(path):
        with open(path) as fp:
            existing = json.load(fp)
    existing.update(payload)
    with open(path, "w") as fp:
        json.dump(existing, fp, indent=2, sort_keys=True)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _point(i: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.standard_normal(DRAWS).sum())


def _tasks():
    return [
        SweepTask(index=i, fn=_point, args=(i, 1000 + i), label=f"p{i}")
        for i in range(POINTS)
    ]


def test_resilient_engine_overhead(benchmark, tmp_path):
    """Supervisor with a checkpoint store + retries vs without, jobs=2."""
    (bare_values, _), bare_s = _timed(lambda: run_sweep(_tasks(), jobs=2))

    def resilient_run():
        with sweep_runtime(out_dir=tmp_path / "run",
                           retry=RetryPolicy(max_attempts=2)):
            return run_sweep(_tasks(), jobs=2)

    box = {}

    def measured():
        out, box["s"] = _timed(resilient_run)
        return out

    values, report = benchmark.pedantic(
        measured, rounds=1, iterations=1, warmup_rounds=0
    )
    resilient_s = box["s"]

    # same executor: bit-identical values, every point checkpointed
    assert values == bare_values
    assert report.checkpointed == POINTS
    assert report.retries == 0

    ratio = resilient_s / bare_s
    print(
        f"\nresilient sweep ({POINTS} points, jobs=2): supervisor alone "
        f"{bare_s:.2f}s, with store + retries {resilient_s:.2f}s "
        f"-> {ratio:.2f}x overhead"
    )
    _write_json({"resilient_sweep_overhead_x": round(ratio, 2)})
    # generous bound: checkpoint appends must not blow up a sweep of
    # short points (long points amortize them further)
    assert resilient_s <= bare_s * 3.0 + 2.0, (
        f"resilient runtime overhead out of bounds: {ratio:.2f}x"
    )


def test_resume_short_circuits_completed_points(benchmark, tmp_path):
    """Resuming a fully-checkpointed run must replay, not re-execute."""
    run_dir = tmp_path / "run"
    with sweep_runtime(out_dir=run_dir):
        full_values, _ = run_sweep(_tasks(), jobs=2)

    def resume():
        with sweep_runtime(resume=run_dir):
            return run_sweep(_tasks(), jobs=2)

    box = {}

    def measured():
        out, box["s"] = _timed(resume)
        return out

    values, report = benchmark.pedantic(
        measured, rounds=1, iterations=1, warmup_rounds=0
    )
    resume_s = box["s"]

    assert values == full_values
    assert report.resumed == POINTS
    assert report.checkpointed == 0

    rate = POINTS / resume_s
    print(
        f"\nresume of a complete run: {POINTS} points replayed in "
        f"{resume_s:.3f}s ({rate:,.0f} points/s, no workers spawned)"
    )
    _write_json({"resilient_resume_points_per_s": round(rate, 1)})
    # replay is pure JSONL reading — it must beat re-execution handily
    assert resume_s < 1.0, f"checkpoint replay too slow: {resume_s:.3f}s"
