"""Where a lane run's host time goes, kernel by kernel.

Regenerates the lane-engine tables of ``docs/performance.md`` ("The step
on a call budget") and the CI ``ledger`` job's summary.  Two tables:

* per chunk — the two ``fig_suite_4x4`` suites (16 and 18 lanes x 16
  routers), ``lane_sweep_8x8``'s 64 points at width 32 and one
  ``campaign_4x4`` campaign — every kernel's µs per step, the seconds of
  lane installs, retirements and recovery polls, the step loop
  (``run() - install_s - retire_s`` over the steps) and the cycles the
  engine fast-forwarded over (``skipped``; a step is a cycle that ran, so
  the skipped ones are not in any per-step figure).  Every kernel call
  is timed, through the engine's ``_STAGES`` table, not the profiler's
  1-in-16 sample.  Beside the times, from one more run of the chunk, the
  step's exact counts (``tests/call_count.py``, the helper
  ``tests/test_call_budget.py`` holds to a ceiling): calls made from
  ``network/batched.py`` frames and array-operation opcodes executed in
  them, per step — figures that do not move with the host's load;
* one ``single_run_8x8`` run: the width-1 lane ``NoCSimulator.run()``
  rides against ``_run_stepped()``.

Chunks are built the way ``parallel._lane_batched_chunk`` builds them
(lanes with equal traffic factory and arguments share one source).  Not
a pytest bench: run it by hand,

    PYTHONPATH=src python benchmarks/measure_lane_stages.py [--smoke]

or, for a paired before/after table against another checkout's ``src``
— its ``network/batched.py`` (that file only: the rest of the package is
this tree's) loaded beside this one in one process, the two engines
alternating on identical lanes, results asserted equal per pair; each
side's median and the median of the paired ratios, and each side's
counts per step with their delta —

    python benchmarks/measure_lane_stages.py --against ../other/src
"""

import argparse
import importlib.util
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from unittest import mock

SRC = Path(__file__).resolve().parents[1] / "src"
LEDGER = Path(__file__).resolve().parent / "ledger"
TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path[:0] = [str(SRC), str(LEDGER), str(TESTS)]

from call_count import count_steps  # noqa: E402

from repro.experiments import fault_campaign, parallel  # noqa: E402
from repro.experiments.latency import suite_points  # noqa: E402
from repro.network import batched  # noqa: E402
from repro.network.simulator import NoCSimulator  # noqa: E402
from workloads import (  # noqa: E402
    Campaign4x4, FigSuite4x4, LaneSweep8x8, SingleRun8x8, build_sim,
    capture_lane_sweeps, digest_of, read_out,
)

SEED = 20140519
#: what the table reports besides the kernels, in row order: ``nic`` writes
#: the link's deliveries with its own flits, so the two are summed too
EXTRA = ("link + nic", "install_s", "retire_s", "poll_s", "step loop", "run() s", "skipped")


def instrument(cls):
    """``cls`` with every kernel call timed and every run kept."""

    def timed(name, kernel):
        def call(self, cycle, local):
            t = perf_counter()
            kernel(self, cycle, local)
            self.kernel_s[name] += perf_counter() - t

        return call

    class Timed(cls):
        _STAGES = tuple((name, timed(name, k)) for name, k in cls._STAGES)
        runs: list = []

        def run(self, on_result=None):
            self.kernel_s = defaultdict(float)
            t0 = perf_counter()
            # an engine from before the per-point hand-off takes no argument
            results = super().run() if on_result is None else super().run(on_result)
            self.run_s = perf_counter() - t0
            Timed.runs.append(self)
            return results

    return Timed


def steps_run(engine):
    """Global cycles the engine stepped: the ones it fast-forwarded over
    ran no kernel (an engine from before the fast-forward has none)."""
    return engine.total_lane_cycles // engine.L - getattr(engine, "skipped_cycles", 0)


def load_engine(src):
    """The ``BatchedLaneEngine`` of another tree's ``network/batched.py``,
    its relative imports resolved in this tree's package."""
    spec = importlib.util.spec_from_file_location(
        "repro.network.batched_other", Path(src) / "repro/network/batched.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: its dataclass looks itself up
    return module


def chunks(smoke):
    """name -> the points of one lane chunk, as the ledger's workloads run them."""
    fig = FigSuite4x4(SEED, smoke, "", None).cfg[smoke]
    workload = Campaign4x4(SEED, smoke, "", None)
    left = AssertionError("a campaign point ran on the object engine's own loop")
    with capture_lane_sweeps() as calls, mock.patch.object(
        NoCSimulator, "_run_stepped", side_effect=left
    ):
        fault_campaign.run(workload.cfg[smoke], jobs=1, seed=workload.run_seeds[0])
    ((campaign, _, _),) = calls
    return {
        "fig7 (splash2)": suite_points("splash2", fig),
        "fig8 (parsec)": suite_points("parsec", fig),
        "lane_sweep_8x8": LaneSweep8x8(SEED, smoke, "", None).points[smoke],
        "one campaign": campaign,
    }


def measure_chunk(module, engine_cls, points):
    """(row name -> value, "tables compiled / lanes", "lanes x routers",
    digest of the results) of one run of a chunk on ``engine_cls``."""
    compiled = []
    compile_table = module.compile_table

    def counting(source, until, config):
        compiled.append(source)
        return compile_table(source, until, config)

    batched.BatchedLaneEngine, module.compile_table = engine_cls, counting
    try:
        results = parallel._lane_batched_chunk(
            tuple(points), parallel.DEFAULT_LANE_WIDTH
        )
    finally:
        module.compile_table = compile_table
    engine = engine_cls.runs.pop()
    steps = steps_run(engine)
    row = {name: engine.kernel_s[name] / steps * 1e6 for name, _ in engine._STAGES}
    row.update({
        "link + nic": row["link"] + row["nic"],
        "install_s": engine.install_s,
        "retire_s": engine.retire_s,
        "poll_s": engine.poll_s,
        "step loop": (engine.run_s - engine.install_s - engine.retire_s) / steps * 1e6,
        "run() s": engine.run_s,
        "skipped": getattr(engine, "skipped_cycles", 0),
    })
    shape = f"{engine.L} x {engine.R}"
    return row, f"{len(compiled)} / {len(points)}", shape, digest_of(read_out(results))


def count_chunk(module, engine_cls, points):
    """(calls, array ops) per step of one run of a chunk on ``engine_cls``,
    ``module``'s engine, every step counted."""
    batched.BatchedLaneEngine = engine_cls
    counts = count_steps(
        engine_cls, [module.__file__],
        lambda: parallel._lane_batched_chunk(tuple(points), parallel.DEFAULT_LANE_WIDTH),
    )
    return counts.calls / counts.steps, counts.ops / counts.steps


def measure_single(engine_cls, point):
    """(lane step loop µs/step, lane run() µs/cycle, stepped µs/cycle, digest)."""
    batched.BatchedLaneEngine = engine_cls
    t0 = perf_counter()
    stepped = build_sim(point)._run_stepped()
    stepped_s = perf_counter() - t0
    rode = build_sim(point).run()
    engine = engine_cls.runs.pop()
    assert engine.L == 1 and rode.cycles == stepped.cycles
    assert digest_of(read_out([rode])) == digest_of(read_out([stepped]))
    loop_s = engine.run_s - engine.install_s - engine.retire_s
    return (
        loop_s / steps_run(engine) * 1e6,
        engine.run_s / rode.cycles * 1e6,
        stepped_s / stepped.cycles * 1e6,
        digest_of(read_out([rode])),
    )


def fmt(value):
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.3f}" if value < 10 else f"{value:,.1f}"


def one_side(args):
    plain = batched.BatchedLaneEngine
    engine_cls = instrument(plain)
    rows = []
    for name, points in chunks(args.smoke).items():
        row, tables, shape, _ = measure_chunk(batched, engine_cls, points)
        rows.append((f"{name}, {shape}", row, tables, count_chunk(batched, plain, points)))
    kernels = [name for name, _ in batched.BatchedLaneEngine._STAGES]
    print("### Lane-engine kernels, µs per step (every call timed); install, retire"
          " and poll seconds; the step loop; cycles fast-forwarded over; calls and"
          " array ops per step (counted)\n")
    print("| chunk | " + " | ".join(kernels + list(EXTRA))
          + " | tables / lanes | calls / step | array ops / step |")
    print("|---|" + "---|" * (len(kernels) + len(EXTRA) + 3))
    for name, row, tables, (calls, ops) in rows:
        print(f"| {name} | " + " | ".join(fmt(row[k]) for k in (*kernels, *EXTRA))
              + f" | {tables} | {calls:.1f} | {ops:.1f} |")
    print("\n### One run at 8x8: width-1 lane vs `_run_stepped()`\n")
    print("| routing | lane step loop µs / step | lane run() µs / cycle"
          " | _run_stepped() µs / cycle |")
    print("|---|---|---|---|")
    for point in SingleRun8x8(SEED, args.smoke, "", None).points[args.smoke]:
        loop, run, stepped, _ = measure_single(engine_cls, point)
        print(f"| {point.routing_kind} | {loop:.0f} | {run:.0f} | {stepped:.0f} |")


def alternate(sides, pairs, measure, what):
    """side -> ``pairs`` values of ``measure(side)`` (a value and a digest),
    alternating which side goes first; the digests of every pair agree."""
    runs = {side: [] for side in sides}
    for i in range(pairs):
        digests = set()
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            value, digest = measure(side)
            runs[side].append(value)
            digests.add(digest)
        assert len(digests) == 1, f"{what}: the two engines disagree"
    return runs


def paired(args):
    other = load_engine(args.against)
    plain = {"before": other.BatchedLaneEngine, "after": batched.BatchedLaneEngine}
    sides = {side: (module, instrument(plain[side])) for side, module in (
        ("before", other), ("after", batched),
    )}
    kernels = [name for name, _ in batched.BatchedLaneEngine._STAGES]
    print(f"µs per step, {args.against} -> {SRC}: each side's median of "
          f"{args.pairs} alternations and the median of the paired after / before ratios;"
          " the counted rows' last column is after - before\n")
    for name, points in chunks(args.smoke).items():
        shapes = set()

        def measure(side):
            row, _, shape, digest = measure_chunk(*sides[side], points)
            shapes.add(shape)
            return row, digest

        runs = alternate(sides, args.pairs, measure, name)
        print(f"**{name}, {shapes.pop()} lanes x routers**\n")
        print("| | before | after | paired |")
        print("|---|---|---|---|")
        for k in (*kernels, *EXTRA):
            before, after = (statistics.median(r[k] for r in runs[s]) for s in sides)
            ratio = statistics.median(
                a[k] / b[k] if b[k] else 1.0 for b, a in zip(runs["before"], runs["after"])
            )
            print(f"| {k} | {fmt(before)} | {fmt(after)} | {ratio:.2f} |")
        counted = {side: count_chunk(sides[side][0], plain[side], points) for side in sides}
        for i, what in enumerate(("calls / step", "array ops / step")):
            before, after = (counted[side][i] for side in sides)
            print(f"| {what} (counted) | {before:.1f} | {after:.1f} | {after - before:+.1f} |")
        print(flush=True)
    print("**One run at 8x8, width-1 lane step loop µs / step**\n")
    print("| routing | before | after | paired |")
    print("|---|---|---|---|")
    for point in SingleRun8x8(SEED, args.smoke, "", None).points[args.smoke]:

        def step_loop(side):
            loop, _, _, digest = measure_single(sides[side][1], point)
            return loop, digest

        runs = alternate(sides, args.pairs, step_loop, point.routing_kind)
        before, after = (statistics.median(runs[s]) for s in sides)
        ratio = statistics.median(a / b for b, a in zip(runs["before"], runs["after"]))
        print(f"| {point.routing_kind} | {before:.0f} | {after:.0f} | {ratio:.2f} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="the ledger's smoke configs")
    parser.add_argument("--against", type=Path, help="another checkout's src")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    engine = batched.BatchedLaneEngine
    try:
        paired(args) if args.against else one_side(args)
    finally:
        batched.BatchedLaneEngine = engine


if __name__ == "__main__":
    main()
