"""What a synthetic traffic source costs to draw, per lane-cycle.

Regenerates the table of ``docs/performance.md`` ("Traffic drawn ahead
into packet tables"): four sources — the 8x8 coherence source, the
bursty hotspot ``ocean`` surrogate on 4x4, and a 5e-5 sparse source on
4x4 and 8x8 — each drawn as one table (``compile_table``, what a lane
takes) and cycle by cycle through ``generate()`` (what the object engine
reads), in microseconds per simulated cycle, the best of ``--repeats``
fresh sources.  Not a pytest bench: run it by hand,

    PYTHONPATH=src python benchmarks/measure_traffic_draw.py

or, for a before/after table against another checkout's ``src``
(alternating subprocesses, the median over ``--pairs``; the packets of
both sides are checked equal),

    python benchmarks/measure_traffic_draw.py --against ../other/src
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
#: name -> (mesh side, horizon in cycles)
CASES = {
    "coherence 8x8": (8, 4000),
    "ocean 4x4": (4, 20_000),
    "sparse 5e-5 4x4": (4, 400_000),
    "sparse 5e-5 8x8": (8, 200_000),
}
#: ``generate()`` is timed over at most this many cycles
GENERATE_CYCLES = 20_000


def _source(name, seed):
    from repro.config import NetworkConfig, RouterConfig
    from repro.traffic.apps import make_app_traffic
    from repro.traffic.generator import COHERENCE_MIX, SyntheticTraffic

    side, _ = CASES[name]
    net = NetworkConfig(
        width=side, height=side, router=RouterConfig(num_vcs=4, num_vnets=2)
    )
    if name.startswith("coherence"):
        return net, SyntheticTraffic(net, 0.1, mix=COHERENCE_MIX, rng=seed)
    if name.startswith("ocean"):
        return net, make_app_traffic(net, "ocean", rng=seed)
    return net, SyntheticTraffic(net, 5e-5, rng=seed)


def measure(name, repeats):
    """(table µs/cycle, generate µs/cycle, digest of the packets)."""
    from repro.traffic.generator import compile_table

    horizon = CASES[name][1]
    steps = min(horizon, GENERATE_CYCLES)
    table_s = generate_s = float("inf")
    digest = hashlib.sha256()
    for seed in range(repeats):
        net, source = _source(name, seed)
        t0 = perf_counter()
        table = compile_table(source, horizon, net)
        table_s = min(table_s, (perf_counter() - t0) / horizon)
        for col in (table.cycle, table.src, table.dest, table.vnet, table.size):
            digest.update(col.astype("<i8").tobytes())
        _, source = _source(name, seed)
        t0 = perf_counter()
        for cycle in range(steps):
            source.generate(cycle)
        generate_s = min(generate_s, (perf_counter() - t0) / steps)
    return table_s * 1e6, generate_s * 1e6, digest.hexdigest()[:16]


def _one(src, name, repeats):
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--one", name, "--repeats", str(repeats)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--against", type=Path, help="another checkout's src")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--one", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(args.one, args.repeats)))
        return
    if args.against is None:
        print("| source | table µs/cycle | generate() µs/cycle |")
        print("|---|---|---|")
        for name in CASES:
            table, generate, _ = measure(name, args.repeats)
            print(f"| {name} | {table:.2f} | {generate:.2f} |", flush=True)
        return
    print(f"µs per lane-cycle, {args.against} -> {SRC} (median of {args.pairs} pairs)")
    print("| source | table | × | generate() | × |")
    print("|---|---|---|---|---|")
    for name in CASES:
        runs = {args.against: [], SRC: []}
        for i in range(args.pairs):
            for side in (args.against, SRC) if i % 2 == 0 else (SRC, args.against):
                runs[side].append(_one(side, name, args.repeats))
        digests = {run[2] for side in runs.values() for run in side}
        assert len(digests) == 1, f"{name}: the two sides draw different packets"
        before, after = (
            [statistics.median(run[k] for run in runs[side]) for k in (0, 1)]
            for side in (args.against, SRC)
        )
        print(
            f"| {name} | {before[0]:.2f} → {after[0]:.2f} | {before[0] / after[0]:.2f} "
            f"| {before[1]:.2f} → {after[1]:.2f} | {before[1] / after[1]:.2f} |",
            flush=True,
        )


if __name__ == "__main__":
    main()
