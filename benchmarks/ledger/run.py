"""The layered performance ledger: one command, five workloads.

    python benchmarks/ledger/run.py [--seed N] [--workload NAME] [--out DIR] [--smoke]
    python benchmarks/ledger/run.py compare A.json B.json

Without ``--trace`` this orchestrates: one process per workload runs it
untraced for the end-to-end metrics, then one more makes the traced pass
for the per-layer metrics; every metric is printed by name with its unit
and the whole ledger is written to ``<out>/ledger.json``.

With ``--trace 0|1`` (how the benchmark driver calls it, see
``BENCHMARK.json``) this process *is* the workload process: it pins
itself to one vCPU, sets up, makes one reduced untimed warm-up pass,
repeats the timed region until ``--seconds`` are used (at least three
times), checks the outputs and prints one JSON object as its last line.
Every time it reports is in reference-host seconds (``host.py``).  See
README.md.
"""

import time

_T0 = time.perf_counter()  # process start, for setup_s: before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import host  # noqa: E402
from workloads import NAMES, SRC, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: recorded here because BENCHMARK.json's schema has no field for it
DEFAULT_SEED = 20140519
DEFAULT_SECONDS = 20
#: set-ups timed per run besides this process's own (fresh processes)
SETUP_PROBES = 4


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload at ~1/10 size (the test suite's scale)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.trace is not None or args.probe_setup) and args.workload is None:
        parser.error("--trace needs --workload")
    return args


# ----------------------------------------------------------------------
# the workload process
# ----------------------------------------------------------------------
def set_up(args, scratch):
    """Imports, input construction, server boot: everything ``setup_s`` covers."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    host.pin_to_one_cpu()  # before anything is started: children inherit it
    return WORKLOADS[args.workload](args.seed, args.smoke, scratch, host.Stopwatch())


def probe_setup(args):
    """Time one set-up in a fresh process (the median needs several)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--out", args.out, "--probe-setup",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def peak_rss_mb(workload):
    """Largest process of the workload; the server for ``service_mix``."""
    if workload.name == "service_mix":
        return workload.server.peak_rss_mb()
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def spread(per_pass, unit, raw=None):
    entry = {
        "value": statistics.median(per_pass), "unit": unit,
        "min": min(per_pass), "max": max(per_pass), "n": len(per_pass),
    }
    if raw is not None:  # the same samples before scaling by host speed
        entry["raw"] = statistics.median(raw)
    return entry


def measure(args, scratch):
    traced = bool(args.trace)
    workload = set_up(args, scratch)
    try:
        # set-up has no "before" sample: the kernel is part of what it imports
        raw_setup = time.perf_counter() - _T0
        setup = [{"raw": raw_setup, "setup_s": raw_setup / host.slowness()}]
        if args.probe_setup:
            print(json.dumps(setup[0]))
            return 0
        if not traced and not args.smoke:
            setup += [probe_setup(args) for _ in range(SETUP_PROBES)]
        workload.warm_up()

        # the traced run needs untraced repeats only as trace.overhead_x's base
        budget = args.seconds * (0.4 if traced else 1.0)
        at_least = 1 if args.smoke else 2 if traced else 3
        passes, begin = [], time.perf_counter()
        while True:
            before = time.perf_counter()
            passes.append(workload.run_once())
            typical = time.perf_counter() - before  # with the host-speed samples
            if (
                len(passes) >= at_least
                and time.perf_counter() - begin + typical > budget
            ):
                break
        rss = peak_rss_mb(workload)  # before the output check inflates it
        repeats = len(passes)

        if traced:
            import layers
            import tracing

            tracer = tracing.Tracer()
            layer, traced_passes = layers.traced_pass(
                workload, tracer, passes
            )
            passes += traced_passes  # their results must match the repeats'
            tracer.write(
                os.path.join(args.out, f"{args.workload}.spans.json"),
                workload=args.workload, seed=args.seed,
            )
        checks, bad = workload.verify(passes[-1])
    finally:
        workload.close()

    # repeats of one seed must agree exactly: simulated statistics are exact
    digests = {p.digest for p in passes}
    attempted = sum(p.ops for p in passes) + checks + len(passes) - 1
    failed = sum(p.failed for p in passes) + bad + len(digests) - 1

    if traced:
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in layers.LAYER_METRICS.items()
        }
    else:
        metrics = {
            "setup_s": spread(
                [x["setup_s"] for x in setup], "s", [x["raw"] for x in setup]
            ),
            "wall_s": spread(
                [p.wall_s for p in passes], "s", [p.raw_s for p in passes]
            ),
            "sim_cycles_per_s": spread(
                [p.cycles / p.wall_s for p in passes], "cycles/s",
                [p.cycles / p.raw_s for p in passes],
            ),
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        for name, attr in (("cold_req_p50_ms", "cold_ms"), ("warm_req_p50_ms", "warm_ms")):
            per_pass = [statistics.median(getattr(p, attr)) for p in passes]
            metrics[name] = {
                **spread(per_pass, "ms"),
                "value": statistics.median(
                    x for p in passes for x in getattr(p, attr)
                ),
                "samples": sum(len(getattr(p, attr)) for p in passes),
            }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": int(traced),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "repeats": repeats,
        "sim_digest": sorted(digests)[0] if len(digests) == 1 else None,
        "sim_cycles": passes[-1].cycles,
        "host_slowness": spread(workload.clock.samples, "x"),
        "metrics": metrics,
    }
    with open(os.path.join(args.out, f"{args.workload}.trace{int(traced)}.json"), "w") as fp:
        json.dump(record, fp, indent=1)

    print(f"== {args.workload} seed={args.seed} "
          f"{'traced pass' if traced else 'end to end'}, {repeats} untraced repeats")
    for name, entry in metrics.items():
        extra = (
            f"  [min {entry['min']:.6g} max {entry['max']:.6g} n={entry['n']}]"
            if "min" in entry else ""
        ) + (f"  raw {entry['raw']:.6g}" if "raw" in entry else "")
        print(f"  {name:<48s} {entry['value']:>14.6g} {entry['unit']}{extra}")
    print(f"  {'failed_frac':<48s} {failed / attempted:>14.6g} ratio"
          f"  [{failed} of {attempted}]")
    print(f"  sim_cycles {record['sim_cycles']}  sim_digest {record['sim_digest']}")
    slow = record["host_slowness"]
    print(f"  times are reference-host seconds; host slowness median "
          f"{slow['value']:.3f} [min {slow['min']:.3f} max {slow['max']:.3f} "
          f"n={slow['n']}]")
    if args.workload == "fig_suite_4x4" and traced:
        print("  accuracy: bench-scale 4x4 latency model, NOT validated against "
              "the paper; fig7/fig8 overhead error vs the paper's 0.10/0.13 is "
              "experiments.latency.fig*_overhead_pp_err above")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()
        },
    }))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# the orchestrator: one process per workload, untraced then traced
# ----------------------------------------------------------------------
def orchestrate(args):
    names = [args.workload] if args.workload else list(NAMES)
    ledger = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "workloads": {},
    }
    status = 0
    for name in names:
        row = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", args.out,
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            # the child's last line is for the driver; the ledger file has it all
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if done.returncode != 0:
                print(f"{name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(os.path.join(args.out, f"{name}.trace{trace}.json")) as fp:
                record = json.load(fp)
            key = "per_layer" if trace else "end_to_end"
            row[key] = record.pop("metrics")
            if not trace:
                row.update(
                    {k: record[k] for k in (
                        "correct", "attempted", "failed", "failed_frac",
                        "repeats", "sim_digest", "sim_cycles",
                    )}
                )
            elif record["sim_digest"] != row.get("sim_digest"):
                print(f"{name}: traced and untraced sim_digest differ", file=sys.stderr)
                status = 1
        ledger["workloads"][name] = row
    path = os.path.join(args.out, "ledger.json")
    with open(path, "w") as fp:
        json.dump(ledger, fp, indent=1)
    print(f"ledger written to {path}; spans per workload in "
          f"{args.out}/<workload>.spans.json")
    return status


def main(argv):
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    args = parse(argv)
    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    if args.trace is None and not args.probe_setup:
        return orchestrate(args)
    # checkpoints, caches and TMPDIR live here and go away with the run
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=args.out)
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
