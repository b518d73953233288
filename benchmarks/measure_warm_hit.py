"""Where a warm service hit's server time goes, line by line.

Regenerates the per-line table of ``docs/performance.md`` ("The request
path").  One process builds a ``SweepService`` on a temporary cache
holding one ``fault_sweep`` entry (``service_mix``'s config), then times
each line of a repeat ``POST /v1/sweeps`` hit on it, the lines taking
turns call by call:

* ``parse + fingerprint`` — the body to its fingerprint;
* ``validation`` — ``ResultCache.get`` (the file is read every time);
* ``reply`` — the hit's reply bytes;
* ``whole hit`` — ``SweepService._route`` on a socket-less writer: the
  three lines above plus counters and the HTTP head.

A tree whose ``SweepService`` has no ``_parse`` / ``_hit_reply`` is timed
on the code it inlines instead (``json.loads`` + ``effective_config`` +
``request_fingerprint``, and ``json.dumps`` of ``entry.to_json()``).  Not
a pytest bench: run it by hand,

    PYTHONPATH=src python benchmarks/measure_warm_hit.py

or, for a paired before/after table against another checkout's ``src``
(alternating subprocesses, one per side and pair; each side's median and
the median of the paired after / before ratios; the reply bytes of both
sides are checked equal),

    python benchmarks/measure_warm_hit.py --against ../other/src
"""

import argparse
import asyncio
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
LINES = ("parse + fingerprint", "validation", "reply", "whole hit")
EXPERIMENT = "fault_sweep"
#: ``service_mix``'s request config
CONFIG = {
    "fault_counts": [0, 2],
    "latency": {
        "width": 4, "height": 4, "warmup_cycles": 50,
        "measure_cycles": 300, "drain_cycles": 500, "num_faults": 8,
    },
}
SEED = 20140519


class _Sink:
    """The writer half of a connection, minus the socket."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


def _lines(service, body):
    """line -> a no-argument callable doing that line of a hit on ``body``."""
    from repro.service.fingerprint import effective_config, request_fingerprint
    from repro.service.server import _refuse_constant

    if hasattr(service, "_parse"):
        parse = lambda: service._parse(body).fingerprint  # noqa: E731
    else:
        def parse():
            req = json.loads(body.decode(), parse_constant=_refuse_constant)
            config, residual = effective_config(
                req["experiment"], req.get("config"), seed=req.get("seed")
            )
            return request_fingerprint(req["experiment"], config, seed=residual)

    fingerprint = parse()
    entry = service.cache.get(fingerprint)
    if hasattr(service, "_hit_reply"):
        reply = lambda: service._hit_reply(entry)  # noqa: E731
    else:
        def reply():
            return (json.dumps({"cached": True, **entry.to_json()}, sort_keys=True) + "\n").encode()
    return {
        "parse + fingerprint": parse,
        "validation": lambda: service.cache.get(fingerprint),
        "reply": reply,
    }


def hit_entry():
    """The request body of a hit and the cache entry it hits: the sweep is
    computed once, here."""
    from repro.experiments import fault_sweep
    from repro.service.cache import make_entry
    from repro.service.fingerprint import effective_config, request_fingerprint
    from repro.service.results import render_result

    body = json.dumps(
        {"experiment": EXPERIMENT, "stream": False, "config": CONFIG, "seed": SEED}
    ).encode()
    config, residual = effective_config(EXPERIMENT, CONFIG, seed=SEED)
    fingerprint = request_fingerprint(EXPERIMENT, config, seed=residual)
    payload, _ = render_result(fault_sweep.run(config, jobs=1, seed=residual))
    return body, make_entry(fingerprint, EXPERIMENT, config, payload, {"wall_s": 0.0, "jobs": 1})


def measure(calls):
    """line -> median µs over ``calls`` timed calls, and the reply's digest."""
    from repro.service.server import SweepService

    body, entry = hit_entry()

    async def go(root):
        service = SweepService(root, jobs=1)
        service.cache.put(entry)
        sink = _Sink()
        await service._route(sink, "POST", "/v1/sweeps", body)
        reply = bytes(sink.data)
        lines = _lines(service, body)
        times = {line: [] for line in LINES}
        for _ in range(calls):
            for line, call in lines.items():
                t0 = perf_counter()
                call()
                times[line].append(perf_counter() - t0)
            sink.data.clear()
            t0 = perf_counter()
            await service._route(sink, "POST", "/v1/sweeps", body)
            times["whole hit"].append(perf_counter() - t0)
            if sink.data != reply:
                raise RuntimeError("a repeat hit answered other bytes")
        service.runtime.close()
        medians = {line: statistics.median(t) * 1e6 for line, t in times.items()}
        return medians, hashlib.sha256(reply).hexdigest()[:16]

    with tempfile.TemporaryDirectory(prefix="warm-hit-") as root:
        return asyncio.run(go(root))


def _one(src, calls):
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--one", "--calls", str(calls)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=2000, help="timed hits per process")
    parser.add_argument("--against", type=Path, help="another checkout's src")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(args.calls)))
        return
    if args.against is None:
        medians, _ = measure(args.calls)
        print(f"| line of a warm hit | µs (median of {args.calls}) |")
        print("|---|---|")
        for line in LINES:
            print(f"| {line} | {medians[line]:.1f} |")
        return
    runs = {args.against: [], SRC: []}
    for i in range(args.pairs):
        for side in (args.against, SRC) if i % 2 == 0 else (SRC, args.against):
            runs[side].append(_one(side, args.calls))
    digests = {run[1] for side in runs.values() for run in side}
    if len(digests) != 1:
        raise SystemExit("the two sides answer a hit with different bytes")
    print(f"µs per line of a warm hit, {args.against} -> {SRC} "
          f"({args.pairs} pairs of {args.calls}-hit processes)")
    print("| line of a warm hit | before | after | after / before (median of pairs) |")
    print("|---|---|---|---|")
    for line in LINES:
        before, after = ([run[0][line] for run in runs[side]] for side in (args.against, SRC))
        ratio = statistics.median(a / b for a, b in zip(after, before))
        print(
            f"| {line} | {statistics.median(before):.1f} | {statistics.median(after):.1f} "
            f"| {ratio:.2f} |"
        )


if __name__ == "__main__":
    main()
