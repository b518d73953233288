"""``run.py compare A.json B.json``: did B regress against A?

A and B are ``ledger.json`` files written by ``run.py``.  Each workload is
its own row: for every end-to-end metric B's median may be worse than
A's by at most the metric's bound from ``BENCHMARK.json`` (``setup_s``:
its bound or 0.15 s, whichever is larger; ``failed_frac``: nothing may
fail).  Where either side's recorded min-max spread is wider than the
bound the verdict is ``unresolved``, not ``unchanged`` — unless every run
of B reads better than every run of A.  Exits 1 on a regression, or when
the two ran the same seed and their ``sim_digest`` differs.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
SETUP_FLOOR_S = 0.15


def verdict(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])  # > 0: B is worse
    allowed = spec["bound"] * a["value"]
    if spec["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if worse_by > allowed:
        return "REGRESSION"
    a_lo, a_hi = a.get("min", a["value"]), a.get("max", a["value"])
    b_lo, b_hi = b.get("min", b["value"]), b.get("max", b["value"])
    if max(a_hi - a_lo, b_hi - b_lo) > allowed:
        b_wins_every_run = b_hi < a_lo if sign > 0 else b_lo > a_hi
        return "improved" if b_wins_every_run else "unresolved"
    return "improved" if -worse_by > allowed else "unchanged"


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fp:
        a = json.load(fp)
    with open(argv[1]) as fp:
        b = json.load(fp)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        specs = json.load(fp)["end_to_end"]

    status = 0
    for name in a["workloads"]:
        row_a, row_b = a["workloads"][name], b["workloads"].get(name)
        if row_b is None:
            print(f"{name}: missing from B")
            status = 1
            continue
        print(f"{name}:")
        for spec in specs:
            ma, mb = row_a["end_to_end"][spec["name"]], row_b["end_to_end"][spec["name"]]
            v = verdict(spec, ma, mb)
            status |= v == "REGRESSION"
            print(f"  {spec['name']:<20s} {ma['value']:>12.5g} -> {mb['value']:>12.5g} "
                  f"{spec['unit']:<9s} {v}")
        if row_b["failed"]:
            print(f"  failed_frac          {row_b['failed']} of {row_b['attempted']} "
                  "operations failed  REGRESSION")
            status = 1
        if a["seed"] == b["seed"] and row_a["sim_digest"] != row_b["sim_digest"]:
            print(f"  sim_digest differs at seed {a['seed']}: simulated results changed")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
