"""The lane step and a warm service hit on a count budget.

Wall time cannot decide a 5 % question on a shared 2-vCPU host; a count
of what the code dispatches can (``call_count``).  Three counts are held
under a committed ceiling table:

* per lane step of fig7 ``--quick``'s 16-lane chunk and of one
  ``fault_campaign --quick`` chunk (8 lanes: baseline and protected
  timelines with their references), over steps ``START`` ..
  ``START + STEPS - 1``: calls made from ``network/batched.py`` frames and
  the array-operation opcodes executed in them;
* per warm ``POST /v1/sweeps`` hit, driven as
  ``benchmarks/measure_warm_hit.py`` drives one: calls made from
  ``repro`` frames.

A ceiling, not a pin: a change that lowers a count lowers its ceiling
with it, and one that raises a count says why.  ``python -m pytest -s
tests/test_call_budget.py`` prints the counts.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest
from call_count import Counts, count_steps

from repro.experiments import parallel
from repro.experiments.runner import EXPERIMENTS
from repro.network import batched

#: the counted window of lane steps, past every lane's warm-up
START, STEPS = 500, 200

#: measured on CPython 3.11.7 with NumPy 2.4.6.  CPython 3.12 inlines
#: comprehensions, so it makes fewer calls: a 3.11 ceiling holds there
MEASURED_ON = ("3.11.7", "2.4.6")
#: (count, chunk) -> the most it may read over the ``STEPS`` steps from
#: ``START``; a warm hit's over one hit
CEILINGS = {
    ("calls", "fig7"): 14_835,
    ("ops", "fig7"): 83_022,
    ("calls", "campaign"): 15_979,
    ("ops", "campaign"): 70_377,
    ("calls", "warm hit"): 28,
}

#: chunk -> the experiment whose ``--quick`` points it runs
CHUNKS = {"fig7": "fig7", "campaign": "fault_campaign"}

#: what a failed ceiling says besides the count
WHERE = "ceiling measured on CPython {}, NumPy {}".format(*MEASURED_ON)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_a_lane_step_stays_within_its_counts(chunk):
    entry = EXPERIMENTS[CHUNKS[chunk]]
    points = tuple(entry.module.points(entry.cli_config(True)))
    counts = count_steps(
        batched.BatchedLaneEngine, [batched.__file__],
        lambda: parallel._lane_batched_chunk(points, parallel.DEFAULT_LANE_WIDTH),
        START, STEPS,
    )
    print(f"\n{chunk}: {counts.calls} calls, {counts.ops} array ops over {STEPS} steps")
    assert counts.calls <= CEILINGS["calls", chunk], WHERE
    assert counts.ops <= CEILINGS["ops", chunk], WHERE


def test_a_warm_hit_stays_within_its_calls(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    try:
        import measure_warm_hit
    finally:
        sys.path.pop(0)
    from repro.service.server import SweepService

    body, entry = measure_warm_hit.hit_entry()

    async def hit():
        service = SweepService(tmp_path, jobs=1)
        try:
            service.cache.put(entry)
            sink = measure_warm_hit._Sink()
            for _ in range(2):  # the first hit memoises what the next reuse
                sink.data.clear()
                await service._route(sink, "POST", "/v1/sweeps", body)
            reply = bytes(sink.data)
            sink.data.clear()
            counts = Counts(
                m.__file__ for name, m in list(sys.modules.items())
                if name.split(".")[0] == "repro" and getattr(m, "__file__", None)
            )
            counts.start()
            try:
                await service._route(sink, "POST", "/v1/sweeps", body)
            finally:
                counts.stop()
            assert bytes(sink.data) == reply
            return counts
        finally:
            service.runtime.close()

    counts = asyncio.run(hit())
    print(f"\nwarm hit: {counts.calls} calls")
    assert 0 < counts.calls <= CEILINGS["calls", "warm hit"], WHERE
