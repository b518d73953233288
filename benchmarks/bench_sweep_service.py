"""Engineering benchmark: the sweep-as-a-service results server.

Boots ``python -m repro.service`` as a real subprocess (OS-picked port,
fresh cache directory), then drives it with the stdlib async client the
way CI and humans do:

* **cold vs warm** — the first request computes the sweep; the second
  identical request must be served from the content-addressed cache at
  least 10x faster (in practice it is hundreds of times faster: one
  JSON file read vs a network simulation);
* **in-flight dedup** — N concurrent identical cold requests must
  trigger exactly one computation; the other N-1 join it and all N
  answers are bit-identical;
* **streaming** — a streamed request delivers every sweep point as an
  NDJSON event before the final result.

What a cold and a warm request take is measured by the ledger's
``service_mix`` workload (``cold_req_p50_ms`` / ``warm_req_p50_ms``).
"""

import asyncio
import json
import os
import re
import subprocess
import sys
import time

import pytest

from repro.service import wait_ready

#: two sub-second sweep points — big enough to dwarf cache-read time,
#: small enough for CI
CONFIG = {
    "fault_counts": [0, 2],
    "latency": {
        "width": 4,
        "height": 4,
        "warmup_cycles": 50,
        "measure_cycles": 300,
        "drain_cycles": 500,
        "num_faults": 8,
    },
}

N_CLIENTS = 5


@pytest.fixture
def service(tmp_path):
    """A live ``python -m repro.service`` subprocess; yields its port."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--jobs", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", ready)
        assert match, f"no ready line from the server: {ready!r}"
        port = int(match.group(1))
        asyncio.run(wait_ready("127.0.0.1", port, timeout=30))
        yield port
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def test_warm_cache_hit_speedup(service):
    """An identical repeat request must be served >=10x faster."""
    from repro.service import ServiceClient

    client = ServiceClient("127.0.0.1", service)

    async def timed_sweep(**kwargs):
        t0 = time.perf_counter()
        reply = await client.sweep("fault_sweep", CONFIG, **kwargs)
        return reply, time.perf_counter() - t0

    cold, cold_s = asyncio.run(timed_sweep())
    assert cold["cached"] is False

    warm, warm_s = asyncio.run(timed_sweep())

    assert warm["cached"] is True
    assert warm["result"] == cold["result"]
    assert warm["sha256"] == cold["sha256"]

    speedup = cold_s / warm_s
    print(
        f"\nsweep service: cold {cold_s:.3f}s, warm {warm_s * 1e3:.1f}ms "
        f"-> {speedup:.0f}x"
    )
    assert speedup >= 10.0, (
        f"warm cache hit only {speedup:.1f}x faster than cold compute"
    )


def test_concurrent_identical_requests_compute_once(service):
    """N concurrent cold clients -> exactly 1 computation, N answers."""
    from repro.service import ServiceClient

    client = ServiceClient("127.0.0.1", service)
    config = json.loads(json.dumps(CONFIG))
    config["fault_counts"] = [0, 2, 4]

    async def stampede():
        return await asyncio.gather(
            *[client.sweep("fault_sweep", config) for _ in range(N_CLIENTS)]
        )

    t0 = time.perf_counter()
    replies = asyncio.run(stampede())
    elapsed = time.perf_counter() - t0

    assert len({r["sha256"] for r in replies}) == 1, "answers diverged"
    stats = asyncio.run(client.stats())
    counters = stats["counters"]
    computations = counters["service.computations"]
    joined = counters["service.dedup_joined"]
    print(
        f"\n{N_CLIENTS} concurrent identical requests in {elapsed:.3f}s: "
        f"{computations} computation(s), {joined} joined in flight"
    )
    assert computations == 1, (
        f"dedup failed: {computations} computations for "
        f"{N_CLIENTS} identical requests"
    )
    assert joined == N_CLIENTS - 1


def test_streaming_delivers_points(service):
    """A streamed request reports every sweep point before the result.

    One ``point`` event per completed *task*: a batched lane chunk covers
    several points and says how many in its ``points`` field, so the
    events are summed, not counted.
    """
    from repro.service import ServiceClient

    client = ServiceClient("127.0.0.1", service)
    config = json.loads(json.dumps(CONFIG))
    config["fault_counts"] = [0, 2, 4, 6]

    points = []

    async def streamed():
        return await client.sweep(
            "fault_sweep", config, stream=True, on_point=points.append
        )

    reply = asyncio.run(streamed())
    # one event per point, a lane chunk's included
    assert reply["points_streamed"] == len(points) == 4
    assert reply["result"]["rows"]
