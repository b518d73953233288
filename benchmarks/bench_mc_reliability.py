"""Engineering benchmark: the reliability Monte-Carlos' fast paths.

The two sampled reliability campaigns that remain run as bisection /
union-find fast paths; their scalar loops live in ``tests/oracles.py``.
This benchmark times each fast path against its oracle, asserts a
>= 1.5x speedup, and — because the fast paths are pinned bit-identical,
not statistically close — asserts exact equality of the results while
it is at it:

* ``simulated_faults_to_failure`` — warm-router + prefix-bisection
  campaign vs fresh-router probe-every-injection loop,
* ``_fabric_trial_chunk`` — union-find disconnection kernel vs per-kill
  `networkx` strong-connectivity scans.
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.config import NetworkConfig, RouterConfig
from repro.faults.sites import enumerate_sites
from repro.reliability.network_level import _fabric_trial_chunk
from repro.reliability.spf_simulation import (
    _PROBE_NODE,
    simulated_faults_to_failure,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import fabric_trial_chunk_reference, trial_counts_reference  # noqa: E402


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _report(name: str, ref_s: float, fast_s: float) -> float:
    speedup = ref_s / fast_s
    print(
        f"\n{name}: reference {ref_s:.3f}s, fast {fast_s:.3f}s "
        f"-> {speedup:.1f}x"
    )
    return speedup


def test_spf_campaign_speedup():
    trials, rng = 24, 3
    def fast():
        return simulated_faults_to_failure(trials=trials, rng=rng)

    fast()  # warm-up
    fast_res, fast_s = _timed(fast)
    config = RouterConfig()
    net = NetworkConfig(width=3, height=3, router=config)
    sites = list(enumerate_sites(config, router=_PROBE_NODE, include_va2=False))
    ref_counts, ref_s = _timed(
        lambda: trial_counts_reference(
            config, net, sites, trials, np.random.default_rng(rng), max_cycles=60
        )
    )
    assert np.array_equal(fast_res.samples, ref_counts)
    speedup = _report("spf_campaign", ref_s, fast_s)
    assert speedup >= 1.5, f"expected >= 1.5x, got {speedup:.2f}x"


def test_fabric_disconnection_speedup():
    net = NetworkConfig(width=8, height=8)
    seeds = np.random.SeedSequence(7).spawn(80)
    def fast():
        return _fabric_trial_chunk(net, "protected", seeds, 4, None)

    fast()  # warm-up
    fast_rows, fast_s = _timed(fast)
    ref_rows, ref_s = _timed(
        lambda: fabric_trial_chunk_reference(net, "protected", seeds, 4, None)
    )
    assert np.array_equal(fast_rows, ref_rows)
    speedup = _report("fabric_disconnection", ref_s, fast_s)
    assert speedup >= 1.5, f"expected >= 1.5x, got {speedup:.2f}x"
