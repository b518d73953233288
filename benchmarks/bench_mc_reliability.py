"""Engineering benchmark: vectorized reliability Monte-Carlo kernels.

PR "amortize per-run costs" rewrote the trial loops of the reliability
Monte-Carlos as batched NumPy / bisection fast paths, keeping the
original scalar loops as references.  This benchmark times each fast
path against its retained oracle, asserts the >= 1.5x speedup the
rework promises, and — because the fast paths are pinned bit-identical,
not statistically close — asserts exact equality of the results while
it is at it:

* ``simulated_faults_to_failure`` — warm-router + prefix-bisection
  campaign vs fresh-router probe-every-injection loop,
* ``_fabric_trial_chunk`` — union-find disconnection kernel vs per-kill
  `networkx` strong-connectivity scans,
* ``monte_carlo_mttf`` — batched exponential draws vs one draw per call.
"""

import time

import numpy as np

from repro.config import NetworkConfig, RouterConfig
from repro.faults.sites import enumerate_sites
from repro.reliability.mttf import (
    monte_carlo_mttf,
    monte_carlo_mttf_reference,
)
from repro.reliability.network_level import (
    _fabric_trial_chunk,
    _fabric_trial_chunk_reference,
)
from repro.reliability.spf_simulation import (
    _PROBE_NODE,
    _trial_counts_reference,
    simulated_faults_to_failure,
)


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


def test_spf_campaign_speedup(benchmark):
    trials, rng = 24, 3
    box = {}

    def fast():
        out, s = _timed(
            lambda: simulated_faults_to_failure(trials=trials, rng=rng)
        )
        box["s"] = s
        return out

    fast_res = benchmark.pedantic(
        fast, rounds=1, iterations=1, warmup_rounds=1
    )
    config = RouterConfig()
    net = NetworkConfig(width=3, height=3, router=config)
    sites = list(enumerate_sites(config, router=_PROBE_NODE, include_va2=False))
    ref_counts, ref_s = _timed(
        lambda: _trial_counts_reference(
            config, net, sites, trials, np.random.default_rng(rng), max_cycles=60
        )
    )
    assert np.array_equal(fast_res.samples, ref_counts)
    speedup = _report("spf_campaign", ref_s, box["s"])
    assert speedup >= 1.5, f"expected >= 1.5x, got {speedup:.2f}x"


def test_fabric_disconnection_speedup(benchmark):
    net = NetworkConfig(width=8, height=8)
    seeds = np.random.SeedSequence(7).spawn(80)
    box = {}

    def fast():
        out, s = _timed(
            lambda: _fabric_trial_chunk(net, "protected", seeds, 4, None)
        )
        box["s"] = s
        return out

    fast_rows = benchmark.pedantic(
        fast, rounds=1, iterations=1, warmup_rounds=1
    )
    ref_rows, ref_s = _timed(
        lambda: _fabric_trial_chunk_reference(net, "protected", seeds, 4, None)
    )
    assert np.array_equal(fast_rows, ref_rows)
    speedup = _report("fabric_disconnection", ref_s, box["s"])
    assert speedup >= 1.5, f"expected >= 1.5x, got {speedup:.2f}x"


def test_mttf_sampling_speedup(benchmark):
    samples, rng = 100_000, 42
    box = {}

    def fast():
        out, s = _timed(
            lambda: monte_carlo_mttf(2822.0, 646.0, samples=samples, rng=rng)
        )
        box["s"] = s
        return out

    fast_mttf = benchmark.pedantic(
        fast, rounds=1, iterations=1, warmup_rounds=1
    )
    ref_mttf, ref_s = _timed(
        lambda: monte_carlo_mttf_reference(
            2822.0, 646.0, samples=samples, rng=rng
        )
    )
    assert fast_mttf == ref_mttf  # identical stream, bit-equal mean
    speedup = _report("mttf_sampling", ref_s, box["s"])
    assert speedup >= 1.5, f"expected >= 1.5x, got {speedup:.2f}x"
