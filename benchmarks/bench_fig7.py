"""Bench: regenerate paper Figure 7 — SPLASH-2 latency under faults.

Quick (4x4) configuration by default; set ``REPRO_BENCH_FULL=1`` for the
paper-scale 8x8 run (the shape assertions then tighten to the paper's
+10 % headline band).
"""

from conftest import full_scale, run_once
from repro.experiments import fig7
from repro.experiments.latency import overall_overhead


def test_fig7_regeneration(benchmark, latency_config):
    result = run_once(benchmark, fig7.run, latency_config)
    print()
    print(result.format())
    apps = result.extras["results"]
    assert len(apps) == 8  # the full SPLASH-2 surrogate set
    # shape: faults never make the network faster, every app delivered
    for a in apps:
        assert a.faulty >= a.fault_free * 0.99
        assert a.fault_free_result.stats.measured_packets > 0
        assert a.faulty_result.stats.measured_packets > 0
    overall = overall_overhead(apps)
    if full_scale():
        # the paper's headline: ~10 % overall; accept a generous band
        assert 0.04 <= overall <= 0.20
    else:
        assert 0.0 <= overall <= 0.30
    # memory-bound apps (ocean/radix) hurt at least as much as the
    # lightest app (water) — the contention-driven mechanism
    by_name = {a.app: a for a in apps}
    heavy = (by_name["ocean"].overhead + by_name["radix"].overhead) / 2
    assert heavy >= by_name["water-nsq"].overhead - 0.02
