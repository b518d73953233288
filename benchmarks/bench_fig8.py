"""Bench: regenerate paper Figure 8 — PARSEC latency under faults.

Quick (4x4) configuration by default; ``REPRO_BENCH_FULL=1`` runs the
paper-scale 8x8 configuration and tightens the assertions to the +13 %
headline band.
"""

from conftest import full_scale, run_once
from repro.experiments import fig8
from repro.experiments.latency import overall_overhead


def test_fig8_regeneration(benchmark, latency_config):
    result = run_once(benchmark, fig8.run, latency_config)
    print()
    print(result.format())
    apps = result.extras["results"]
    assert len(apps) == 9  # the full PARSEC surrogate set
    for a in apps:
        assert a.faulty >= a.fault_free * 0.99
        assert a.faulty_result.drained or a.faulty_result.stats.measured_packets > 0
    overall = overall_overhead(apps)
    if full_scale():
        # the paper's headline: ~13 % overall
        assert 0.05 <= overall <= 0.25
    else:
        assert 0.0 <= overall <= 0.35
