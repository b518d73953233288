"""Bench (extensions): detection latency + latency-vs-fault-count sweep."""

from repro.experiments import detection_latency, fault_sweep
from repro.experiments.latency import QUICK_CONFIG


def test_detection_latency():
    result = detection_latency.run(
        detection_latency.DetectionLatencyConfig(
            measure_cycles=2000, num_faults=20
        ),
        seed=4,
    )
    print()
    print(result.format())
    injected = result.row("faults injected").measured
    latent = result.row("latent-spare injections (unobservable)").measured
    detected = result.row("observable faults detected").measured
    pending = result.row("still-latent at end of run").measured
    assert injected == latent + detected + pending
    assert detected > 0
    assert result.row("every observed detection after injection").measured is True


def test_fault_sweep():
    result = fault_sweep.run(
        fault_sweep.FaultSweepConfig(
            fault_counts=(0, 8, 16, 32), app="ocean", latency=QUICK_CONFIG
        ),
    )
    print()
    print(result.format())
    rows = result.extras["rows"]
    # the shape: more tolerated faults, more latency — never less
    assert result.row("overhead non-decreasing in fault count").measured is True
    assert rows[-1][1] > rows[0][1]
