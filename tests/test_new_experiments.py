"""Tests for the detection-latency and fault-sweep experiments."""

import pytest

from repro.experiments import detection_latency, fault_sweep, run_experiment
from repro.experiments.detection_latency import DetectionLatencyConfig
from repro.experiments.fault_sweep import FaultSweepConfig
from repro.experiments.latency import QUICK_CONFIG


class TestDetectionLatency:
    def test_accounting_closes(self):
        res = detection_latency.run(
            DetectionLatencyConfig(measure_cycles=1200, num_faults=16), seed=2
        )
        injected = res.row("faults injected").measured
        latent_spares = res.row("latent-spare injections (unobservable)").measured
        detected = res.row("observable faults detected").measured
        still_latent = res.row("still-latent at end of run").measured
        assert injected == latent_spares + detected + still_latent

    def test_detection_latencies_positive(self):
        res = detection_latency.run(
            DetectionLatencyConfig(measure_cycles=1200, num_faults=16), seed=2
        )
        assert res.row("every observed detection after injection").measured is True
        if res.extras["events"]:
            assert res.row("mean detection latency").measured > 0

    def test_higher_load_detects_faster(self):
        slow = detection_latency.run(
            DetectionLatencyConfig(
                measure_cycles=2500, num_faults=16, injection_rate=0.02
            ),
            seed=3,
        )
        fast = detection_latency.run(
            DetectionLatencyConfig(
                measure_cycles=2500, num_faults=16, injection_rate=0.15
            ),
            seed=3,
        )
        # more traffic exercises faulty components sooner (or detects at
        # least as many)
        assert (
            fast.row("observable faults detected").measured
            >= slow.row("observable faults detected").measured
        )

    def test_a_fault_exercised_as_it_lands_is_detected_that_cycle(self):
        """The watch baseline is read as the fault lands, before the
        cycle's pipeline runs: a mechanism that fires in the landing cycle
        dates the detection there (latency 0, not the next time it fires).
        The counts are the same as when it was dated late."""
        res = run_experiment("detection_latency", quick=True, seed=3)
        (event,) = [
            e for e in res.extras["events"]
            if e["site"].startswith("4:sa1_arbiter:2:")
        ]
        assert event["detected_at"] == event["landed_at"]
        counts = [
            res.row(label).measured
            for label in (
                "faults injected",
                "latent-spare injections (unobservable)",
                "observable faults detected",
                "still-latent at end of run",
            )
        ]
        assert counts == [24, 6, 16, 2]


class TestFaultSweep:
    def test_shape(self):
        res = fault_sweep.run(
            FaultSweepConfig(
                fault_counts=(0, 8, 24), app="lu", latency=QUICK_CONFIG
            )
        )
        assert res.row("zero faults costs nothing").measured is True
        assert res.row("overhead non-decreasing in fault count").measured is True
        assert "chart" in res.extras

    def test_zero_prepended(self):
        res = fault_sweep.run(
            FaultSweepConfig(fault_counts=(8,), app="lu", latency=QUICK_CONFIG)
        )
        rows = res.extras["rows"]
        assert rows[0][0] == 0 and rows[1][0] == 8

    def test_latencies_positive(self):
        res = fault_sweep.run(
            FaultSweepConfig(
                fault_counts=(0, 16), app="fft", latency=QUICK_CONFIG
            )
        )
        for n, lat in res.extras["rows"]:
            assert lat > 0
