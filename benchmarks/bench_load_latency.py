"""Bench (extension): load-latency curves, fault-free vs faulty.

Pins the contention-driven shape behind Figures 7/8: tolerated faults
cost little at low load and increasingly more toward saturation (the
faulty curve's knee shifts left).
"""

from repro.experiments import load_latency


def test_load_latency_curves():
    result = load_latency.run(
        load_latency.LoadLatencyConfig(
            rates=(0.03, 0.09, 0.15), measure=2500, num_faults=24
        ),
    )
    print()
    print(result.format())
    points = result.extras["points"]
    # fault-free curve is monotone in load
    ff = [p.fault_free_latency for p in points]
    assert ff == sorted(ff)
    # faulty curve never dips below fault-free
    for p in points:
        assert p.faulty_latency >= p.fault_free_latency * 0.99
    # the headline shape: overhead grows with load
    assert result.row("fault overhead grows with load").measured is True
