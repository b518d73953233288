"""Bench: Section VIII-E sensitivity — SPF vs VC count (and the ablation
on VC provisioning as a reliability knob)."""

import pytest

from repro.experiments import spf_sweep


def test_spf_sweep_regeneration(benchmark):
    result = benchmark(spf_sweep.run)
    print()
    print(result.format())
    sweep = result.extras["spf"]
    # paper: SPF 7 at 2 VCs, 11.4 at 4 VCs, larger beyond
    assert sweep[2].spf == pytest.approx(7.0, abs=0.6)
    assert sweep[4].spf == pytest.approx(11.4, abs=0.5)
    assert result.row("SPF monotonically increases with VCs").measured is True
    assert result.row("SPF beyond 4 VCs exceeds the 4-VC value").measured is True
