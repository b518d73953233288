"""Bench (extension): router provisioning design-space exploration."""

import pytest

from repro.experiments import design_space, mttf_sensitivity


def test_design_space():
    result = design_space.run(
        design_space.DesignSpaceConfig(
            vc_counts=(2, 4, 8), buffer_depths=(2, 4), measure=1200
        ),
    )
    print()
    print(result.format())
    points = result.extras["points"]
    # reliability and cost both favour more VCs...
    assert points[(8, 2)][1] > points[(2, 2)][1]  # SPF
    assert points[(8, 2)][2] < points[(2, 2)][2]  # area overhead fraction
    # ...making the paper's 4-VC point a balanced middle
    assert result.row("more VCs raise SPF").measured is True


def test_mttf_sensitivity():
    result = mttf_sensitivity.run()
    print()
    print(result.format())
    assert result.row(
        "improvement ratio invariant across operating points"
    ).measured is True
    assert result.row("improvement ratio").measured == pytest.approx(
        6.18, abs=0.05
    )
