"""Tests for the FORC/FIT/SOFR/MTTF reliability stack (paper Section VII)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_within_standard_errors, max_lifetime_samples
from repro.reliability.components import (
    Component,
    arbiter,
    comparator,
    demux,
    dff,
    mux,
)
from repro.reliability.forc import (
    DEFAULT_TDDB,
    PAPER_FIT_PER_FET,
    PAPER_TEMP_K,
    PAPER_VDD,
    calibrated_parameters,
    fit_per_fet,
)
from repro.reliability.mttf import (
    analyze_mttf,
    mttf_from_fit,
    mttf_two_component_exact,
    mttf_two_component_paper,
    protected_reliability_curve,
    reliability_curve,
)
from repro.reliability.stages import (
    RouterGeometry,
    baseline_stages,
    correction_stages,
    total_fit,
)


class TestFORC:
    def test_calibration_reproduces_target(self):
        assert fit_per_fet() == pytest.approx(PAPER_FIT_PER_FET)

    def test_duty_cycle_scales_linearly(self):
        assert fit_per_fet(duty_cycle=0.5) == pytest.approx(
            0.5 * fit_per_fet(duty_cycle=1.0)
        )

    def test_higher_temperature_raises_fit(self):
        """TDDB accelerates with temperature."""
        assert fit_per_fet(temp_k=360.0) > fit_per_fet(temp_k=300.0)

    def test_higher_voltage_raises_fit(self):
        assert fit_per_fet(vdd=1.1) > fit_per_fet(vdd=1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_per_fet(vdd=0)
        with pytest.raises(ValueError):
            fit_per_fet(temp_k=-10)
        with pytest.raises(ValueError):
            fit_per_fet(duty_cycle=1.5)

    def test_custom_calibration(self):
        params = calibrated_parameters(fit_per_fet=0.25)
        assert fit_per_fet(params=params) == pytest.approx(0.25)

    @given(st.floats(0.7, 1.3), st.floats(270.0, 400.0))
    @settings(max_examples=50, deadline=None)
    def test_forc_always_positive_and_finite(self, vdd, temp):
        v = DEFAULT_TDDB.forc(vdd, temp)
        assert v > 0 and math.isfinite(v)


class TestComponents:
    def test_paper_component_fits(self):
        """Table I component column."""
        assert comparator(6).fit() == pytest.approx(11.7)
        assert arbiter(4).fit() == pytest.approx(7.4)
        assert arbiter(20).fit() == pytest.approx(36.7)
        assert arbiter(5).fit() == pytest.approx(9.3)
        assert mux(4, 1).fit() == pytest.approx(4.8)
        assert mux(5, 32).fit() == pytest.approx(204.8)

    def test_dff_fit_half_per_bit(self):
        """Table II: 0.5 FIT per DFF bit (25 T @ 20 % duty)."""
        assert dff(1).fit() == pytest.approx(0.5)
        assert dff(3).fit() == pytest.approx(1.5)

    def test_table2_mux_demux_fits(self):
        assert mux(2, 32).fit() == pytest.approx(25.6)
        assert demux(2, 32).fit() == pytest.approx(64.0)
        assert demux(3, 32).fit() == pytest.approx(96.0)

    def test_fallback_formulas_scale(self):
        assert arbiter(8).transistors == round(18.5 * 8)
        assert comparator(7).transistors == round(19.5 * 7)
        assert demux(2, 16).transistors == 20 * 16

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            arbiter(0)
        with pytest.raises(ValueError):
            comparator(0)
        with pytest.raises(ValueError):
            mux(1, 4)
        with pytest.raises(ValueError):
            demux(1)
        with pytest.raises(ValueError):
            dff(0)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            Component("x", 0)
        with pytest.raises(ValueError):
            Component("x", 10, duty_cycle=0.0)


class TestStageInventories:
    def test_table1_values(self):
        stages = baseline_stages()
        assert stages["RC"].fit() == pytest.approx(117.0)
        assert stages["VA"].fit() == pytest.approx(1474.0)
        assert stages["SA"].fit() == pytest.approx(203.5)
        assert stages["XB"].fit() == pytest.approx(1024.0)
        # paper prints 2822 (its VA row is internally inconsistent by 4)
        assert total_fit(stages) == pytest.approx(2818.5)

    def test_table2_values_exact(self):
        stages = correction_stages()
        assert stages["RC"].fit() == pytest.approx(117.0)
        assert stages["VA"].fit() == pytest.approx(60.0)
        assert stages["SA"].fit() == pytest.approx(53.0)
        assert stages["XB"].fit() == pytest.approx(416.0)
        assert total_fit(stages) == pytest.approx(646.0)

    def test_component_counts_match_paper(self):
        """Table I: 10 comparators, 100+20 arbiters, 25+5+5 SA parts."""
        stages = baseline_stages()
        rc = dict((c.name, n) for c, n in stages["RC"].entries)
        assert rc["6-bit comparator"] == 10
        va = dict((c.name, n) for c, n in stages["VA"].entries)
        assert va["4:1 arbiter"] == 100
        assert va["20:1 arbiter"] == 20
        sa = dict((c.name, n) for c, n in stages["SA"].entries)
        assert sa["1-bit 4:1 mux"] == 25
        assert sa["4:1 arbiter"] == 5
        assert sa["5:1 arbiter"] == 5
        xb = dict((c.name, n) for c, n in stages["XB"].entries)
        assert xb["32-bit 5:1 mux"] == 5

    def test_correction_counts_match_paper(self):
        """Table II: 20 of each VA DFF; 5 muxes + demux set in XB."""
        stages = correction_stages()
        va = dict((c.name, n) for c, n in stages["VA"].entries)
        assert va["3-bit DFF"] == 20  # R2
        assert va["1-bit DFF"] == 20  # VF
        assert va["2-bit DFF"] == 20  # ID
        xb = dict((c.name, n) for c, n in stages["XB"].entries)
        assert xb["32-bit 2:1 mux"] == 5
        assert xb["32-bit 1:2 demux"] == 3
        assert xb["32-bit 1:3 demux"] == 1

    def test_geometry_scaling(self):
        small = RouterGeometry(num_vcs=2)
        assert total_fit(baseline_stages(small)) < total_fit(baseline_stages())

    def test_geometry_from_mesh(self):
        g = RouterGeometry.from_mesh(64)
        assert g.dest_bits == 6
        g = RouterGeometry.from_mesh(256)
        assert g.dest_bits == 8

    def test_fit_scales_with_temperature(self):
        stages = baseline_stages()
        assert total_fit(stages, temp_k=350.0) > total_fit(stages)


class TestMTTF:
    def test_paper_equation4(self):
        """MTTF_baseline ~ 354,358 h (paper uses FIT 2822)."""
        assert mttf_from_fit(2822.0) == pytest.approx(354_358, rel=1e-3)

    def test_paper_equation6(self):
        """Paper Eq. 5/6: 2,190,696 h with the printed '+' convention."""
        assert mttf_two_component_paper(2822.0, 646.0) == pytest.approx(
            2_190_696, rel=1e-3
        )

    def test_paper_equation7_ratio(self):
        ratio = mttf_two_component_paper(2822.0, 646.0) / mttf_from_fit(2822.0)
        assert ratio == pytest.approx(6.18, abs=0.05)

    def test_exact_formula_smaller_than_paper(self):
        assert mttf_two_component_exact(2822.0, 646.0) < mttf_two_component_paper(
            2822.0, 646.0
        )

    def test_monte_carlo_validates_exact_formula(self):
        exact = mttf_two_component_exact(2822.0, 646.0)
        samples = max_lifetime_samples(2822.0, 646.0, samples=200_000, rng=42)
        assert_within_standard_errors(exact, samples)

    def test_analyze_mttf_end_to_end(self):
        rep = analyze_mttf()
        assert rep.mttf_baseline_hours == pytest.approx(354_358, rel=0.01)
        assert rep.mttf_protected_hours == pytest.approx(2_190_696, rel=0.01)
        assert rep.improvement == pytest.approx(6.18, abs=0.1)

    def test_reliability_curves(self):
        hours = np.array([0.0, 1e5, 1e6])
        r = reliability_curve(2822.0, hours)
        assert r[0] == pytest.approx(1.0)
        assert np.all(np.diff(r) < 0)
        rp = protected_reliability_curve(2822.0, 646.0, hours)
        assert np.all(rp >= r - 1e-12)  # redundancy never hurts

    def test_rejects_nonpositive_fit(self):
        with pytest.raises(ValueError):
            mttf_from_fit(0)
        with pytest.raises(ValueError):
            mttf_two_component_paper(-1, 5)

    @given(st.floats(10.0, 1e5), st.floats(10.0, 1e5))
    @settings(max_examples=50, deadline=None)
    def test_parallel_always_beats_single(self, l1, l2):
        single = mttf_from_fit(l1)
        assert mttf_two_component_exact(l1, l2) > single
        assert mttf_two_component_paper(l1, l2) > single
