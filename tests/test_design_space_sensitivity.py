"""Tests for the design-space and MTTF-sensitivity experiments."""

import pytest

from repro.experiments import design_space, mttf_sensitivity


class TestDesignSpace:
    @pytest.fixture(scope="class")
    def result(self):
        return design_space.run(
            design_space.DesignSpaceConfig(
                vc_counts=(2, 4), buffer_depths=(2, 4), measure=800
            )
        )

    def test_shape_claims_hold(self, result):
        assert result.row("deeper buffers never hurt latency").measured is True
        assert result.row("more VCs raise SPF").measured is True
        assert result.row(
            "bigger routers dilute the correction-area overhead"
        ).measured is True

    def test_every_point_measured(self, result):
        points = result.extras["points"]
        assert set(points) == {(2, 2), (2, 4), (4, 2), (4, 4)}
        for lat, spf, ovh in points.values():
            assert lat > 0 and spf > 0 and 0 < ovh < 1

    def test_four_vc_point_matches_paper_anchor(self, result):
        points = result.extras["points"]
        _, spf, _ = points[(4, 2)]
        assert spf == pytest.approx(11.4, abs=0.5)


class TestMTTFSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return mttf_sensitivity.run()

    def test_tddb_acceleration(self, result):
        assert result.row("hotter silicon fails sooner").measured is True
        assert result.row("higher voltage fails sooner").measured is True

    def test_ratio_invariance(self, result):
        assert result.row(
            "improvement ratio invariant across operating points"
        ).measured is True
        ratios = result.extras["ratios"]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_ratio_matches_paper(self, result):
        assert result.row("improvement ratio").measured == pytest.approx(
            6.18, abs=0.05
        )

    def test_custom_operating_points(self):
        res = mttf_sensitivity.run(
            mttf_sensitivity.MTTFSensitivityConfig(
                temps_k=(310.0, 350.0), vdds=(1.0,)
            )
        )
        assert res.row("MTTF baseline @ 310 K").measured > res.row(
            "MTTF baseline @ 350 K"
        ).measured
