"""Tests for the BulletProof / Vicis / RoCo comparison models."""

import pytest

from repro.comparison.bulletproof import BulletProofModel, NMRUnit, SparedComponent
from repro.comparison.roco import RoCoModel, RowColumnState
from repro.comparison.spf_table import build_spf_table, proposed_router_wins
from repro.comparison.vicis import HammingSECDED, VicisModel, best_port_swap


class TestNMR:
    def test_majority_vote_correct_output(self):
        unit = NMRUnit(lambda x: x * 2, n=3)
        assert unit.compute(21) == 42

    def test_tolerates_minority_faults(self):
        unit = NMRUnit(lambda x: x + 1, n=3)
        unit.mark_faulty(0)
        assert not unit.failed
        assert unit.compute(1) == 2

    def test_majority_faults_fail(self):
        unit = NMRUnit(lambda x: x, n=3)
        unit.mark_faulty(0)
        unit.mark_faulty(1)
        assert unit.failed
        with pytest.raises(RuntimeError):
            unit.compute(7)

    def test_tolerable_faults(self):
        assert NMRUnit(lambda: 0, n=3).tolerable_faults == 1
        assert NMRUnit(lambda: 0, n=5).tolerable_faults == 2

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            NMRUnit(lambda: 0, n=4)


class TestSparedComponent:
    def test_survives_spares(self):
        c = SparedComponent("alloc", spares=2)
        c.hit()
        c.hit()
        assert not c.failed
        c.hit()
        assert c.failed


class TestBulletProofModel:
    def test_published_spf(self):
        m = BulletProofModel()
        assert m.published_spf == pytest.approx(2.07, abs=0.01)

    def test_fault_bounds(self):
        m = BulletProofModel()
        assert m.min_faults_to_failure() == 2  # a unit and its spare
        assert m.max_faults_to_failure() == 6  # 5 spares + 1

    def test_mc_mean_between_bounds(self):
        m = BulletProofModel()
        mean = m.mean_faults_to_failure()
        assert m.min_faults_to_failure() <= mean <= m.max_faults_to_failure()
        # close to the published fault-injection result
        assert mean == pytest.approx(3.15, abs=0.6)


class TestHammingSECDED:
    def test_roundtrip_clean(self):
        ecc = HammingSECDED(32)
        for v in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
            code = ecc.encode(v)
            data, status = ecc.decode(code)
            assert (data, status) == (v, "ok")

    def test_corrects_any_single_bit(self):
        ecc = HammingSECDED(16)
        v = 0xA5C3
        code = ecc.encode(v)
        for bit in range(ecc.data_bits + ecc.parity_bits + 1):
            data, status = ecc.decode(ecc.corrupt(code, [bit]))
            assert status == "corrected"
            assert data == v

    def test_detects_double_errors(self):
        ecc = HammingSECDED(16)
        code = ecc.encode(0x1234)
        _, status = ecc.decode(ecc.corrupt(code, [3, 9]))
        assert status == "uncorrectable"

    def test_overhead_bits(self):
        ecc = HammingSECDED(32)
        assert ecc.parity_bits == 6
        assert ecc.code_bits == 39

    def test_rejects_oversized_data(self):
        ecc = HammingSECDED(8)
        with pytest.raises(ValueError):
            ecc.encode(256)

    def test_rejects_bad_bit_position(self):
        ecc = HammingSECDED(8)
        with pytest.raises(ValueError):
            ecc.corrupt(ecc.encode(1), [99])


class TestPortSwap:
    def test_full_health_identity_possible(self):
        swap = best_port_swap([0, 1, 2, 3], [0, 1, 2, 3])
        assert swap is not None
        assert sorted(swap.keys()) == [0, 1, 2, 3]
        assert len(set(swap.values())) == 4

    def test_swaps_around_dead_port(self):
        # physical port 2 dead; 4 directions needed from remaining 4 ports
        swap = best_port_swap([0, 1, 3, 4], [0, 1, 2, 3])
        assert swap is not None
        assert 2 not in swap.values()

    def test_insufficient_ports(self):
        assert best_port_swap([0, 1], [0, 1, 2]) is None

    def test_empty_requirements(self):
        assert best_port_swap([0, 1], []) == {}


class TestVicisModel:
    def test_published_spf(self):
        assert VicisModel().published_spf == pytest.approx(6.55, abs=0.01)

    def test_mc_mean_positive(self):
        mean = VicisModel().mean_faults_to_failure()
        assert mean > 2


class TestRoCo:
    def test_degradation_lifecycle(self):
        s = RowColumnState(per_half_tolerance=1)
        s.hit_row()
        assert not s.degraded and not s.failed
        s.hit_row()
        assert s.degraded and not s.failed
        s.hit_col()
        s.hit_col()
        assert s.failed

    def test_published_bound(self):
        m = RoCoModel()
        assert m.published_spf_bound == 5.5
        assert m.spf(0.2) < 5.5

    def test_mc_mean(self):
        mean = RoCoModel().mean_faults_to_failure()
        # row/col each tolerate 2: min 6? no - failure when both exceed:
        # min faults = 2*(tol+1) = 6 only if alternating... bounded sanity:
        assert 4 <= mean <= 12


class TestSPFTable:
    def test_paper_values(self):
        rows = {r.architecture: r for r in build_spf_table()}
        assert rows["BulletProof"].spf == pytest.approx(2.07, abs=0.01)
        assert rows["Vicis"].spf == pytest.approx(6.55, abs=0.01)
        assert rows["RoCo"].spf_is_upper_bound
        assert rows["Proposed Router"].spf == pytest.approx(11.4, abs=0.3)

    def test_proposed_wins(self):
        assert proposed_router_wins(build_spf_table())

    def test_explicit_overhead(self):
        rows = {r.architecture: r for r in build_spf_table(
            proposed_area_overhead=0.31
        )}
        assert rows["Proposed Router"].spf == pytest.approx(11.45, abs=0.02)

    def test_row_formatting(self):
        for row in build_spf_table():
            s = row.format()
            assert row.architecture in s
