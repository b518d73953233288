"""Determinism and regression pinning.

Every stochastic element takes an explicit seed (DESIGN.md item 7), so
identical configurations must produce bit-identical results across runs
— and goldens pin a few end-to-end numbers so accidental behavioural
changes to the pipeline surface as test failures rather than silent
drift in the paper reproduction.
"""

import pytest

from repro.faults.injector import RandomFaultSchedule

from conftest import make_network_config, make_sim, permanent_faults


def run_pair(**kwargs):
    net = make_network_config(4, 4)
    a = make_sim(net, **kwargs).run()
    b = make_sim(net, **kwargs).run()
    return a, b


class TestRunToRunDeterminism:
    def test_identical_latency_and_counts(self):
        a, b = run_pair(injection_rate=0.08, measure=1200, seed=33)
        assert a.stats.avg_network_latency == b.stats.avg_network_latency
        assert a.stats.packets_ejected == b.stats.packets_ejected
        assert a.cycles == b.cycles

    def test_identical_under_faults(self):
        net = make_network_config(4, 4)

        def build():
            inj = RandomFaultSchedule(
                net.router, net.num_nodes, mean_interval=50, num_faults=10,
                rng=5, first_fault_at=0, avoid_failure=True,
            )
            return make_sim(
                net, protected=True, injection_rate=0.08, measure=1200,
                seed=33, fault_schedule=inj,
            ).run()

        a, b = build(), build()
        assert a.stats.avg_network_latency == b.stats.avg_network_latency
        for f in (
            "va_borrowed_grants",
            "sa_bypass_grants",
            "secondary_path_grants",
            "vc_transfers",
        ):
            assert getattr(a.router_stats, f) == getattr(b.router_stats, f)

    def test_different_seeds_differ(self):
        a = make_sim(make_network_config(4, 4), injection_rate=0.08,
                     measure=1200, seed=1).run()
        b = make_sim(make_network_config(4, 4), injection_rate=0.08,
                     measure=1200, seed=2).run()
        assert a.stats.packets_created != b.stats.packets_created


class TestGoldenValues:
    """Pinned end-to-end numbers for fixed seeds.

    If a change legitimately alters pipeline behaviour (e.g. a different
    arbitration order), these goldens must be re-derived and the change
    justified against the paper-reproduction experiments.
    """

    def test_golden_baseline_latency(self):
        res = make_sim(
            make_network_config(4, 4), injection_rate=0.08, measure=1500,
            warmup=200, seed=42,
        ).run()
        assert res.stats.packets_ejected == res.stats.packets_created
        assert res.stats.avg_network_latency == pytest.approx(18.50, abs=0.01)

    def test_golden_analytic_stack(self):
        from repro.reliability import analyze_mttf, analyze_spf

        rep = analyze_mttf()
        assert rep.baseline_fit == pytest.approx(2818.5)
        assert rep.correction_fit == pytest.approx(646.0)
        assert analyze_spf(0.31).spf == pytest.approx(15 / 1.31)

    def test_golden_fault_mechanism_counters(self):
        from repro.faults.sites import FaultSite, FaultUnit

        net = make_network_config(4, 4)
        faults = permanent_faults([
            (0, FaultSite(5, FaultUnit.SA1_ARBITER, 4)),
            (0, FaultSite(5, FaultUnit.XB_MUX, 2)),
        ])
        res = make_sim(
            net, protected=True, injection_rate=0.08, measure=1500,
            warmup=200, seed=42, fault_schedule=faults,
        ).run()
        assert res.drained
        rs = res.router_stats
        # pinned: mechanisms fire deterministically for this seed
        assert rs.sa_bypass_grants > 50
        assert rs.secondary_path_grants > 100
        assert rs.vc_transfers > 0
