"""Tests for the per-event energy model and the energy experiment."""

import math

import pytest

from repro.experiments import energy as energy_exp
from repro.experiments.latency import QUICK_CONFIG
from repro.router.router import RouterStats
from repro.synthesis.energy import EnergyModel, EnergyReport, energy_of_run

from conftest import make_network_config, make_sim


class TestEnergyModel:
    def test_breakdown_sums_to_total(self):
        stats = RouterStats(
            flits_traversed=100,
            buffer_writes=100,
            va_grants=30,
            sa_grants=100,
            secondary_path_grants=5,
            vc_transfers=2,
        )
        bd = EnergyModel().router_energy_pj(stats)
        parts = sum(v for k, v in bd.items() if k != "total")
        assert bd["total"] == pytest.approx(parts)

    def test_idle_router_zero_energy(self):
        bd = EnergyModel().router_energy_pj(RouterStats())
        assert bd["total"] == 0.0

    def test_secondary_and_transfer_priced(self):
        base = EnergyModel().router_energy_pj(
            RouterStats(flits_traversed=10, buffer_writes=10, sa_grants=10)
        )
        faulty = EnergyModel().router_energy_pj(
            RouterStats(
                flits_traversed=10,
                buffer_writes=10,
                sa_grants=10,
                secondary_path_grants=10,
                vc_transfers=3,
            )
        )
        assert faulty["total"] > base["total"]

    def test_report_per_flit(self):
        rep = EnergyReport(
            breakdown_pj={"total": 100.0}, flits_delivered=50,
            packets_delivered=10,
        )
        assert rep.pj_per_flit == 2.0
        assert rep.pj_per_packet == 10.0

    def test_report_empty_run_nan(self):
        rep = EnergyReport(
            breakdown_pj={"total": 0.0}, flits_delivered=0, packets_delivered=0
        )
        assert math.isnan(rep.pj_per_flit)
        assert math.isnan(rep.pj_per_packet)


class TestEnergyOfRun:
    def test_prices_real_simulation(self):
        net = make_network_config(3, 3)
        sim = make_sim(net, injection_rate=0.06, measure=600)
        result = sim.run()
        rep = energy_of_run(result)
        assert rep.total_pj > 0
        assert rep.pj_per_flit > 0
        # per-flit energy is bounded: every flit costs at least one
        # write+read+crossbar+link on its path
        m = EnergyModel()
        floor = (
            m.buffer_write_pj + m.buffer_read_pj + m.xb_traversal_pj
            + m.link_traversal_pj
        )
        assert rep.pj_per_flit >= floor

    def test_energy_scales_with_hops(self):
        """Longer paths cost proportionally more energy per flit."""
        from repro.router.flit import Packet
        from repro.traffic.generator import TraceTraffic

        net = make_network_config(4, 4)
        short = make_sim(
            net, traffic=TraceTraffic(
                [Packet(src=0, dest=1, size_flits=1, creation_cycle=0)]
            ), warmup=0, measure=30,
        ).run()
        faraway = make_sim(
            net, traffic=TraceTraffic(
                [Packet(src=0, dest=15, size_flits=1, creation_cycle=0)]
            ), warmup=0, measure=60,
        ).run()
        assert (
            energy_of_run(faraway).pj_per_flit
            > 2.5 * energy_of_run(short).pj_per_flit
        )


class TestEnergyExperiment:
    def test_quick_experiment_shape(self):
        res = energy_exp.run(
            energy_exp.EnergyConfig(app="lu", latency=QUICK_CONFIG)
        )
        assert res.row("fault-free energy/flit").measured > 0
        assert res.row("faulty energy/flit").measured >= res.row(
            "fault-free energy/flit"
        ).measured * 0.99
        assert res.row("energy overhead below latency overhead").measured is True
