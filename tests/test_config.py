"""Tests for configuration objects and port geometry."""

import dataclasses

import pytest

from repro.config import (
    NetworkConfig,
    OPPOSITE_PORT,
    PORT_DELTAS,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
    RouterConfig,
    SimulationConfig,
    port_name,
    replace,
)


class TestRouterConfig:
    def test_defaults_match_paper(self):
        cfg = RouterConfig()
        assert cfg.num_ports == 5
        assert cfg.num_vcs == 4
        assert cfg.buffer_depth == 4

    def test_rejects_too_few_ports(self):
        with pytest.raises(ValueError):
            RouterConfig(num_ports=1)

    def test_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            RouterConfig(num_vcs=0)

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            RouterConfig(buffer_depth=0)

    def test_rejects_indivisible_vnets(self):
        with pytest.raises(ValueError):
            RouterConfig(num_vcs=4, num_vnets=3)

    def test_rejects_zero_rotation(self):
        with pytest.raises(ValueError):
            RouterConfig(bypass_rotation_period=0)

    def test_vnet_partition(self):
        cfg = RouterConfig(num_vcs=4, num_vnets=2)
        assert cfg.vcs_per_vnet == 2
        assert list(cfg.vcs_of_vnet(0)) == [0, 1]
        assert list(cfg.vcs_of_vnet(1)) == [2, 3]
        assert cfg.vnet_of_vc(0) == 0
        assert cfg.vnet_of_vc(3) == 1

    def test_vnet_partition_is_exhaustive(self):
        cfg = RouterConfig(num_vcs=8, num_vnets=4)
        seen = []
        for vn in range(cfg.num_vnets):
            seen.extend(cfg.vcs_of_vnet(vn))
        assert seen == list(range(8))

    def test_frozen(self):
        cfg = RouterConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_vcs = 2


class TestNetworkConfig:
    def test_defaults_match_paper(self):
        net = NetworkConfig()
        assert (net.width, net.height) == (8, 8)
        assert net.num_nodes == 64
        assert "topology" not in {f.name for f in dataclasses.fields(net)}

    def test_node_coords_roundtrip(self):
        net = NetworkConfig(width=5, height=3)
        for node in range(net.num_nodes):
            x, y = net.coords(node)
            assert net.node_id(x, y) == node

    def test_row_major_numbering(self):
        net = NetworkConfig(width=4, height=4)
        assert net.node_id(0, 0) == 0
        assert net.node_id(3, 0) == 3
        assert net.node_id(0, 1) == 4

    def test_rejects_a_router_without_the_ports_the_mesh_links(self):
        """The mesh wires every port a neighbour sits behind: a 4-port
        router has no west port, so only a 1-wide column can use it."""
        for width, height in ((4, 4), (4, 1)):
            with pytest.raises(ValueError, match="west port"):
                NetworkConfig(width=width, height=height, router=RouterConfig(num_ports=4))
        with pytest.raises(ValueError, match="south port"):
            NetworkConfig(width=1, height=4, router=RouterConfig(num_ports=3))
        column = NetworkConfig(width=1, height=4, router=RouterConfig(num_ports=4))
        assert column.num_nodes == 4
        assert NetworkConfig(width=1, height=1, router=RouterConfig(num_ports=2)).num_nodes == 1

    def test_rejects_out_of_range_coords(self):
        net = NetworkConfig(width=2, height=2)
        with pytest.raises(ValueError):
            net.node_id(2, 0)
        with pytest.raises(ValueError):
            net.coords(4)

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            NetworkConfig(link_latency=0)


class TestSimulationConfig:
    def test_total_cycles(self):
        sc = SimulationConfig(warmup_cycles=10, measure_cycles=20, drain_cycles=5)
        assert sc.total_cycles == 35

    def test_rejects_zero_measure(self):
        with pytest.raises(ValueError):
            SimulationConfig(measure_cycles=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            SimulationConfig(warmup_cycles=-1)


class TestPortGeometry:
    def test_opposite_ports_are_involutions(self):
        for p, q in OPPOSITE_PORT.items():
            assert OPPOSITE_PORT[q] == p

    def test_deltas_cancel_for_opposites(self):
        for p, (dx, dy) in PORT_DELTAS.items():
            ox, oy = PORT_DELTAS[OPPOSITE_PORT[p]]
            assert (dx + ox, dy + oy) == (0, 0)

    def test_port_names(self):
        assert port_name(PORT_LOCAL) == "local"
        assert port_name(PORT_NORTH) == "north"
        assert port_name(PORT_EAST) == "east"
        assert port_name(PORT_SOUTH) == "south"
        assert port_name(PORT_WEST) == "west"
        assert port_name(7) == "port7"

    def test_replace_helper(self):
        cfg = RouterConfig()
        cfg2 = replace(cfg, num_vcs=8)
        assert cfg2.num_vcs == 8
        assert cfg.num_vcs == 4
