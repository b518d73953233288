"""Tests for the XY/YX routing functions and the routing factory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    NetworkConfig,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
)
from repro.router.routing import (
    WestFirstRouting,
    XYRouting,
    YXRouting,
    make_routing,
)

from conftest import hop_count
from oracles import neighbour


@pytest.fixture
def net():
    return NetworkConfig(width=8, height=8)


class TestXY:
    def test_local_delivery(self, net):
        r = XYRouting(net)
        assert r.output_port(12, 12) == PORT_LOCAL

    def test_x_before_y(self, net):
        r = XYRouting(net)
        # node (1,1)=9 to (3,3)=27: X not resolved -> go east
        assert r.output_port(9, 27) == PORT_EAST
        # node (3,1)=11 to (3,3): X resolved -> go south
        assert r.output_port(11, 27) == PORT_SOUTH

    def test_all_four_directions(self, net):
        r = XYRouting(net)
        centre = net.node_id(4, 4)
        assert r.output_port(centre, net.node_id(6, 4)) == PORT_EAST
        assert r.output_port(centre, net.node_id(2, 4)) == PORT_WEST
        assert r.output_port(centre, net.node_id(4, 6)) == PORT_SOUTH
        assert r.output_port(centre, net.node_id(4, 2)) == PORT_NORTH

    def test_hop_count_is_manhattan(self, net):
        r = XYRouting(net)
        src = net.node_id(1, 2)
        dst = net.node_id(6, 7)
        assert hop_count(r, src, dst) == 5 + 5

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_route_walk_terminates_at_destination(self, src, dst):
        net = NetworkConfig(width=8, height=8)
        r = XYRouting(net)
        cur = src
        for _ in range(20):
            port = r.output_port(cur, dst)
            if port == PORT_LOCAL:
                break
            cur = neighbour(net, cur, port)
        assert cur == dst

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_no_y_to_x_turns(self, src, dst):
        """Dimension order: once the route moves in Y it never moves in X."""
        net = NetworkConfig(width=8, height=8)
        r = XYRouting(net)
        cur, moved_y = src, False
        for _ in range(20):
            port = r.output_port(cur, dst)
            if port == PORT_LOCAL:
                break
            if port in (PORT_NORTH, PORT_SOUTH):
                moved_y = True
            else:
                assert not moved_y, "illegal Y->X turn"
            cur = neighbour(net, cur, port)


class TestYX:
    def test_y_before_x(self, net):
        r = YXRouting(net)
        assert r.output_port(9, 27) == PORT_SOUTH

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_same_hop_count_as_xy(self, src, dst):
        net = NetworkConfig(width=8, height=8)
        if src == dst:
            return
        assert hop_count(XYRouting(net), src, dst) == hop_count(YXRouting(net), src, dst)


class TestFactory:
    def test_kinds(self, net):
        assert isinstance(make_routing(net, "xy"), XYRouting)
        assert isinstance(make_routing(net, "yx"), YXRouting)
        assert isinstance(make_routing(net, "west_first"), WestFirstRouting)

    def test_unknown(self, net):
        for kind in ("adaptive", "lookahead_xy"):
            with pytest.raises(ValueError):
                make_routing(net, kind)


class TestNeighbour:
    def test_mesh_edge_raises(self):
        net = NetworkConfig(width=4, height=4)
        with pytest.raises(ValueError):
            neighbour(net, 0, PORT_NORTH)

    def test_local_port_raises(self):
        net = NetworkConfig(width=4, height=4)
        with pytest.raises(ValueError):
            neighbour(net, 0, PORT_LOCAL)
