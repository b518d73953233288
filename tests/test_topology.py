"""Tests for mesh wiring tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import (
    NetworkConfig,
    OPPOSITE_PORT,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
)
from repro.network.topology import Topology


class TestMesh:
    def test_link_count(self):
        # 8x8 mesh: 2 * (7*8 + 8*7) = 224 unidirectional links
        topo = Topology(NetworkConfig(width=8, height=8))
        assert topo.num_links == 224

    def test_corner_has_two_neighbours(self):
        topo = Topology(NetworkConfig(width=4, height=4))
        ports = [
            p
            for p in (PORT_NORTH, PORT_EAST, PORT_SOUTH, PORT_WEST)
            if topo.neighbour(0, p) is not None
        ]
        assert sorted(ports) == sorted([PORT_EAST, PORT_SOUTH])

    def test_links_are_symmetric(self):
        topo = Topology(NetworkConfig(width=5, height=3))
        for (node, port), (dst, dst_port) in topo.links.items():
            back = topo.links[(dst, OPPOSITE_PORT[port])]
            assert back == (node, OPPOSITE_PORT[dst_port])

    def test_out_link_is_the_link_dict(self):
        """The dense table holds the links and nothing else; a mesh link's
        reverse twin makes ``out_link`` the credit path's wiring too."""
        topo = Topology(NetworkConfig(width=4, height=3))
        dense = {
            (node, port): link
            for node, row in enumerate(topo.out_link)
            for port, link in enumerate(row)
            if link is not None
        }
        assert dense == topo.links
        for (node, port), (dst, dst_port) in topo.links.items():
            assert topo.out_link[dst][dst_port] == (node, port)

    def test_local_port_queries_raise(self):
        topo = Topology(NetworkConfig(width=4, height=4))
        with pytest.raises(ValueError):
            topo.neighbour(0, PORT_LOCAL)

    def test_neighbour_geometry(self):
        net = NetworkConfig(width=4, height=4)
        topo = Topology(net)
        centre = net.node_id(1, 1)
        assert topo.neighbour(centre, PORT_EAST) == (
            net.node_id(2, 1),
            PORT_WEST,
        )
        assert topo.neighbour(centre, PORT_SOUTH) == (
            net.node_id(1, 2),
            PORT_NORTH,
        )


class TestGraphView:
    def test_mesh_is_strongly_connected(self):
        topo = Topology(NetworkConfig(width=4, height=4))
        assert topo.is_connected()

    def test_removing_cut_nodes_disconnects(self):
        # 1x4 line mesh: removing an interior node disconnects it
        topo = Topology(NetworkConfig(width=4, height=1))
        assert topo.is_connected()
        assert not topo.is_connected(frozenset({1}))

    def test_graph_edge_count_matches(self):
        topo = Topology(NetworkConfig(width=3, height=3))
        assert topo.graph().number_of_edges() == topo.num_links

    def test_networkx_stays_off_the_import_path(self):
        """Only ``graph()`` / ``is_connected()`` (and vicis's port swap)
        need networkx; no simulation, sweep or service process pays its
        import (0.15 s, 14 MB) unless it calls them."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys\n"
            "import repro.experiments, repro.network.batched\n"
            "import repro.service.server\n"
            "assert 'networkx' not in sys.modules\n"
            "from repro.config import NetworkConfig\n"
            "from repro.network.topology import Topology\n"
            "assert Topology(NetworkConfig(width=3, height=3)).is_connected()\n"
            "assert 'networkx' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
