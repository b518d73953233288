"""Behavioural RoCo router for the live simulator.

RoCo (Kim et al., ISCA 2006) decomposes the router into independent
*row* (east/west) and *column* (north/south) modules with decoupled
arbiters and two small crossbars.  Its fault story is graceful
degradation: "a permanent fault in one of the components does not affect
the other component and the router continues to function in a degraded
fashion with the fault-free component".

:class:`RoCoRouter` models that degradation on our pipeline substrate:

* every pipeline fault site is charged to the module that owns its port
  (east/west -> row, north/south -> column; local-port faults are
  charged to the less-damaged module, as RoCo's local injection/ejection
  has entry points in both);
* each module absorbs a small number of faults (lookahead routing covers
  RC, VA arbiters can be shared with SA — the mechanisms the RoCo paper
  describes), so a landing sets no fault bit of its own; past that the
  module *dies*, and a dead module is fault bits both engines already
  read (:func:`dead_ports`): its input ports' ``rc_primary`` (routing
  stops) and its output ports' ``xb_mux`` (the outputs are unreachable);
* the router keeps forwarding through the surviving module — the
  degraded mode the comparison is about.  (Full turn-path modelling of
  the row->column internal queue is beyond this behavioural level and is
  documented as out of scope; the degradation semantics, which the SPF
  comparison rests on, are what this class reproduces.)

With a dead row module, XY traffic needing east/west through the router
strands while north/south traffic flows — visible in simulation — and
west-first adaptive routing can detour part of the stranded traffic.
A ``roco`` lane of :mod:`repro.network.batched` is a baseline lane that
keeps the same two counters per router and sets the same bits.
"""

from __future__ import annotations

from ..config import (
    NetworkConfig,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
)
from ..router.router import BaseRouter
from ..router.routing import RoutingFunction

ROW_PORTS = frozenset({PORT_EAST, PORT_WEST})
COL_PORTS = frozenset({PORT_NORTH, PORT_SOUTH})

#: faults each module absorbs before dying (matches the RoCoModel default)
DEFAULT_MODULE_TOLERANCE = 2


def charged_to_row(port: int, row_faults: int, col_faults: int) -> bool:
    """Whether a fault at ``port`` is charged to the row module (else the
    column one): a local one goes to the healthier module, a tie to row."""
    return port in ROW_PORTS or (port not in COL_PORTS and row_faults <= col_faults)


def dead_ports(row_faults: int, col_faults: int) -> frozenset[int]:
    """The ports a router with these module fault counts has lost: a
    module past :data:`DEFAULT_MODULE_TOLERANCE` takes its own ports, and
    the local port goes once both modules are dead."""
    row = row_faults > DEFAULT_MODULE_TOLERANCE
    col = col_faults > DEFAULT_MODULE_TOLERANCE
    dead = {PORT_LOCAL} if row and col else set()
    return frozenset(dead | (ROW_PORTS if row else set()) | (COL_PORTS if col else set()))


class RoCoRouter(BaseRouter):
    """Row/column decomposed router with graceful degradation."""

    kind = "roco"

    def __init__(self, node: int, config, routing: RoutingFunction) -> None:
        if config.num_ports != 5:
            raise ValueError("the RoCo model is defined for 5-port mesh routers")
        self.row_faults = 0
        self.col_faults = 0
        super().__init__(node, config, routing)

    # ------------------------------------------------------------------
    # module bookkeeping
    # ------------------------------------------------------------------
    @property
    def row_failed(self) -> bool:
        return self.row_faults > DEFAULT_MODULE_TOLERANCE

    @property
    def col_failed(self) -> bool:
        return self.col_faults > DEFAULT_MODULE_TOLERANCE

    @property
    def failed(self) -> bool:
        """Both modules dead: the router forwards nothing (RoCo failure)."""
        return self.row_failed and self.col_failed

    @property
    def degraded(self) -> bool:
        return self.row_failed != self.col_failed

    def module_of_port(self, port: int) -> str:
        return "row" if charged_to_row(port, self.row_faults, self.col_faults) else "col"

    # ------------------------------------------------------------------
    # fault handling: every site is charged to its module
    # ------------------------------------------------------------------
    def inject_fault(self, site) -> bool:
        """Record the landing and charge it to its module: every landing
        counts, a repeated site included."""
        if self.module_of_port(site.port) == "row":
            self.row_faults += 1
        else:
            self.col_faults += 1
        self.faults.history.append(site)
        self._set_dead_ports()
        return True

    def heal_fault(self, site) -> bool:
        """A charge is never returned: a dead module stays dead."""
        return False

    def fail_module(self, module: str) -> None:
        """Directly kill a module (tests/benches)."""
        if module == "row":
            self.row_faults = DEFAULT_MODULE_TOLERANCE + 1
        elif module == "col":
            self.col_faults = DEFAULT_MODULE_TOLERANCE + 1
        else:
            raise ValueError("module must be 'row' or 'col'")
        self._set_dead_ports()

    def _set_dead_ports(self) -> None:
        """The module counters as fault bits: routing stops at a dead
        port's input and its output is unreachable."""
        dead = dead_ports(self.row_faults, self.col_faults)
        for bits in (self.faults.rc_primary, self.faults.xb_mux):
            bits.clear()
            bits.update(dead)
        self.crossbar.notify_fault_change()


def roco_router_factory(config: NetworkConfig):
    """Router factory for :class:`repro.network.NoCSimulator`."""

    def make(node: int, routing: RoutingFunction) -> RoCoRouter:
        return RoCoRouter(node, config.router, routing)

    return make
