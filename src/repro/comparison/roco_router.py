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
  describes), then *dies*: its input ports stop accepting routing and
  its output ports become unreachable;
* the router keeps forwarding through the surviving module — the
  degraded mode the comparison is about.  (Full turn-path modelling of
  the row->column internal queue is beyond this behavioural level and is
  documented as out of scope; the degradation semantics, which the SPF
  comparison rests on, are what this class reproduces.)

With a dead row module, XY traffic needing east/west through the router
strands while north/south traffic flows — visible in simulation — and
west-first adaptive routing can detour part of the stranded traffic.
"""

from __future__ import annotations

from typing import Optional

from ..config import (
    NetworkConfig,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
)
from ..router.crossbar import Crossbar, PathPlan
from ..router.router import BaseRouter, RCUnit
from ..router.routing import RoutingFunction

ROW_PORTS = frozenset({PORT_EAST, PORT_WEST})
COL_PORTS = frozenset({PORT_NORTH, PORT_SOUTH})

#: faults each module absorbs before dying (matches the RoCoModel default)
DEFAULT_MODULE_TOLERANCE = 2


class RoCoCrossbar(Crossbar):
    """Row/column split crossbar: outputs of a dead module are unreachable."""

    def __init__(self, num_ports: int, faults, router: "RoCoRouter") -> None:
        super().__init__(num_ports, faults)
        self._router = router

    def _compute_plan(self, dest: int) -> Optional[PathPlan]:
        if self._router.module_of_port_failed(dest):
            return None
        return super()._compute_plan(dest)


class _RoCoRCUnit(RCUnit):
    """RC with RoCo's lookahead cover: a dead module blocks its inputs."""

    def compute(self, in_port: int, flit):
        router: RoCoRouter = self.router
        if router.module_of_port_failed(in_port):
            return None
        # lookahead routing covers a plain RC-unit fault (RoCo's RC story),
        # so rc_primary faults are absorbed by the module fault counter
        # instead of blocking here
        return self.select_route(flit)


class RoCoRouter(BaseRouter):
    """Row/column decomposed router with graceful degradation."""

    kind = "roco"

    def __init__(
        self,
        node: int,
        config,
        routing: RoutingFunction,
        module_tolerance: int = DEFAULT_MODULE_TOLERANCE,
    ) -> None:
        if config.num_ports != 5:
            raise ValueError("the RoCo model is defined for 5-port mesh routers")
        if module_tolerance < 0:
            raise ValueError("module tolerance must be >= 0")
        self.module_tolerance = module_tolerance
        self.row_faults = 0
        self.col_faults = 0
        super().__init__(node, config, routing)

    # ------------------------------------------------------------------
    def _make_crossbar(self) -> Crossbar:
        return RoCoCrossbar(self.config.num_ports, self.faults, self)

    def _make_rc_unit(self) -> RCUnit:
        return _RoCoRCUnit(self)

    # ------------------------------------------------------------------
    # module bookkeeping
    # ------------------------------------------------------------------
    @property
    def row_failed(self) -> bool:
        return self.row_faults > self.module_tolerance

    @property
    def col_failed(self) -> bool:
        return self.col_faults > self.module_tolerance

    @property
    def failed(self) -> bool:
        """Both modules dead: the router forwards nothing (RoCo failure)."""
        return self.row_failed and self.col_failed

    @property
    def degraded(self) -> bool:
        return self.row_failed != self.col_failed

    def module_of_port(self, port: int) -> str:
        if port in ROW_PORTS:
            return "row"
        if port in COL_PORTS:
            return "col"
        # local: served by whichever module is healthier
        return "row" if self.row_faults <= self.col_faults else "col"

    def module_of_port_failed(self, port: int) -> bool:
        if port == PORT_LOCAL:
            return self.row_failed and self.col_failed
        return self.row_failed if port in ROW_PORTS else self.col_failed

    # ------------------------------------------------------------------
    # fault handling: every site is charged to its module
    # ------------------------------------------------------------------
    def inject_fault(self, site) -> bool:
        changed = self.faults.inject(site)
        if changed:
            if self.module_of_port(site.port) == "row":
                self.row_faults += 1
            else:
                self.col_faults += 1
            # module state may have flipped: paths must be re-planned;
            # the raw fault sets are cleared so intra-module mechanisms
            # (which RoCo does not have) never mask the module model
            self._neutralise_site_sets()
            self.crossbar.notify_fault_change()
        return changed

    def _neutralise_site_sets(self) -> None:
        """RoCo has no per-site tolerance mechanisms of our protected
        router; its behaviour is entirely the module counters.  Clearing
        the per-site sets keeps the shared pipeline units fault-free so
        only module death changes behaviour."""
        history = self.faults.history[:]
        self.faults.clear()
        self.faults.history.extend(history)

    def fail_module(self, module: str) -> None:
        """Directly kill a module (tests/benches)."""
        if module == "row":
            self.row_faults = self.module_tolerance + 1
        elif module == "col":
            self.col_faults = self.module_tolerance + 1
        else:
            raise ValueError("module must be 'row' or 'col'")
        self.crossbar.notify_fault_change()


def roco_router_factory(config: NetworkConfig, module_tolerance: int = DEFAULT_MODULE_TOLERANCE):
    """Router factory for :class:`repro.network.NoCSimulator`."""

    def make(node: int, routing: RoutingFunction) -> RoCoRouter:
        return RoCoRouter(node, config.router, routing, module_tolerance)

    # marker read by the lane engine (repro.network.batched.supports),
    # which declines this kind: RoCo has no array model
    make.router_kind = "roco"
    return make
