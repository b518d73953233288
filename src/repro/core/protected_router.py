"""The protected router — the paper's proposed fault-tolerant design.

Assembles the four per-stage mechanisms of Section V on top of the shared
pipeline driver:

========== =============================================== ================
Stage      Mechanism                                        Module
========== =============================================== ================
RC         duplicate RC unit per input port                 :mod:`.ft_rc`
VA stage 1 arbiter sharing between VCs of a port            :mod:`.ft_va`
VA stage 2 retry with a different downstream VC             :mod:`.ft_va`
SA stage 1 bypass path + rotating default winner + transfer :mod:`.ft_sa`
SA stage 2 secondary-path redirect (the path plan)          :mod:`.ft_crossbar`
XB         two physical paths per output port               :mod:`.ft_crossbar`
========== =============================================== ================

In the fault-free case every mechanism is inert and the protected router
behaves cycle-for-cycle like the baseline ("In the fault-free scenario,
the protected crossbar behaves just like the baseline crossbar",
Section V-D) — a property the integration tests assert.
"""

from __future__ import annotations

from ..config import NetworkConfig
from ..router.crossbar import Crossbar
from ..router.router import BaseRouter, RCUnit
from ..router.routing import RoutingFunction
from .failure import failed_stages, protected_router_failed
from .ft_crossbar import SecondaryPathCrossbar
from .ft_rc import DuplicatedRCUnit
from .ft_sa import BypassSAUnit
from .ft_va import ArbiterSharingVAUnit


class ProtectedRouter(BaseRouter):
    """Baseline pipeline + the paper's correction circuitry."""

    kind = "protected"

    def _make_crossbar(self) -> Crossbar:
        return SecondaryPathCrossbar(self.config.num_ports, self.faults)

    def _make_rc_unit(self) -> RCUnit:
        return DuplicatedRCUnit(self)

    def _make_va_unit(self) -> ArbiterSharingVAUnit:
        return ArbiterSharingVAUnit(self)

    def _make_sa_unit(self) -> BypassSAUnit:
        return BypassSAUnit(self)

    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """Section VIII failure condition over the current fault state."""
        return protected_router_failed(self.faults)

    @property
    def failed_stages(self) -> list[str]:
        return failed_stages(self.faults)


def protected_router_factory(config: NetworkConfig):
    """Router factory for :class:`repro.network.NoCSimulator`."""

    def make(node: int, routing: RoutingFunction) -> ProtectedRouter:
        return ProtectedRouter(node, config.router, routing)

    return make
