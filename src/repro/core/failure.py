"""Failure predicates for the protected router (paper Section VIII).

The protected router keeps working until some pipeline stage can no longer
perform its function at some port:

* **RC** (VIII-A): a port's primary *and* duplicate RC units are faulty.
* **VA** (VIII-B): all ``v`` stage-1 arbiter sets of one input port are
  faulty (no sibling left to borrow from).
* **SA** (VIII-C): a port's stage-1 arbiter *and* its bypass path are
  faulty.
* **XB** (VIII-D): an output port is reachable through neither its normal
  mux nor its secondary path.  The same condition covers SA stage-2
  arbiter faults, which are tolerated by the same secondary path.

:func:`failure_components` states the predicate as an OR over
:class:`FailureComponent` records that share no fault site: per port the RC
pair, the VA1 arbiter sets and SA1 arbiter + bypass; one ring of every XB
mux, XB secondary path and SA2 arbiter (coupled through
:func:`~repro.router.crossbar.carrier_port`); and in exact mode each
(output port, vnet)'s VA2 arbiters.  :mod:`repro.reliability.spf` counts
tolerable fault sets component by component.  The *paper-accounting*
mode mirrors Section VIII exactly: VA stage-2 faults are not counted,
because the paper's SPF analysis considers stage-1 sharing only.  The
*exact* mode additionally fails when every downstream-VC arbiter of some
(output port, vnet) pair is dead, which blocks all VA to that port.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from ..config import RouterConfig
from ..faults.sites import FaultSite, FaultUnit, RouterFaultState
from ..router.crossbar import carrier_port


def rc_port_failed(faults: RouterFaultState, port: int) -> bool:
    """Primary and duplicate RC units of ``port`` both faulty."""
    return port in faults.rc_primary and port in faults.rc_duplicate


def va_port_failed(faults: RouterFaultState, port: int) -> bool:
    """All stage-1 arbiter sets of ``port`` faulty (nothing to borrow)."""
    V = faults.config.num_vcs
    return all((port, s) in faults.va1 for s in range(V))


def sa_port_failed(faults: RouterFaultState, port: int) -> bool:
    """Stage-1 arbiter and bypass path of ``port`` both faulty."""
    return port in faults.sa1 and port in faults.sa1_bypass


def xb_output_failed(faults: RouterFaultState, out_port: int) -> bool:
    """Neither the normal nor the secondary path reaches ``out_port``."""
    return carrier_port(
        out_port,
        faults.config.num_ports,
        faults.xb_mux,
        faults.xb_secondary,
        faults.sa2,
        spare=True,
    ) is None


def _xb_ring_failed(faults: RouterFaultState) -> bool:
    """Some output port is reachable by neither path."""
    return any(xb_output_failed(faults, p) for p in range(faults.config.num_ports))


def _va2_vnet_failed(faults: RouterFaultState, port: int, vnet: int) -> bool:
    """Every downstream-VC arbiter of ``vnet`` at ``port`` is faulty."""
    return all((port, d) in faults.va2 for d in faults.config.vcs_of_vnet(vnet))


def va2_output_failed(faults: RouterFaultState, out_port: int) -> bool:
    """*Exact-model extension*: every downstream-VC arbiter of some vnet of
    ``out_port`` is faulty, so no packet can complete VA toward it."""
    vnets = range(faults.config.num_vnets)
    return any(_va2_vnet_failed(faults, out_port, v) for v in vnets)


@dataclass(frozen=True)
class FailureComponent:
    """One term of the predicate's OR: ``failed`` reads only ``sites``,
    and no other component reads any of them."""

    stage: str
    sites: tuple[FaultSite, ...]
    failed: Callable[[RouterFaultState], bool]


@lru_cache(maxsize=32)
def failure_components(
    config: RouterConfig, exact: bool = False
) -> tuple[FailureComponent, ...]:
    """The predicate's independent components for ``config`` (sites of
    router 0; every rule reads ports and VCs only)."""
    P, V, U = config.num_ports, config.num_vcs, FaultUnit

    def sites(units: tuple[FaultUnit, ...], ports: range, vcs: Iterable[int] = (-1,)) -> tuple[FaultSite, ...]:
        return tuple(FaultSite(0, u, p, v) for u in units for p in ports for v in vcs)

    out: list[FailureComponent] = []
    for p in range(P):
        port = range(p, p + 1)
        out += [
            FailureComponent("RC", sites((U.RC_PRIMARY, U.RC_DUPLICATE), port),
                             lambda f, p=p: rc_port_failed(f, p)),
            FailureComponent("VA", sites((U.VA1_ARBITER_SET,), port, range(V)),
                             lambda f, p=p: va_port_failed(f, p)),
            FailureComponent("SA", sites((U.SA1_ARBITER, U.SA1_BYPASS), port),
                             lambda f, p=p: sa_port_failed(f, p)),
        ]
    ring = (U.SA2_ARBITER, U.XB_MUX, U.XB_SECONDARY)
    out.append(FailureComponent("XB", sites(ring, range(P)), _xb_ring_failed))
    if exact:
        out += [
            FailureComponent("VA", sites((U.VA2_ARBITER,), range(p, p + 1), config.vcs_of_vnet(n)),
                             lambda f, p=p, n=n: _va2_vnet_failed(f, p, n))
            for p in range(P)
            for n in range(config.num_vnets)
        ]
    return tuple(out)


def protected_router_failed(
    faults: RouterFaultState, exact: bool = False
) -> bool:
    """True when any component of the predicate has failed.

    ``exact=True`` additionally applies the VA stage-2 exhaustion condition
    (see module docstring).
    """
    return any(c.failed(faults) for c in failure_components(faults.config, exact))


def baseline_router_failed(faults: RouterFaultState) -> bool:
    """The unprotected router fails on its *first* pipeline fault.

    This is the paper's baseline model (Section VII): with no correction
    circuitry, a fault in any pipeline-stage component blocks traffic and
    the router is considered failed.
    """
    return faults.any_faults


def failed_stages(faults: RouterFaultState, exact: bool = False) -> list[str]:
    """Stages of the failed components, in pipeline order (diagnostics)."""
    failed = {
        c.stage for c in failure_components(faults.config, exact) if c.failed(faults)
    }
    return [s for s in ("RC", "VA", "SA", "XB") if s in failed]
