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

These predicates drive the SPF Monte-Carlo (:mod:`repro.reliability.spf`)
and the simulator's ``router_failed`` diagnostics.  The *paper-accounting*
mode mirrors Section VIII exactly: VA stage-2 faults are not counted,
because the paper's SPF analysis considers stage-1 sharing only.  The
paper's conservative cap of two tolerated XB faults is applied in the SPF
module, not here.  The *exact* mode additionally fails when every
downstream-VC arbiter of some (output port, vnet) pair is dead, which
blocks all VA to that port.
"""

from __future__ import annotations

from ..faults.sites import RouterFaultState
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


def va2_output_failed(faults: RouterFaultState, out_port: int) -> bool:
    """*Exact-model extension*: every downstream-VC arbiter of some vnet of
    ``out_port`` is faulty, so no packet can complete VA toward it."""
    cfg = faults.config
    for vnet in range(cfg.num_vnets):
        if all((out_port, d) in faults.va2 for d in cfg.vcs_of_vnet(vnet)):
            return True
    return False


def protected_router_failed(
    faults: RouterFaultState, exact: bool = False
) -> bool:
    """True when any pipeline stage of any port can no longer function.

    ``exact=True`` additionally applies the VA stage-2 exhaustion condition
    (see module docstring).
    """
    P = faults.config.num_ports
    for p in range(P):
        if rc_port_failed(faults, p) or va_port_failed(faults, p):
            return True
        if sa_port_failed(faults, p):
            return True
        if xb_output_failed(faults, p):
            return True
        if exact and va2_output_failed(faults, p):
            return True
    return False


def baseline_router_failed(faults: RouterFaultState) -> bool:
    """The unprotected router fails on its *first* pipeline fault.

    This is the paper's baseline model (Section VII): with no correction
    circuitry, a fault in any pipeline-stage component blocks traffic and
    the router is considered failed.
    """
    return faults.any_faults


def failed_stages(faults: RouterFaultState, exact: bool = False) -> list[str]:
    """Names of the stages whose failure condition holds (diagnostics)."""
    P = faults.config.num_ports
    out = []
    if any(rc_port_failed(faults, p) for p in range(P)):
        out.append("RC")
    if any(va_port_failed(faults, p) for p in range(P)):
        out.append("VA")
    if exact and any(va2_output_failed(faults, p) for p in range(P)):
        if "VA" not in out:
            out.append("VA")
    if any(sa_port_failed(faults, p) for p in range(P)):
        out.append("SA")
    if any(xb_output_failed(faults, p) for p in range(P)):
        out.append("XB")
    return out
