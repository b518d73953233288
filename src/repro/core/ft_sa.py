"""Fault-tolerant switch allocation (paper Section V-C).

**Stage 1 — bypass path.**  Each input port's ``v:1`` arbiter gets a 2:1
multiplexer and a small register holding a *default winner* VC identity.
When the arbiter is faulty the mux forwards the register value instead:
the default winner is selected "without arbitration".  To avoid starving
the other VCs the default winner rotates over all VCs of the port
(Section V-C1: "the best way ... is to make every input VC the default
winner at different points of time").

If the default winner VC is empty while a sibling VC holds flits, the
flits *and state fields* of that sibling are transferred into the default
VC, costing one cycle ("the transferring process between two input VCs
incurs an additional latency of only 1 cycle").  The transfer is modelled
by the input port's slot swap — see
:class:`repro.router.input_port.InputPort`.

**Stage 2** is protected by the crossbar's secondary path: requests whose
output-port arbiter (or mux) is faulty are steered to arbitrate for the
secondary-source port instead (Section V-C2).  The path plan's
``arb_port`` plays the paper's ``SP`` field and its ``secondary`` flag the
``FSP`` flag; the shared allocator reads the plan of
:class:`repro.core.ft_crossbar.SecondaryPathCrossbar`, so no override is
needed here.
"""

from __future__ import annotations

from typing import Optional

from ..router.allocator import SAUnit
from ..router.vc import VCState


class BypassSAUnit(SAUnit):
    """SA unit with the stage-1 bypass path and VC transfer."""

    def _default_winner(self, cycle: int) -> int:
        """Rotating default-winner physical slot for this cycle."""
        cfg = self.router.config
        return (cycle // cfg.bypass_rotation_period) % cfg.num_vcs

    def _stage1_winner(self, port: int, candidates: list[int], cycle: int) -> Optional[int]:
        faults = self.router.faults
        if port not in faults.sa1:
            return self.stage1[port].grant(candidates)
        if port in faults.sa1_bypass:
            # arbiter and bypass both dead: no switch allocation possible
            # at this port (Section VIII-C failure condition)
            self.router.stats.sa_blocked_cycles += 1
            return None

        default = self._default_winner(cycle)
        if default in candidates:
            self.router.stats.sa_bypass_grants += 1
            tracer = self.router.tracer
            if tracer is not None:
                tracer.emit(
                    cycle,
                    "sa_bypass",
                    self.router.node,
                    port=port,
                    slot=default,
                    packet=self.router.in_ports[port].slots[default].packet_id,
                )
            return default

        # The default VC has nothing to send.  If it is empty and idle and
        # a sibling has flits ready, transfer the sibling into the default
        # slot; the transfer consumes this cycle.
        in_port = self.router.in_ports[port]
        default_vc = in_port.slots[default]
        if candidates and default_vc.state == VCState.IDLE and default_vc.is_empty:
            src = candidates[0]
            in_port.swap_slots(src, default)
            self.router.stats.vc_transfers += 1
        return None
