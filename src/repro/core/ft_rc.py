"""Fault-tolerant routing computation (paper Section V-A).

"To provide fault tolerance to this stage, we propose to have a redundant
RC unit for each input port.  The duplicate RC unit can be turned on and
used upon detection of a fault in the original unit."

Spatial redundancy: zero latency penalty (Section VI-B: "Since RC stage
employs spatial redundancy, there is negligible impact on the critical
path").  The port only fails when the primary *and* duplicate units of the
same port are both faulty (Section VIII-A).
"""

from __future__ import annotations

from typing import Optional

from ..router.flit import Flit
from ..router.router import RCUnit


class DuplicatedRCUnit(RCUnit):
    """RC unit with a per-port spatial spare."""

    def compute(self, in_port: int, flit: Flit) -> Optional[int]:
        faults = self.router.faults
        if in_port not in faults.rc_primary:
            return self.select_route(flit)
        if in_port not in faults.rc_duplicate:
            self.router.stats.rc_duplicate_computations += 1
            return self.select_route(flit)
        # both units dead: routing computation impossible at this port
        return None
