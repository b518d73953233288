"""Crossbar stage (XB) — baseline architecture and the path-plan interface.

Paper Figure 3c: a ``pi x po`` crossbar is ``po`` multiplexers, each ``pi:1``,
one per output port.  "A fault in a multiplexer blocks the passage to its
associated output port" (Section V-D) — in the baseline crossbar there is a
single path per output, so a mux fault makes that output unreachable.

The pipeline interacts with the crossbar through *path plans*: given a
logical output port ``k``, :meth:`Crossbar.plan_path` answers which SA
stage-2 arbiter must be won and which physical mux will carry the flit, or
``None`` when the output is unreachable.  The baseline plan is trivial
(arbiter ``k``, mux ``k``); the protected router's
:class:`repro.core.ft_crossbar.SecondaryPathCrossbar` adds the demux/mux
secondary paths of paper Figure 6.

A faulty SA stage-2 arbiter also makes its output port unreachable in the
baseline ("the input VCs cannot arbitrate for the arbiter's associated
output port thus making the output port unreachable", Section V-C2), so the
plan accounts for both fault sites.  :func:`carrier_port` states that rule
once, for both crossbars, the failure predicates and the lane engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional

from ..faults.sites import RouterFaultState

#: cache sentinel — ``None`` is a valid plan result ("unreachable"), so an
#: unset cache entry needs a distinct marker
_UNCACHED: object = object()


def secondary_source(dest: int, num_ports: int) -> int:
    """Mux that provides the secondary path to output ``dest`` (0-based).

    ``secondary(k) = k - 1`` for ``k >= 1`` and ``secondary(0) = 1``; see
    :mod:`repro.core.ft_crossbar` for how this map follows from the paper.
    """
    if num_ports < 2:
        raise ValueError("secondary paths need at least 2 output ports")
    if not 0 <= dest < num_ports:
        raise ValueError(f"output {dest} out of range")
    return 1 if dest == 0 else dest - 1


def carrier_port(
    dest: int,
    num_ports: int,
    xb_mux: Collection[int],
    xb_secondary: Collection[int],
    sa2: Collection[int],
    spare: bool,
) -> Optional[int]:
    """The port whose SA stage-2 arbiter and mux carry a flit to ``dest``.

    The normal path (``dest`` itself) needs a healthy mux and arbiter
    ``dest``.  Otherwise a router with the Figure 6 ``spare`` circuitry
    uses the secondary path: healthy demux / output mux at ``dest`` plus a
    healthy mux and arbiter at :func:`secondary_source`.  ``None`` when
    neither path is whole.
    """
    if dest not in xb_mux and dest not in sa2:
        return dest
    if not spare or dest in xb_secondary:
        return None
    src = secondary_source(dest, num_ports)
    if src in xb_mux or src in sa2:
        return None
    return src


@dataclass(frozen=True)
class PathPlan:
    """How a flit physically reaches logical output ``dest``.

    Attributes
    ----------
    arb_port:
        SA stage-2 arbiter the input VC must win.  Equals ``dest`` on the
        normal path; equals the secondary-source port when the secondary
        path is in use (the paper's ``SP`` field holds this value).
    mux:
        Physical crossbar multiplexer that carries the flit.  Always equal
        to ``arb_port`` (each arbiter drives its own mux).
    dest:
        Logical output port — the link the flit is delivered on.
    secondary:
        True when the correction circuitry (demux + 2:1 output mux) is in
        use; the ``FSP`` flag in the paper.
    """

    arb_port: int
    mux: int
    dest: int
    secondary: bool


class Crossbar:
    """Baseline crossbar: one ``pi:1`` mux per output port, single path.

    ``plan_path`` results are memoised per output port in a flat list
    (plans depend only on the static fault sets, so between fault events
    the lookup is a single list index); the cache is invalidated whenever
    the fault state changes (``notify_fault_change``).
    """

    #: whether the Figure 6 secondary paths exist (``carrier_port``'s
    #: ``spare``)
    spare = False

    def __init__(self, num_ports: int, faults: RouterFaultState) -> None:
        self.num_ports = num_ports
        self.faults = faults
        self._plan_cache: list[object] = [_UNCACHED] * num_ports

    def notify_fault_change(self) -> None:
        """Invalidate cached plans after a fault injection or heal."""
        self._plan_cache = [_UNCACHED] * self.num_ports

    def plan_path(self, dest: int) -> Optional[PathPlan]:
        """Plan for reaching ``dest``, or ``None`` if unreachable."""
        if not 0 <= dest < self.num_ports:
            raise ValueError(f"output port {dest} out of range")
        plan = self._plan_cache[dest]
        if plan is _UNCACHED:
            f = self.faults
            port = carrier_port(
                dest, self.num_ports, f.xb_mux, f.xb_secondary, f.sa2, self.spare
            )
            plan = None if port is None else PathPlan(port, port, dest, port != dest)
            self._plan_cache[dest] = plan
        return plan  # type: ignore[return-value]
