"""Secondary-path crossbar (paper Section V-D, Figure 6).

The baseline crossbar has a single ``pi:1`` mux per output port.  The
protected crossbar adds, for a 5x5 router, one 1:3 demultiplexer, three
1:2 demultiplexers, and five 2:1 output multiplexers (P1..P5) so that
every output port can be fed by *two* muxes.

The secondary-source map is reconstructed from the paper's example
("output port 3 ... can be reached through either multiplexer M3 or M2")
and its fault accounting ("if multiplexers M2 and M4 are each affected by
a fault, the crossbar is still functional ... a fault in any other
multiplexer (M1, M3 or M5) ... will result in failure"):

    secondary(out_k) = M_{k-1}   for k >= 2   (1-based, as in the paper)
    secondary(out_1) = M_2

With 0-based ports: ``secondary(k) = k - 1`` for ``k >= 1`` and
``secondary(0) = 1``.  This yields exactly the paper's circuitry —
M2 (0-based: mux 1) feeds three outputs (its own plus out1 and out3's
secondaries) through the single 1:3 demux; M1, M3, M4 feed two outputs
each through 1:2 demuxes; M5 feeds only its own output — and reproduces
the {M2, M4}-tolerable / M1-M3-M5-fatal behaviour.

A faulty SA stage-2 arbiter is tolerated by the same path (Section V-C2):
flits redirected to arbitrate for the secondary-source port reach the
original output through that port's mux and the demux network.  The
paper's ``SP``/``FSP`` fields are the path plan's ``arb_port`` and
``secondary``; no VC stores them.

:func:`~repro.router.crossbar.secondary_source` and the path rule,
:func:`~repro.router.crossbar.carrier_port`, live beside the baseline
crossbar so that this module, the failure predicates and the lane engine
all read the one rule.
"""

from __future__ import annotations

from ..router.crossbar import Crossbar, carrier_port, secondary_source


def demux_fanouts(num_ports: int) -> dict[int, int]:
    """Number of outputs each mux feeds (1 => no demux needed).

    For the paper's 5-port router this returns ``{0: 2, 1: 3, 2: 2, 3: 2,
    4: 1}`` — one 1:3 demux, three 1:2 demuxes, matching Section V-D.
    """
    fan = {m: 1 for m in range(num_ports)}
    for k in range(num_ports):
        fan[secondary_source(k, num_ports)] += 1
    return fan


class SecondaryPathCrossbar(Crossbar):
    """Crossbar with the Figure 6 correction circuitry."""

    spare = True


def reachable_outputs_exact(
    num_ports: int,
    mux_faults: frozenset[int] = frozenset(),
    secondary_faults: frozenset[int] = frozenset(),
    sa2_faults: frozenset[int] = frozenset(),
) -> list[bool]:
    """Exact reachability of each output under a fault set.

    Standalone (no router instance) version of the plan computation, used
    by the failure predicates and the SPF Monte-Carlo.  Output ``k`` is
    reachable iff its normal path (mux k + arbiter k) or its secondary
    path (demux/P-mux k + mux src + arbiter src) is fully healthy.
    """
    return [
        carrier_port(k, num_ports, mux_faults, secondary_faults, sa2_faults, True)
        is not None
        for k in range(num_ports)
    ]


def max_tolerable_mux_faults(num_ports: int) -> int:
    """Largest number of *mux* faults that can leave all outputs reachable.

    Exhaustive search over mux-fault subsets (5-port: 32 subsets).  For the
    paper's 5-port crossbar this returns 3 (e.g. {M1, M3, M5}); the paper
    conservatively states 2 — see DESIGN.md item 4.  The SPF reproduction
    uses the paper's accounting; this exact figure feeds the extended
    analysis.
    """
    from itertools import combinations

    best = 0
    ports = range(num_ports)
    for r in range(num_ports + 1):
        found = False
        for subset in combinations(ports, r):
            if all(
                reachable_outputs_exact(num_ports, mux_faults=frozenset(subset))
            ):
                found = True
                break
        if found:
            best = r
        else:
            break
    return best
