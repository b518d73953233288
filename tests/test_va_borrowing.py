"""VA stage-1 arbiter borrowing on lanes against the scalar walk.

``BatchedLaneEngine._borrow_arbiters`` matches every faulty requester of
a port to a lender with array code.  The oracle below is the scalar walk
it replaced — ``ArbiterSharingVAUnit._stage1_arbiters`` written over the
lane engine's arrays, one requester at a time — and Hypothesis feeds both
random ``f_va1`` masks, VC states and mixes of baseline and protected
lanes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.network import batched
from repro.network.batched import BatchedLaneEngine, LaneSpec
from repro.traffic.generator import NullTraffic


def scalar_borrow(engine, vc, fa):
    """(keep, owner, borrow-wait bumps, blocked bumps) of the scalar walk:
    a faulty requester scans its port's slots in order for a healthy,
    unlent lender that is IDLE or ACTIVE; nobody lends in a baseline lane."""
    keep = ~fa | engine.protected[vc // engine.RPV]
    owner = vc.copy()
    wait = np.zeros((engine.L, engine.R), dtype=np.int64)
    blocked = np.zeros_like(wait)
    for i in (~keep).nonzero()[0]:
        l0, r0, _, _ = np.unravel_index(vc[i], engine.st.shape)
        blocked[l0, r0] += 1
    borrowed: set = set()
    prev_key = None
    for i in (fa & keep).nonzero()[0]:
        l0, r0, p0, s0 = np.unravel_index(vc[i], engine.st.shape)
        if (l0, r0, p0) != prev_key:
            borrowed, prev_key = set(), (l0, r0, p0)
        lender = -1
        for ls in range(engine.V):
            if ls == s0 or ls in borrowed or engine.f_va1[l0, r0, p0, ls]:
                continue
            if engine.st[l0, r0, p0, ls] in (batched._IDLE, batched._ACTIVE):
                lender = ls
                break
        if lender < 0:
            wait[l0, r0] += 1
            blocked[l0, r0] += 1
            keep[i] = False
        else:
            borrowed.add(lender)
            owner[i] += lender - s0
    return keep, owner, wait, blocked


@st.composite
def engines(draw):
    lanes = draw(st.integers(1, 3))
    vcs = draw(st.sampled_from([1, 2, 3, 4, 6]))
    net = NetworkConfig(width=2, height=2, router=RouterConfig(num_vcs=vcs))
    engine = BatchedLaneEngine(
        net, SimulationConfig(warmup_cycles=10, measure_cycles=10, drain_cycles=10),
        [LaneSpec(NullTraffic()) for _ in range(lanes)], "protected",
    )
    shape = engine.st.shape
    # dense enough that ports hold several borrowers and few lenders
    engine.st[...] = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    engine.f_va1[...] = draw(hnp.arrays(bool, shape))
    engine.protected[:] = draw(hnp.arrays(bool, lanes))
    return engine


@settings(max_examples=150, deadline=None)
@given(engine=engines())
def test_vectorised_borrowing_matches_the_scalar_walk(engine):
    vc = (engine.st_ == batched._WAITING_VA).nonzero()[0]
    fa = engine.f_va1_[vc]
    want_keep, want_owner, wait, blocked = scalar_borrow(engine, vc, fa)
    before = engine.counts().copy()
    keep, owner = engine._borrow_arbiters(vc, fa)
    bumps = engine.counts() - before
    assert keep.tolist() == want_keep.tolist()
    assert owner[keep].tolist() == want_owner[want_keep].tolist()
    assert (bumps[batched._I_VA_BORROW_WAIT] == wait).all()
    assert (bumps[batched._I_VA_BLOCK] == blocked).all()
    # nothing else moves, and every kept owner is a slot of its own port
    others = np.delete(bumps, [batched._I_VA_BORROW_WAIT, batched._I_VA_BLOCK], axis=0)
    assert not others.any()
    assert (engine.port_of[owner[keep]] == engine.port_of[vc[keep]]).all()
