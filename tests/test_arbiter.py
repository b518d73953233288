"""Tests for the round-robin arbiter, including fairness properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.router.arbiter import RoundRobinArbiter


class TestRoundRobin:
    def test_single_requester_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([2]) == 2

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([]) is None

    def test_priority_rotates_after_grant(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([0, 1, 2, 3]) == 0
        assert arb.grant([0, 1, 2, 3]) == 1
        assert arb.grant([0, 1, 2, 3]) == 2
        assert arb.grant([0, 1, 2, 3]) == 3
        assert arb.grant([0, 1, 2, 3]) == 0

    def test_skips_non_requesters(self):
        arb = RoundRobinArbiter(4)
        arb.grant([0])  # priority now 1
        assert arb.grant([0, 3]) == 3  # 3 is cyclically closer to 1

    def test_priority_frozen_without_grant(self):
        arb = RoundRobinArbiter(4)
        arb.grant([])
        assert arb.priority == 0

    def test_out_of_range_requester_rejected(self):
        arb = RoundRobinArbiter(4)
        with pytest.raises(ValueError):
            arb.grant([4])
        with pytest.raises(ValueError):
            arb.grant([-1])

    def test_rejects_empty_arbiter(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)


@st.composite
def request_sequences(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    n_rounds = draw(st.integers(min_value=1, max_value=50))
    rounds = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                unique=True,
                max_size=size,
            )
        )
        for _ in range(n_rounds)
    ]
    return size, rounds


class TestArbiterProperties:
    @given(request_sequences())
    @settings(max_examples=60, deadline=None)
    def test_grant_is_always_a_requester(self, seq):
        size, rounds = seq
        arb = RoundRobinArbiter(size)
        for reqs in rounds:
            g = arb.grant(reqs)
            if reqs:
                assert g in reqs
            else:
                assert g is None

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=10, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_starvation_freedom_under_full_load(self, size, rounds):
        """With all requesters always active, grants are perfectly fair."""
        arb = RoundRobinArbiter(size)
        counts = [0] * size
        for _ in range(rounds):
            counts[arb.grant(list(range(size)))] += 1
        assert max(counts) - min(counts) <= 1

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_persistent_requester_eventually_wins(self, size):
        """Requester 0 competing against everyone wins within `size` rounds."""
        arb = RoundRobinArbiter(size)
        for _ in range(size):
            if arb.grant(list(range(size))) == 0:
                return
        pytest.fail("requester 0 starved")
