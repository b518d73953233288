"""Scalar draws read in bulk: a fault Monte-Carlo sees the draws one
``rng.integers`` call per fault gives, and its generator ends where
those calls leave it."""

from typing import Callable, Generator

import numpy as np


def bulk_draws(read: Callable[[int], np.ndarray], least: int) -> Callable[[int], int]:
    """``draw(trials)``: the next of the draws ``read(n)`` takes ``n`` at a
    time as ``n`` scalar calls would (``integers(k, size=n)``).  ``trials``
    counts the trials still to come, the drawing one included; each takes
    ``least`` draws or more, so no read runs past the scalar loop's draws."""

    def stream() -> Generator[int, int, None]:
        trials = yield 0
        while True:
            for value in read(1 + (trials - 1) * least).tolist():
                trials = yield value

    draws = stream()
    next(draws)
    return draws.send


def lemire_below(half: Callable[[int], int], k: int, trials: int) -> int:
    """NumPy's ``integers(k)`` off the 32-bit halves of a :func:`bulk_draws`
    of ``integers(1 << 32, dtype=uint32)``, by its Lemire rejection."""
    if k == 1:
        return 0  # ``integers(1)`` draws nothing
    threshold = ((1 << 32) - k) % k
    while True:
        m = half(trials) * k
        if m & 0xFFFFFFFF >= threshold:
            return m >> 32
