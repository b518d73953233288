"""The comparison routers' Monte-Carlos against their scalar oracles.

``BulletProofModel``, ``RoCoModel`` and ``VicisModel`` read their fault
draws in bulk (``integers(k, size=n)``, or for Vicis a Lemire parse of
32-bit halves).  The oracles below are the loops they replaced, one
scalar ``integers`` call per fault: the mean must be bit-equal, and a
caller's generator — one holding a buffered 32-bit half included — must
end in the same state.
"""

import numpy as np
import pytest

from repro.comparison import BulletProofModel, RoCoModel, RowColumnState, VicisModel


def bulletproof_oracle(model, trials, rng):
    spares = model.site_spares()
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        hits, n = [0] * len(spares), 0
        while True:
            i = int(rng.integers(len(spares)))
            hits[i] += 1
            n += 1
            if hits[i] > spares[i]:
                break
        counts[t] = n
    return float(counts.mean())


def roco_oracle(model, trials, rng, per_half_tolerance=2):
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        state, n = RowColumnState(per_half_tolerance=per_half_tolerance), 0
        while not state.failed:
            n += 1
            if rng.integers(2) == 0:
                state.hit_row()
            else:
                state.hit_col()
        counts[t] = n
    return float(counts.mean())


def vicis_oracle(model, trials, rng, num_ports=5, ecc_tolerance=6):
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        datapath = crossbar = n = 0
        dead: set = set()
        while True:
            n += 1
            kind = rng.integers(3)
            if kind == 0:
                datapath += 1
                if datapath > ecc_tolerance:
                    break
            elif kind == 1:
                crossbar += 1
                if crossbar > 1:
                    break
            else:
                dead.add(int(rng.integers(num_ports)))
                if len(dead) > num_ports - 2:
                    break
        counts[t] = n
    return float(counts.mean())


MODELS = {
    "bulletproof": (BulletProofModel(), bulletproof_oracle),
    "roco": (RoCoModel(), roco_oracle),
    "vicis": (VicisModel(), vicis_oracle),
}
#: one trial count per seed, 1 .. 2,000
TRIALS = (1, 2, 3, 5, 8, 13, 40, 99, 250, 2000)


def _generator(seed):
    """A generator partway through a 64-bit word: its next 32-bit draw
    is the held half."""
    rng = np.random.default_rng(seed)
    rng.integers(7)
    return rng


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("seed", range(20))
def test_bulk_draws_match_the_scalar_calls(name, seed):
    model, oracle = MODELS[name]
    trials = TRIALS[seed % len(TRIALS)]
    # a seed: the generator the method builds itself
    assert model.monte_carlo_faults_to_failure(trials, rng=seed) == oracle(
        model, trials, np.random.default_rng(seed)
    )
    # a generator: the same mean, and it ends where the scalar calls leave it
    mine, theirs = _generator(seed), _generator(seed)
    assert model.monte_carlo_faults_to_failure(trials, rng=mine) == oracle(
        model, trials, theirs
    )
    assert mine.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("roco", {"per_half_tolerance": 0}),
        ("roco", {"per_half_tolerance": 4}),
        ("vicis", {"num_ports": 1}),
        ("vicis", {"num_ports": 3, "ecc_tolerance": 0}),
    ],
)
def test_model_parameters_at_their_edges(name, kwargs):
    model, oracle = MODELS[name]
    mine, theirs = _generator(11), _generator(11)
    assert model.monte_carlo_faults_to_failure(300, rng=mine, **kwargs) == oracle(
        model, 300, theirs, **kwargs
    )
    assert mine.bit_generator.state == theirs.bit_generator.state
