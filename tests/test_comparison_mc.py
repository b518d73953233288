"""The comparison routers' exact means against their Monte-Carlo oracles.

``BulletProofModel``, ``RoCoModel`` and ``VicisModel`` compute their mean
faults to failure exactly, counting every fault sequence at once.  The
oracles in ``tests/oracles.py`` draw the sequences one scalar
``integers`` call per fault; their sample means must lie within a few
standard errors of the exact value.
"""

import numpy as np
import pytest

from oracles import (
    assert_within_standard_errors,
    bulletproof_samples,
    roco_samples,
    vicis_samples,
)
from repro.comparison import BulletProofModel, RoCoModel, VicisModel

MODELS = {
    "bulletproof": (BulletProofModel(), bulletproof_samples),
    "roco": (RoCoModel(), roco_samples),
    "vicis": (VicisModel(), vicis_samples),
}


@pytest.mark.parametrize("name", MODELS)
def test_exact_mean_within_three_standard_errors(name):
    model, oracle = MODELS[name]
    assert_within_standard_errors(
        model.mean_faults_to_failure(), oracle(model, 10_000, 1)
    )


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("seed", range(20))
def test_bulk_draws_match_the_scalar_calls(name, seed):
    """Twenty seeds of 300 scalar-call trials each: every sample mean lies
    within 4 standard errors of the exact mean, the count over all fault
    sequences at once."""
    model, oracle = MODELS[name]
    samples = oracle(model, 300, seed)
    assert samples.min() >= 1
    assert_within_standard_errors(model.mean_faults_to_failure(), samples, k=4)


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
    assert_within_standard_errors(
        model.mean_faults_to_failure(**kwargs), oracle(model, 4000, 11, **kwargs)
    )


def test_published_design_points():
    """The exact means at the default parameters.  BulletProof's five
    one-spare instances make it the birthday problem on 5 days:
    P(T > m) = 5! / (5 - m)! / 5^m, summed over m = 0 .. 5."""
    birthday = sum(
        np.prod([(5 - i) / 5 for i in range(m)]) for m in range(6)
    )
    assert BulletProofModel().mean_faults_to_failure() == pytest.approx(birthday, abs=1e-12)
    assert birthday == pytest.approx(3.5104, abs=1e-12)
    assert RoCoModel().mean_faults_to_failure() == 7.875
    assert RoCoModel().mean_faults_to_failure(per_half_tolerance=0) == 3.0
    assert VicisModel().mean_faults_to_failure() == pytest.approx(5.60667, abs=1e-5)
