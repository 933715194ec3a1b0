"""The paper's dimension claims, through `run_experiment` at N up to 64.

A unitary succeeds with probability 1/N^2 under the full measurement and 1/S
under the support measurement. The two-term rotation has S = 2 at every even
N, so it succeeds with 1/2 whatever the dimension, and the l-qubit family has
S = 1 + 2^(l-1), so 2/(2^l + 2). Each claim is checked to 1e-10 relative, each
probability against `predicted_probability` to 1e-10, and each output against
the oracle to fidelity 1 - 1e-10.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditproc import (
    QuditShiftNetwork,
    example2_operator,
    family_operator,
    hs_expand,
    predicted_probability,
    random_state,
    random_unitary,
    run_experiment,
)

TOL = 1e-10
CLAIM = settings(derandomize=True, max_examples=20, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)


@functools.cache
def network(dim: int) -> QuditShiftNetwork:
    # one network per N, so each N compiles its gate array once
    return QuditShiftNetwork(dim)


@pytest.fixture(scope="module", autouse=True)
def _drop_networks():
    # the compiled indices take up to 8 N^3 B each, 35 MB for every N <= 64
    yield
    network.cache_clear()


def assert_claim(op, meas_kind: str, claimed: float, rng, trials: int = 3) -> None:
    states = [random_state(op.dim, 1, rng) for _ in range(trials)]
    for psi, outcome in zip(states, run_experiment(network(op.dim), op, states, meas_kind)):
        assert abs(outcome.probability - claimed) <= TOL * claimed
        assert abs(outcome.probability - predicted_probability(op, psi, meas_kind)) <= TOL
        assert outcome.oracle_fidelity >= 1 - TOL


@CLAIM
@given(st.integers(1, 32), st.floats(0.1, 1.4), SEEDS)
@example(32, 1.4, 0)
def test_two_term_rotation_gives_one_half_at_every_even_dim(half_dim, theta, seed):
    assert_claim(example2_operator(theta, 2 * half_dim), "support", 0.5, np.random.default_rng(seed))


@CLAIM
@given(st.integers(1, 6), st.floats(0.1, 1.4), SEEDS)
@example(6, 0.1, 0)
def test_family_gives_two_over_two_to_the_l_plus_two(l, phi, seed):
    assert_claim(family_operator(l, phi), "support", 2 / (2**l + 2), np.random.default_rng(seed))


@CLAIM
@given(st.integers(2, 64), SEEDS)
@example(64, 0)
def test_haar_unitary_gives_inverse_dim_squared_under_the_full_measurement(dim, seed):
    rng = np.random.default_rng(seed)
    assert_claim(random_unitary(dim, rng), "full", dim**-2, rng)


@CLAIM
@given(st.integers(2, 64), SEEDS)
@example(64, 0)
def test_haar_unitary_gives_inverse_support_size_under_the_support_measurement(dim, seed):
    rng = np.random.default_rng(seed)
    op = random_unitary(dim, rng)
    support_size = hs_expand(op).support_size()
    # generically every coefficient is in the support
    assert support_size == dim * dim
    assert_claim(op, "support", 1 / support_size, rng)
