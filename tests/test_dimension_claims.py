"""The paper's dimension claims, through `run_experiment` at N up to `MAX_DIM`.

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
from quditproc.harness import MAX_DIM

TOL = 1e-10
CLAIM = settings(derandomize=True, max_examples=20, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
# Drawn N go up to here, l up to 7; each property's explicit example is the
# largest case, N = MAX_DIM or l = 8. This file then takes 3.6-4.6 s against
# 1.6 s when it drew N <= 64 (4.7-6.1 s drawing up to MAX_DIM).
DRAWN_DIM = 192


@functools.cache
def network(dim: int) -> QuditShiftNetwork:
    # one network per N, so each N below the crossover compiles its gate array once
    return QuditShiftNetwork(dim)


@pytest.fixture(scope="module", autouse=True)
def _drop_networks():
    # a network below the processor's crossover keeps its compiled index, up to
    # 8 N^3 B (0.16 MB at N = 27); those at or above it keep no index
    yield
    network.cache_clear()


def assert_claim(op, meas_kind: str, claimed: float, rng) -> None:
    # three data states per operator; one above N = 64, where a trial writes
    # a joint state of up to 268 MB
    states = [random_state(op.dim, 1, rng) for _ in range(3 if op.dim <= 64 else 1)]
    for psi, outcome in zip(states, run_experiment(network(op.dim), op, states, meas_kind)):
        assert abs(outcome.probability - claimed) <= TOL * claimed
        assert abs(outcome.probability - predicted_probability(op, psi, meas_kind)) <= TOL
        assert outcome.oracle_fidelity >= 1 - TOL


@CLAIM
@given(st.integers(1, DRAWN_DIM // 2), st.floats(0.1, 1.4), SEEDS)
@example(MAX_DIM // 2, 1.4, 0)
def test_two_term_rotation_gives_one_half_at_every_even_dim(half_dim, theta, seed):
    assert_claim(example2_operator(theta, 2 * half_dim), "support", 0.5, np.random.default_rng(seed))


@CLAIM
@given(st.integers(1, DRAWN_DIM.bit_length() - 1), st.floats(0.1, 1.4), SEEDS)
@example(MAX_DIM.bit_length() - 1, 0.1, 0)
def test_family_gives_two_over_two_to_the_l_plus_two(l, phi, seed):
    assert_claim(family_operator(l, phi), "support", 2 / (2**l + 2), np.random.default_rng(seed))


@CLAIM
@given(st.integers(2, DRAWN_DIM), SEEDS)
@example(MAX_DIM, 0)
def test_haar_unitary_gives_inverse_dim_squared_under_the_full_measurement(dim, seed):
    rng = np.random.default_rng(seed)
    assert_claim(random_unitary(dim, rng), "full", dim**-2, rng)


@CLAIM
@given(st.integers(2, DRAWN_DIM), SEEDS)
@example(MAX_DIM, 0)
def test_haar_unitary_gives_inverse_support_size_under_the_support_measurement(dim, seed):
    rng = np.random.default_rng(seed)
    op = random_unitary(dim, rng)
    support_size = hs_expand(op).support_size()
    # generically every coefficient is in the support
    assert support_size == dim * dim
    assert_claim(op, "support", 1 / support_size, rng)


@pytest.mark.slow
def test_claims_hold_across_the_whole_range_up_to_max_dim():
    # the sweep behind the drawn properties above: every even N for the
    # two-term rotation, every l for the family, and Haar unitaries at the top
    rng = np.random.default_rng(2024)
    for dim in range(2, MAX_DIM + 1, 2):
        assert_claim(example2_operator(0.7, dim), "support", 0.5, rng)
    for l in range(1, MAX_DIM.bit_length()):
        assert_claim(family_operator(l, 0.3), "support", 2 / (2**l + 2), rng)
    for dim in (128, 192, 256):
        op = random_unitary(dim, rng)
        assert_claim(op, "full", dim**-2, rng)
        assert hs_expand(op).support_size() == dim * dim
        assert_claim(op, "support", 1 / (dim * dim), rng)
