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
    basis_state,
    example2_operator,
    family_operator,
    hs_expand,
    measurement_restricted,
    predicted_probability,
    random_state,
    random_unitary,
    reflection_operator,
    run_experiment,
)
from quditproc.harness import MAX_DIM

TOL = 1e-10
CLAIM = settings(derandomize=True, max_examples=20, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
# Drawn N go up to here, l up to 7; each property's explicit example is the
# largest case, N = MAX_DIM or l = 8, and the Haar properties add N = 255,
# the largest N not of the form 2^a 3^b. This file then takes 2.5-2.6 s on a
# 2-core Xeon.
DRAWN_DIM = 192


@functools.cache
def network(dim: int) -> QuditShiftNetwork:
    # one network per N, so each N below the crossover compiles its gate array once
    return QuditShiftNetwork(dim)


@pytest.fixture(scope="module", autouse=True)
def _drop_networks():
    # a network below the processor's crossover keeps its compiled index, up to
    # 8 N^3 B (4 KB at N = 8); those at or above it, from N = 9, keep no index
    yield
    network.cache_clear()


def assert_claim(op, meas_kind: str, claimed: float, rng) -> None:
    # three data states per operator, which share its program; one above
    # N = 64, where each post-selects N^2 products
    for _ in range(3 if op.dim <= 64 else 1):
        psi = random_state(op.dim, 1, rng)
        outcome = run_experiment(network(op.dim), op, psi, meas_kind)
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
@example(255, 0)
def test_haar_unitary_gives_inverse_dim_squared_under_the_full_measurement(dim, seed):
    rng = np.random.default_rng(seed)
    assert_claim(random_unitary(dim, rng), "full", dim**-2, rng)


@CLAIM
@given(st.integers(2, DRAWN_DIM), SEEDS)
@example(MAX_DIM, 0)
@example(255, 0)
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
    # two-term rotation, every N for the reflection about |1>, every l for the
    # family, and Haar unitaries at the top, of the form 2^a 3^b (128, 192,
    # 256) or not (127, 251, 255)
    rng = np.random.default_rng(2024)
    for dim in range(2, MAX_DIM + 1, 2):
        assert_claim(example2_operator(0.7, dim), "support", 0.5, rng)
    for dim in range(3, MAX_DIM + 1):
        # its support is the whole column n = 0, S = N, so its bra is one
        # closed-form entry; FFT round-off there would span up to N^2 columns
        op = reflection_operator(basis_state(dim, 1, [1]))
        assert hs_expand(op).support_size() == dim
        assert np.count_nonzero(measurement_restricted(hs_expand(op)).amplitudes) == 1
        assert_claim(op, "support", 1 / dim, rng)
    for l in range(1, MAX_DIM.bit_length()):
        assert_claim(family_operator(l, 0.3), "support", 2 / (2**l + 2), rng)
    for dim in (127, 128, 192, 251, 255, 256):
        op = random_unitary(dim, rng)
        assert_claim(op, "full", dim**-2, rng)
        assert hs_expand(op).support_size() == dim * dim
        assert_claim(op, "support", 1 / (dim * dim), rng)
