import numpy as np
import pytest

from quditproc import random_operator, random_state, random_unitary


def test_random_state_is_normalized():
    rng = np.random.default_rng(5)
    for dim, arity in ((2, 1), (3, 2), (5, 1)):
        s = random_state(dim, arity, rng)
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12


def test_random_state_deterministic_under_seed():
    a = random_state(4, 2, np.random.default_rng(99)).amplitudes
    b = random_state(4, 2, np.random.default_rng(99)).amplitudes
    assert np.array_equal(a, b)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 5, 8):
        assert random_unitary(dim, rng).is_unitary(1e-12)


def test_random_unitary_deterministic_under_seed():
    a = random_unitary(3, np.random.default_rng(42)).entries
    b = random_unitary(3, np.random.default_rng(42)).entries
    assert np.array_equal(a, b)


def reference_random_unitary(dim, rng) -> np.ndarray:
    """The Haar draw written as two draws, a complex sum and a division by sqrt 2."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 64, 127])
def test_random_unitary_equals_the_two_draw_formula_bit_for_bit(dim):
    # one draw of both blocks, scaled into z's parts: the same stream and bits
    for seed in range(30):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_unitary(dim, fast).entries, reference_random_unitary(dim, slow))
        assert fast.bit_generator.state == slow.bit_generator.state


def test_random_operator_nonzero_and_generically_nonunitary():
    rng = np.random.default_rng(11)
    op = random_operator(3, rng)
    assert np.max(np.abs(op.entries)) > 0
    assert not op.is_unitary(1e-6)
