import numpy as np
import pytest

from quditproc import random_operator, random_state, random_unitary, sampling


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


def assert_equals_the_reference(dim, seeds):
    # one draw of both blocks, factored by zgeqrf and zungqr: the stream and bits
    # of the two-draw formula through np.linalg.qr
    for seed in seeds:
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        entries = random_unitary(dim, fast).entries
        assert np.array_equal(entries, reference_random_unitary(dim, slow))
        assert fast.bit_generator.state == slow.bit_generator.state
        assert entries.flags.c_contiguous and not entries.flags.writeable


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 64, 127, 128, 256])
def test_random_unitary_equals_the_two_draw_formula_bit_for_bit(dim):
    assert_equals_the_reference(dim, range(30 if dim < 128 else 5))


@pytest.mark.slow
def test_random_unitary_equals_the_two_draw_formula_bit_for_bit_at_n1024():
    assert_equals_the_reference(1024, range(3))


@pytest.mark.parametrize("routine", ["zgeqrf", "zungqr"])
@pytest.mark.parametrize("query", [True, False], ids=["work-size-query", "factorization"])
def test_a_nonzero_lapack_info_raises_linalg_error(monkeypatch, routine, query):
    binding = getattr(sampling.lapack_lite, routine)

    def failing(*args):
        result = binding(*args)
        if (args[-2] == -1) == query:
            result["info"] = -4
        return result

    failing.__name__ = routine
    monkeypatch.setattr(sampling.lapack_lite, routine, failing)
    with pytest.raises(np.linalg.LinAlgError, match=f"LAPACK {routine} returned info = -4"):
        random_unitary(8, np.random.default_rng(0))


def test_random_operator_nonzero_and_generically_nonunitary():
    rng = np.random.default_rng(11)
    op = random_operator(3, rng)
    assert np.max(np.abs(op.entries)) > 0
    assert not op.is_unitary(1e-6)
