import numpy as np
import pytest

from quditproc import u_mn


@pytest.fixture
def rng():
    return np.random.default_rng(271828)


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def index_to_digits(index: int, dim: int, arity: int) -> tuple[int, ...]:
    """Big-endian base-`dim` digits of a flat index, `arity` digits long."""
    digits = []
    for _ in range(arity):
        index, d = divmod(index, dim)
        digits.append(d)
    return tuple(reversed(digits))


def reconstruct(expansion) -> np.ndarray:
    """Reference inverse of hs_expand: sum_mn q_mn u(m,n), one basis operator at a time."""
    dim = expansion.dim
    total = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            total += expansion.coeffs[m, n] * u_mn(dim, (m, n)).entries
    return total
