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


def reference_shift(amplitudes, dim: int, arity: int, control: int, target: int, sign: int) -> np.ndarray:
    """Reference conditional shift as one gather: output digit m on the target
    reads input digit (m - sign*k) mod N, k the control digit (1-based subsystems)."""
    digits = np.arange(dim)
    ctrl = digits.reshape([dim if ax == control - 1 else 1 for ax in range(arity)])
    tgt = digits.reshape([dim if ax == target - 1 else 1 for ax in range(arity)])
    cube = np.take_along_axis(
        np.asarray(amplitudes).reshape((dim,) * arity), (tgt - sign * ctrl) % dim, axis=target - 1
    )
    return cube.reshape(-1)
