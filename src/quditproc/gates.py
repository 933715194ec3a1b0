"""The fixed gate set: conditional shifts, the entangled two-qudit program
basis, the phase-and-shift operator basis it diagonalizes, and the small
auxiliary gates used to prepare program states."""

from __future__ import annotations

import functools
from enum import Enum
from typing import NamedTuple

import numpy as np

from .registers import DenseOperator, QuditRegisterState, _adopt, _locked


class ShiftDirection(Enum):
    """Whether the target digit gains or loses the control digit (mod N)."""

    FORWARD = "forward"
    BACKWARD = "backward"


class BellLabel(NamedTuple):
    """Label pair (m, n): m indexes the phase winding, n the shift offset."""

    m: int
    n: int

    def reduced(self, dim: int) -> "BellLabel":
        return BellLabel(self.m % dim, self.n % dim)


def _check_gate(control: int, target: int, direction, arity: int) -> None:
    """The gate rule: a ShiftDirection between two distinct subsystems in 1..arity."""
    if not isinstance(direction, ShiftDirection):
        raise TypeError(f"direction must be a ShiftDirection, got {direction!r}")
    if control == target or not (1 <= control <= arity and 1 <= target <= arity):
        raise ValueError(f"gate ({control}, {target}) needs two distinct subsystems in 1..{arity}")


def conditional_shift(state, control: int, target: int, direction: ShiftDirection):
    """Conditional shift |k>_c |m>_t -> |k>_c |(m ± k) mod N>_t.

    The qudit generalization of controlled-NOT: FORWARD adds the control digit
    to the target digit, BACKWARD subtracts it. At dim 2 the two directions
    coincide. N and the arity are the register's. The gate is a permutation, so
    the register type (normalized or not) and the amplitudes' dtype are kept.
    `direction` is a ShiftDirection.

    The only allocation is the output, filled with two block copies per control
    digit k: a roll of the target by ±k, split where it wraps round N.
    """
    _check_gate(control, target, direction, state.arity)
    dim, arity = state.dim, state.arity
    sign = 1 if direction is ShiftDirection.FORWARD else -1
    cube = state.amplitudes.reshape((dim,) * arity)
    out = np.empty_like(cube)
    c, t = control - 1, target - 1
    # Control first, target last: output digit m on the target reads input
    # digit (m ∓ k) mod N.
    order = (c, *(ax for ax in range(arity) if ax != c and ax != t), t)
    src, dst = cube.transpose(order), out.transpose(order)
    for k in range(dim):
        r = sign * k % dim
        dst[k, ..., r:] = src[k, ..., : dim - r]
        dst[k, ..., :r] = src[k, ..., dim - r :]
    return _adopt(type(state), dim, arity, out.reshape(-1))


def bell_state(dim: int, label) -> QuditRegisterState:
    """Maximally entangled two-qudit state for the given label.

    |Xi_mn> = N^{-1/2} sum_k exp(2 pi i m k / N) |k> |(k - n) mod N>.
    The N^2 of them form an orthonormal basis of the two-qudit space.
    """
    m, n = BellLabel(*label).reduced(dim)
    amps = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        amps[k * dim + (k - n) % dim] = np.exp(2j * np.pi * m * k / dim)
    return QuditRegisterState(dim, 2, amps / np.sqrt(dim))


def u_mn(dim: int, label) -> DenseOperator:
    """Phase-and-shift basis operator: |s> -> exp(-2 pi i s m / N) |(s - n) mod N>.

    n = 0 gives the diagonal (pure phase) operators, m = 0 the pure shifts;
    note the sign conventions differ between this phase and the one in
    bell_state. The N^2 operators are orthogonal under the trace inner
    product, each with norm N.
    """
    m, n = BellLabel(*label).reduced(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        mat[(s - n) % dim, s] = np.exp(-2j * np.pi * s * m / dim)
    return DenseOperator(dim, mat, label=f"u({m},{n})")


# Literal table, deliberately not computed from u_mn: tests cross-check the
# two constructions against sign-convention drift.
_PAULI_TABLE = {
    (0, 0): ((1, 0), (0, 1)),
    (0, 1): ((0, 1), (1, 0)),
    (1, 0): ((1, 0), (0, -1)),
    (1, 1): ((0, -1), (1, 0)),
}


def pauli_s(j: int, k: int) -> DenseOperator:
    """Qubit operator table: S00 = 1, S01 = sigma_x, S10 = sigma_z, S11 = -i sigma_y."""
    if (j, k) not in _PAULI_TABLE:
        raise ValueError(f"indices must be bits, got ({j}, {k})")
    return DenseOperator(2, np.array(_PAULI_TABLE[(j, k)], dtype=complex), label=f"S{j}{k}")


_U_INIT = np.array(
    [
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, 0, -1, 0],
    ],
    dtype=complex,
)


def u_init() -> DenseOperator:
    """Two-qubit program preparation gate (a signed permutation).

    Column action: |00> -> -|10>, |01> -> |00>, |10> -> -|11>, |11> -> |01>.
    Applied to the symmetric or antisymmetric pair states it produces the
    reflection and exchange program vectors.
    """
    return DenseOperator(4, _U_INIT, label="u_init")


def negation_w(dim: int) -> DenseOperator:
    """Index negation W|k> = |(-k) mod N>; a self-inverse permutation."""
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        mat[(-k) % dim, k] = 1.0
    return DenseOperator(dim, mat, label="W")


def conjugate_vector(v: QuditRegisterState) -> QuditRegisterState:
    """Entrywise complex conjugate of a single-qudit state in the computational basis."""
    if v.arity != 1:
        raise ValueError("conjugate_vector expects a single-qudit state")
    return QuditRegisterState(v.dim, 1, v.amplitudes.conj())


# Entries kept by each per-dimension cache (`_difference_index` here,
# `programs.measurement_full`). A traced `paper-claims` run touches nine
# dimensions (2-8, 16, 32, 64), so 16 never evicts there; a sweep over more
# dimensions recomputes as if uncached. At MAX_DIM = 256 an entry is 0.5 MiB
# here and 1 MiB in `measurement_full`, plus 0.5 MiB for the index that a
# post-selection through the qudit network keeps on the measurement: 32 MiB
# for both caches full.
_PER_DIM_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_PER_DIM_CACHE_SIZE, typed=True)
def _difference_index(dim: int) -> np.ndarray:
    """Read-only int64 table F[i, j] = i N + (i - j) mod N, built once per N and shared.

    F[i, j] is the flat index of entry (i, (i - j) mod N) of an N x N array,
    so one `take` by F is the gather of both N^2 FFT layouts:
    `bell_basis_matrix` reads column n = (k - j) mod N of row k, and
    `programs.hs_expand` reads A[(s - n) mod N, s], which is that entry of
    the transpose. A flat `take` at N = 64 runs in a quarter of the time of
    the same gather by two broadcast index arrays.
    """
    k = np.arange(dim)
    return _locked(k[:, None] * dim + (k[:, None] - k) % dim)


def bell_basis_matrix(dim: int, weights) -> np.ndarray:
    """Amplitudes of sum_mn w[m*N + n] |Xi_mn>, the Bell basis applied to N^2 weights.

    That is the product with the unitary whose column m*N + n is
    bell_state(N, (m, n)). Amplitude (k, (k - n) mod N) of the sum is
    N^{-1/2} sum_m w_mn exp(2 pi i m k / N), which is
    sqrt(N) ifft(w as N x N, axis=0)[k, n]: O(N^2 log N) time, O(N^2) memory,
    with no N^2 x N^2 matrix.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (dim * dim,):
        raise ValueError(f"Bell weights must have shape ({dim * dim},), got {w.shape}")
    cols = np.sqrt(dim) * np.fft.ifft(w.reshape(dim, dim), axis=0)
    # amps[k, j] holds column n = (k - j) mod N of row k.
    return cols.take(_difference_index(dim)).reshape(-1)
