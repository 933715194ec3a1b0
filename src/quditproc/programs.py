"""Turning linear operators into program states.

Any operator A on one qudit expands over the phase-and-shift basis as
A = sum_mn q_mn u(m,n) with q_mn = Tr[u(m,n)† A] / N. The normalized vector of
those coefficients over the Bell basis is the program state that makes the
processor apply A (up to normalization) after a successful program-register
measurement. That vector is a fixed permutation of A's entries, so the
program is one gather of them; the coefficient table is an FFT that the
expansion makes only when something reads it (the support, `describe`).
This module provides the expansion, the program and measurement vectors, and
the named operators that `harness.CATALOG` builds. Every measurement vector
comes from one rule, `_uniform_bell`, over a mask of Bell labels;
`measurement_full(N)` is built once per N and shared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gates import (
    _PER_DIM_CACHE_SIZE,
    BellLabel,
    ShiftDirection,
    _difference_index,
    bell_basis_matrix,
    bell_state,
    conditional_shift,
    conjugate_vector,
    negation_w,
    u_init,
    u_mn,
)
from .registers import (
    DenseOperator,
    QuditRegisterState,
    UnnormalizedVector,
    _kept,
    _locked,
    _Value,
    apply_to_register,
    apply_to_subsystem,
)

# Coefficients below this times the largest magnitude count as zero when
# deciding support membership.
SUPPORT_THRESHOLD = 1e-10

# Smallest normal float64: an operator whose Tr(A†A) is below it has no program.
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

# Labels of the three traceless qubit basis operators (sigma_x, -i sigma_y,
# sigma_z). The fixed qubit reflection/exchange measurement is the uniform
# superposition of these three Bell states.
TRACELESS_QUBIT_LABELS = (BellLabel(0, 1), BellLabel(1, 1), BellLabel(1, 0))


@dataclass(frozen=True, eq=False)
class HsExpansion(_Value):
    """Expansion coefficients q[m, n] of one operator over the u(m,n) basis.

    Made from a table, it checks and keeps the table. Made by `hs_expand`, it
    holds the operator's entries and Tr(A†A) and makes `coeffs` and
    `gram_norm` the first time each is read, through `_kept`. Copies, pickles,
    `repr` and equality read both, so an unread expansion behaves like a read one.
    """

    dim: int
    coeffs: np.ndarray
    gram_norm: float = field(init=False)  # sum |q|^2 = Tr(A†A) / N

    def __post_init__(self):
        q = np.array(self.coeffs, dtype=complex)
        if q.shape != (self.dim, self.dim):
            raise ValueError(f"coefficient array must be {self.dim}x{self.dim}")
        # Neither table has a program state. One pass of |q| serves both checks
        # and the norm: its maximum is NaN or inf when an entry is not finite
        # (or its magnitude overflows), and 0 only when all are zero.
        mags = np.abs(q)
        peak = mags.max()
        if not np.isfinite(peak):
            raise ValueError("expansion coefficients must be finite")
        if peak == 0.0:
            raise ValueError("cannot expand the zero operator")
        object.__setattr__(self, "coeffs", _locked(q))
        object.__setattr__(self, "gram_norm", float(np.sum(mags**2)))

    def __getattr__(self, name):
        # Reached only for a name missing from the instance dict: a field of
        # an unread expansion that `hs_expand` made.
        if name in ("coeffs", "gram_norm") and "_source" in vars(self):
            return _kept(self, name, _table if name == "coeffs" else _gram_norm)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _support_mask(self) -> np.ndarray:
        mags = np.abs(self.coeffs)
        return mags > SUPPORT_THRESHOLD * float(mags.max())

    def support(self) -> tuple[BellLabel, ...]:
        """Labels whose magnitude exceeds SUPPORT_THRESHOLD relative to the largest."""
        # argwhere walks row-major, so labels come in (m, n) order.
        return tuple(map(BellLabel._make, np.argwhere(self._support_mask()).tolist()))

    def support_size(self) -> int:
        """S, the number of labels in `support()`; counted once per expansion."""
        return _kept(self, "_support_size", lambda exp: int(np.count_nonzero(exp._support_mask())))


def hs_expand(op: DenseOperator) -> HsExpansion:
    """Expansion coefficients q_mn = Tr[u(m,n)† A] / N, the table made the first time it is read.

    Tr[u(m,n)† A] = sum_s exp(2 pi i s m / N) A[(s - n) mod N, s], so with
    D[s, n] = A[(s - n) mod N, s] the table is q = ifft(D, axis=0): one FFT
    per column, O(N^2 log N). The program does not read it, so a run under
    the full measurement makes none. The expansion is kept on the operator,
    so every call with the same `op` returns the same HsExpansion. Raises
    ValueError for the zero operator, anything non-finite, and a Tr(A†A)
    that underflows (zero or subnormal) or overflows: none has a program
    state.
    """
    return _kept(op, "_hs_expansion", _expand)


def _expand(op: DenseOperator) -> HsExpansion:
    # The program divides by sqrt(Tr(A†A)), so the sum must be a finite normal
    # float; the entries are read again only to say why it is not.
    with np.errstate(over="ignore", under="ignore"):
        gram = op.gram_trace()
    if not _SMALLEST_NORMAL <= gram < np.inf:
        entries = op.entries
        if not np.isfinite(entries).all():
            raise ValueError("operator entries must be finite")
        if not entries.any():
            raise ValueError("cannot expand the zero operator")
        fault = "overflows" if gram == np.inf else "underflows"
        raise ValueError(f"Tr(A†A) {fault} to {gram!r}; rescale the operator")
    expansion = object.__new__(HsExpansion)
    object.__setattr__(expansion, "dim", op.dim)
    # The entries, not the operator, so that the operator and the expansion
    # kept on it form no reference cycle.
    object.__setattr__(expansion, "_source", (op.entries, gram))
    return expansion


def _table(expansion: HsExpansion) -> np.ndarray:
    entries, _ = expansion._source
    # D[s, n] = A[(s - n) mod N, s] is entry (s, (s - n) mod N) of A's transpose.
    return _locked(np.fft.ifft(entries.T.take(_difference_index(expansion.dim)), axis=0))


def _gram_norm(expansion: HsExpansion) -> float:
    return float(np.sum(np.abs(expansion.coeffs) ** 2))


# Kept as a wrapper because quditbench/workload.py reads `.state` from it.
@dataclass(frozen=True, eq=False)
class ProgramVector(_Value):
    """Normalized two-qudit program state for one operator."""

    state: QuditRegisterState


def program_from_expansion(expansion: HsExpansion) -> ProgramVector:
    """Program state sum_mn q_mn |Xi_mn> / sqrt(sum |q|^2), built once per expansion and kept on it.

    Summing q_mn's definition over m leaves one entry of A in each amplitude:
    (k, j) is A[(j - 2k) mod N, (-k) mod N] / sqrt(Tr(A†A)), the paper's
    (A ⊗ 1)|Xi_00> in this package's sign conventions. So the program is one
    O(N^2) gather of the entries that `hs_expand` keeps, and reads no table.
    An expansion made from a table, a copy included, has no operator to
    gather from: it is a ValueError.
    """
    return _kept(expansion, "_program", _program)


def _program(expansion: HsExpansion) -> ProgramVector:
    source = vars(expansion).get("_source")
    if source is None:
        raise ValueError("only an operator's own expansion, hs_expand(op), has a program")
    entries, gram = source
    amps = entries.take(_program_index(expansion.dim)) * (1 / np.sqrt(gram))
    return ProgramVector(QuditRegisterState(expansion.dim, 2, amps))


@functools.lru_cache(maxsize=_PER_DIM_CACHE_SIZE, typed=True)
def _program_index(dim: int) -> np.ndarray:
    """Read-only int64 table G[k, j] = ((j - 2k) mod N) N + (-k) mod N, built once per N and shared.

    G[k, j] is the flat index of the entry of A that program amplitude (k, j) reads.
    """
    k = np.arange(dim)
    return _locked((k - 2 * k[:, None]) % dim * dim + (-k[:, None]) % dim)


def _uniform_bell(dim: int, mask: np.ndarray) -> QuditRegisterState:
    """sum |Xi_mn> / sqrt(S) over the S labels (m, n) set in the N x N boolean mask.

    The Bell-basis FFT, then each full column (every m set) in its closed form,
    sqrt(N / S) at k = 0 and +0.0 where the FFT leaves round-off that would
    add nonzeros for post-selection to read.
    """
    size = np.count_nonzero(mask)
    if not size:
        raise ValueError("measurement needs at least one Bell label")
    amps = bell_basis_matrix(dim, mask.reshape(-1) / np.sqrt(size))
    # Column n sits at flat indices F[:, n], its k = 0 entry at F[0, n].
    full = _difference_index(dim)[:, mask.all(axis=0)]
    amps[full] = 0.0
    amps[full[0]] = 1 / np.sqrt(size / dim)
    return QuditRegisterState(dim, 2, amps)


@functools.lru_cache(maxsize=_PER_DIM_CACHE_SIZE, typed=True)
def measurement_full(dim: int) -> QuditRegisterState:
    """All N^2 Bell states, weight 1/N each: |0> ⊗ |+> exactly, built once per N and shared."""
    return _uniform_bell(dim, np.ones((dim, dim), dtype=bool))


def measurement_for_labels(dim: int, labels) -> QuditRegisterState:
    """Uniform superposition of the named Bell states, labels taken mod N."""
    labels = [BellLabel(*lab).reduced(dim) for lab in labels]
    mask = np.zeros((dim, dim), dtype=bool)
    mask[[lab.m for lab in labels], [lab.n for lab in labels]] = True
    if np.count_nonzero(mask) != len(labels):
        raise ValueError("duplicate Bell labels in measurement")
    return _uniform_bell(dim, mask)


def measurement_restricted(expansion: HsExpansion) -> QuditRegisterState:
    """Measurement restricted to the expansion's support labels.

    For a unitary operator this boosts the success probability from 1/N^2 to
    1/S, S the support size. A full support (every Haar or Ginibre draw) gives
    the shared `measurement_full(N)`. Kept on the expansion, like its program.
    """
    return _kept(expansion, "_support_measurement", _support_measurement)


def _support_measurement(expansion: HsExpansion) -> QuditRegisterState:
    mask = expansion._support_mask()
    return measurement_full(expansion.dim) if mask.all() else _uniform_bell(expansion.dim, mask)


# --- named operator catalog ------------------------------------------------


def orthogonal_qubit_state(phi: QuditRegisterState) -> QuditRegisterState:
    """The orthogonal partner of a qubit state: (mu, nu) -> (conj nu, -conj mu).

    Any other phase convention for the partner changes the prepared program
    only by a global phase.
    """
    if phi.dim != 2 or phi.arity != 1:
        raise ValueError("expected a single-qubit state")
    mu, nu = phi.amplitudes
    return QuditRegisterState(2, 1, np.array([np.conj(nu), -np.conj(mu)]))


def reflection_operator(phi: QuditRegisterState) -> DenseOperator:
    """1 - 2|phi><phi|: flips the phi component and fixes its complement."""
    if phi.arity != 1:
        raise ValueError("reflection is defined for a single-qudit state")
    mat = np.eye(phi.dim, dtype=complex) - 2.0 * np.outer(phi.amplitudes, phi.amplitudes.conj())
    return DenseOperator(phi.dim, mat, label="reflection")


def exchange_operator(phi: QuditRegisterState) -> DenseOperator:
    """|phi><phi_perp| + |phi_perp><phi| on a qubit: swaps the orthogonal pair."""
    perp = orthogonal_qubit_state(phi)
    mat = np.outer(phi.amplitudes, perp.amplitudes.conj()) + np.outer(
        perp.amplitudes, phi.amplitudes.conj()
    )
    return DenseOperator(2, mat, label="exchange")


def family_operator(l: int, phi_angle: float) -> DenseOperator:
    """One-parameter rotation on l qubits generated by sigma_z on the leading qubit.

    cos(phi) 1 + i sin(phi) (sigma_z ⊗ 1^{l-1}), diagonal in the computational
    basis. The diagonal members of the u(m,n) basis are the n = 0 labels (the
    phase index comes first); the generator expands over odd-m diagonals only,
    so the support has size 1 + 2^{l-1} and the success probability under the
    restricted measurement is 2 / (2^l + 2).
    """
    if l < 1:
        raise ValueError(f"need at least one qubit, got l={l}")
    n = 2**l
    generator = np.kron(np.diag([1.0, -1.0]), np.eye(n // 2))
    mat = np.cos(phi_angle) * np.eye(n) + 1j * np.sin(phi_angle) * generator
    return DenseOperator(n, mat.astype(complex), label=f"family(l={l})")


def example1_operator(phi_angle: float) -> DenseOperator:
    """The two-qubit member of the family: diag(e^{i phi}, e^{i phi}, e^{-i phi}, e^{-i phi})."""
    op = family_operator(2, phi_angle)
    return DenseOperator(4, op.entries, label="example1")


def example2_operator(theta: float, dim: int) -> DenseOperator:
    """cos(theta) 1 + i sin(theta) u(0, N/2) for even N.

    The half shift u(0, N/2) is self-adjoint, so this is unitary for every
    theta; its two-term support makes the restricted success probability 1/2
    at every even dimension.
    """
    if dim % 2 != 0:
        raise ValueError(f"the half-shift rotation needs an even dimension, got {dim}")
    half = u_mn(dim, (0, dim // 2)).entries
    mat = np.cos(theta) * np.eye(dim) + 1j * np.sin(theta) * half
    return DenseOperator(dim, mat.astype(complex), label="example2")


# --- named program constructors ---------------------------------------------


def reflection_program_factored(phi: QuditRegisterState) -> QuditRegisterState:
    """Reflection program built by circuit instead of by expansion.

    Starts from |Xi_00> - (2/sqrt N)|phi*>|phi>, shifts the second qudit down
    twice under control of the first, then negates the first. Equivalent to
    program_from_expansion(hs_expand(reflection_operator(phi))).state; the
    input state is simpler to prepare.
    """
    if phi.arity != 1:
        raise ValueError("reflection is defined for a single-qudit state")
    n = phi.dim
    star = conjugate_vector(phi)
    raw = bell_state(n, (0, 0)).amplitudes - (2.0 / np.sqrt(n)) * np.kron(
        star.amplitudes, phi.amplitudes
    )
    vec = UnnormalizedVector(n, 2, raw).normalized()
    vec = conditional_shift(vec, 1, 2, ShiftDirection.BACKWARD)
    vec = conditional_shift(vec, 1, 2, ShiftDirection.BACKWARD)
    return apply_to_subsystem(negation_w(n), 1, vec).normalized()


def _prepare_pair_program(pair: np.ndarray) -> QuditRegisterState:
    """The preparation gate applied to the two-qubit pair state `pair` / sqrt 2."""
    staged = QuditRegisterState(2, 2, pair / np.sqrt(2))
    return apply_to_register(u_init(), staged).normalized()


def prepare_reflection_program(phi: QuditRegisterState) -> QuditRegisterState:
    """Qubit reflection program prepared from the symmetric pair state.

    Applies the preparation gate to (|phi>|phi_perp> + |phi_perp>|phi>)/sqrt 2;
    equals program_from_expansion(hs_expand(reflection_operator(phi))).state.
    """
    perp = orthogonal_qubit_state(phi)
    return _prepare_pair_program(
        np.kron(phi.amplitudes, perp.amplitudes) + np.kron(perp.amplitudes, phi.amplitudes)
    )


def prepare_exchange_program(phi: QuditRegisterState) -> QuditRegisterState:
    """Qubit exchange program prepared from the difference pair state.

    Same preparation gate applied to (|phi>|phi> - |phi_perp>|phi_perp>)/sqrt 2;
    equals program_from_expansion(hs_expand(exchange_operator(phi))).state.
    """
    perp = orthogonal_qubit_state(phi)
    return _prepare_pair_program(
        np.kron(phi.amplitudes, phi.amplitudes) - np.kron(perp.amplitudes, perp.amplitudes)
    )
