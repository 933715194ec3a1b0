"""The fixed processor circuits that route a program register onto data.

A shift network is a `GateArray` (dimension, data width, conditional shifts),
built by the qudit network, the qubit CNOT network or the l-qubit tensor
array. Every gate is a transvection of the joint digits, so an array is one
affine map of them, x -> G x (mod N), and G^-1 is composed from the gates once
per value. It runs one of two ways, chosen by width and dimension:

- a one-data-qudit array from N = 9 (`_DEFERRED_MIN_DIM`) returns a deferred
  output (`registers._deferred`), whose amplitudes nothing makes until they
  are read. Output (d, a, b) is
  ψ[G^-1[0]·(d, a, b)] · P[G^-1[1]·(d, a, b), G^-1[2]·(d, a, b)] (mod N).
  A post-selection of the unread output against a bra M on the program
  register never makes it: a successful measurement leaves the data acted on
  by one N x N map, K = (1 ⊗ <M|) U (1 ⊗ |P>), and the overlap is K ψ. K is
  built from G^-1, P's amplitudes and M's nonzero labels (`_success_map`),
  O(N nnz) for nnz nonzero amplitudes in M, and kept on the program in one
  slot for the last (network, bra) it served, so a stored program costs one
  N x N matvec per data state. It is the whole network, not a second path
  for one gate. Reading `.amplitudes` makes the whole output through the
  same index as K's build, all N^2 labels N at a time (`_whole_read`);
- any other array (the qudit network at N <= 8, the CNOT network, the tensor
  array) is compiled once per value by running its gates through
  `conditional_shift` on the int64 index ramp, and the index is kept on the
  value; each run is then one eager gather of `tensor(data, program)`, the
  reference the tests hold the deferred one to.

The general diagonal form sum_n V_n ⊗ |y_n><y_n| is applied to programs in
the span of its basis. `processor_matrix` materializes either as a
joint-space matrix for cross-checks at small dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .gates import ShiftDirection, _check_gate, conditional_shift
from .registers import (
    DenseOperator,
    QuditRegisterState,
    UnnormalizedVector,
    _adopt,
    _adopt_checked,
    _deferred,
    _kept,
    _locked,
    _Value,
    inner_product,
    tensor,
)

_F = ShiftDirection.FORWARD
_B = ShiftDirection.BACKWARD

# A one-data-qudit array defers its output from this dimension on; every other
# array gathers. Below it the qudit network gathers, so that `paper-claims`
# (every row at N <= 8) keeps its bytes, which the success map's overlap would
# move in the last ulp, and so that the traced benchmark run still reaches
# `registers.tensor` and `gates.conditional_shift`. There a fresh program
# also costs more through its success map than through the gather (25-30 µs
# against 21-25 µs per call at N = 2, 4 and 8, one BLAS thread).
_DEFERRED_MIN_DIM = 9


def _single_processor_gates(data_q: int, p1: int, p2: int, backward: bool):
    # Application order of the four conditional shifts; the third gate is the
    # only one whose direction distinguishes the qudit and qubit variants.
    return (
        (data_q, p1, _F),
        (data_q, p2, _F),
        (p1, data_q, _B if backward else _F),
        (p2, data_q, _F),
    )


@dataclass(frozen=True)
class GateArray(_Value):
    """A fixed array of conditional shifts on `width` data and 2·`width` program qudits.

    The joint register is the data qudits followed by the program qudits;
    `gates` holds the (control, target, direction) shifts in application order,
    on distinct 1-based subsystems. Hashable fields: it keeps the dataclass `==` and hash.
    """

    dim: int
    width: int
    gates: tuple

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.dim}")
        if self.width < 1:
            raise ValueError(f"need at least one data qudit, got width {self.width}")
        for control, target, direction in self.gates:
            _check_gate(control, target, direction, 3 * self.width)


class QuditShiftNetwork(GateArray):
    """Four conditional shifts on one data qudit and a two-qudit program."""

    def __init__(self, dim: int):
        super().__init__(dim, 1, _single_processor_gates(1, 2, 3, backward=True))


class QubitCnotNetwork(GateArray):
    """The qubit special case: four CNOTs (both shift directions agree at dim 2)."""

    def __init__(self):
        super().__init__(2, 1, _single_processor_gates(1, 2, 3, backward=False))


class TensorQubitArray(GateArray):
    """l independent single-qubit processors, one per data qubit."""

    def __init__(self, l: int):
        gates = tuple(
            gate
            for m in range(1, l + 1)
            for gate in _single_processor_gates(m, l + 2 * m - 1, l + 2 * m, backward=False)
        )
        super().__init__(2, l, gates)


@dataclass(frozen=True, eq=False)
class GeneralDiagonal(_Value):
    """Processor of the form sum_n V_n ⊗ |y_n><y_n|.

    The V_n must be unitary on the data qudit and the program basis vectors
    y_n pairwise orthonormal; programs are restricted to span{y_n}.
    """

    operators: tuple[DenseOperator, ...]
    basis: tuple[QuditRegisterState, ...]

    def __post_init__(self):
        if not self.operators:
            raise ValueError("GeneralDiagonal needs at least one operator")
        if len(self.operators) != len(self.basis):
            raise ValueError(
                f"{len(self.operators)} operators but {len(self.basis)} program basis vectors"
            )
        dim = self.operators[0].dim
        arity = self.basis[0].arity
        for op in self.operators:
            if op.dim != dim:
                raise ValueError("all operators must share one dimension")
            if not op.is_unitary(1e-10):
                raise ValueError("GeneralDiagonal operators must be unitary")
        for y in self.basis:
            if y.dim != dim or y.arity != arity:
                raise ValueError("program basis vectors must share shape and dimension")
        gram = np.array(
            [[inner_product(a, b) for b in self.basis] for a in self.basis]
        )
        if np.max(np.abs(gram - np.eye(len(self.basis)))) > 1e-10:
            raise ValueError("program basis vectors are not orthonormal")


ProcessorSpec = GateArray | GeneralDiagonal


def _source_index(spec: GateArray) -> np.ndarray:
    """Joint index that each output amplitude of the gate array is read from.

    The gates only move amplitudes, so running them on the int64 ramp
    0, 1, ..., N^k - 1 yields the permutation itself: the last ramp is the
    index. Rebinding `ramp` frees each gate's input once its output exists, so
    at most two ramps are alive.
    """
    arity = 3 * spec.width
    # A permutation of a fresh ramp: wrapped without the constructor's complex copy.
    ramp = _adopt(UnnormalizedVector, spec.dim, arity, np.arange(spec.dim**arity, dtype=np.int64))
    for control, target, direction in spec.gates:
        ramp = conditional_shift(ramp, control, target, direction)
    return ramp.amplitudes


def _compiled(spec: GateArray) -> np.ndarray:
    """`spec`'s source index, computed on first use and kept on the value (8 N^k bytes)."""
    return _kept(spec, "_source_index", _source_index)


def _compose_inverse(spec: GateArray) -> tuple:
    """G^-1, the integer matrix whose row i gives input digit i of each output digit vector.

    A gate (c, t, ±) is the transvection x_t -> x_t ± x_c, the matrix I ± E_tc,
    whose inverse is I ∓ E_tc. The array is G = G_k ... G_1, so G^-1 is
    G_1^-1 ... G_k^-1: each right factor subtracts ± column t from column c.
    Output amplitude y reads input amplitude G^-1 y (mod N). Rows of Python
    ints, so a long gate list cannot overflow.
    """
    arity = 3 * spec.width
    rows = [[int(i == j) for j in range(arity)] for i in range(arity)]
    for control, target, direction in spec.gates:
        sign = 1 if direction is _F else -1
        for row in rows:
            row[control - 1] -= sign * row[target - 1]
    return tuple(map(tuple, rows))


def _inverse(spec: GateArray) -> tuple:
    """(G^-1, the name a bra keeps its index into this array's K under), kept on the value."""
    return _kept(spec, "_inverse", lambda spec: (inverse := _compose_inverse(spec), f"_label_index_{inverse}"))


# A bra with at most this many times N nonzero amplitudes keeps the index
# that `_success_map` reads it through (see `_label_chunks`).
_KEPT_LABELS_PER_N = 2


def _label_index(inverse: tuple, dim: int, labels: np.ndarray) -> tuple:
    """Where each (output digit d, bra label (a, b)) adds to K, and which P amplitude it reads.

    Output (d, a, b) reads ψ[g_0·(d, a, b)] and P[g_1·(d, a, b), g_2·(d, a, b)]
    (mod N), g_i the rows of G^-1, so label (a, b) adds
    conj M[a, b] · P[g_1·(d, a, b), g_2·(d, a, b)] to K[d, g_0·(d, a, b)].
    Returns the flat K indices and the flat P indices, both (N, len(labels))
    in C order, int32 while N^2 fits.
    """
    a, b = np.divmod(labels, dim)
    d = np.arange(dim)[:, None]
    e, row, col = (((g0 % dim) * d + (g1 % dim) * a + (g2 % dim) * b) % dim for g0, g1, g2 in inverse)
    dtype = np.int32 if dim * dim <= np.iinfo(np.int32).max else np.int64
    return _locked((d * dim + e).astype(dtype).reshape(-1)), _locked((row * dim + col).astype(dtype))


def _whole_read(spec: GateArray, data: QuditRegisterState, program: QuditRegisterState) -> np.ndarray:
    """The whole output of a width-1 array, read N bra labels (a, b) at a time.

    Output (d, a, b) is ψ[e] · P[row, col], read through the index that
    `_label_index` gives K's build: K's flat index d N + e of ψ tiled N times
    is ψ[e], and its P index is row N + col. Each chunk's working memory is
    O(N^2); the C-ordered output is the only joint-sized allocation.
    """
    dim, (inverse, _) = spec.dim, _inverse(spec)
    psi, amps = np.tile(data.amplitudes, dim), program.amplitudes
    out = np.empty((dim, dim * dim), dtype=complex)
    for lo in range(0, dim * dim, dim):
        k_index, p_index = _label_index(inverse, dim, np.arange(lo, lo + dim))
        np.multiply(psi.take(k_index).reshape(dim, dim), amps.take(p_index), out=out[:, lo : lo + dim])
    return out.reshape(-1)


def _label_chunks(spec: GateArray, bra: QuditRegisterState):
    """(K indices, P indices, conj M) of the bra's nonzero labels, N labels at a time.

    A chunk holds 2 N^2 indices, so a build's transient memory is O(N^2)
    whatever the bra. A bra of at most 2 N nonzeros, such as every measurement
    of a paper example, keeps its chunks under a name that carries G^-1: at
    most 16 N^2 bytes (1 MiB at N = 256), made once per (G^-1, bra value),
    which the shared `measurement_full(N)` holds once per N. A denser bra
    makes each chunk anew on each build.
    """
    dim, (inverse, name) = spec.dim, _inverse(spec)
    if name in vars(bra):
        return vars(bra)[name]
    (labels,) = bra.amplitudes.nonzero()
    weights = _locked(bra.amplitudes[labels].conj())
    chunks = (
        (*_label_index(inverse, dim, labels[lo : lo + dim]), weights[lo : lo + dim])
        for lo in range(0, labels.size, dim)
    )
    if labels.size > _KEPT_LABELS_PER_N * dim:
        return chunks
    return _kept(bra, name, lambda _: tuple(chunks))


def _build_success_map(spec: GateArray, program: QuditRegisterState, bra: QuditRegisterState) -> np.ndarray:
    amps = program.amplitudes
    k = np.zeros(spec.dim**2, dtype=complex)
    for k_index, p_index, weights in _label_chunks(spec, bra):
        terms = amps.take(p_index)
        terms *= weights
        np.add.at(k, k_index, terms.reshape(-1))
    return _locked(k.reshape(spec.dim, spec.dim))


def _success_map(spec: GateArray, program: QuditRegisterState, bra: QuditRegisterState) -> np.ndarray:
    """K = (1 ⊗ <bra|) U (1 ⊗ |P>), the N x N map a successful post-selection applies to ψ.

    Built from G^-1, P's amplitudes and the bra's nonzero labels, never from
    an expansion, in O(N nnz) time and 16 N^2 bytes. The program keeps it in
    one slot, with the network and the bra it was built for: a run with an
    equal network and the same bra object reuses it, any other pair replaces
    it. The slot holds the bra, so its identity cannot be taken by another
    value; racing threads may each build K, to the same bits.
    """
    slot = vars(program).get("_success_map")
    if slot is None or slot[1] is not bra or (slot[0] is not spec and slot[0] != spec):
        slot = (spec, bra, _build_success_map(spec, program, bra))
        vars(program)["_success_map"] = slot
    return slot[2]


def _project(spec: GateArray, data: QuditRegisterState, program: QuditRegisterState, bra) -> np.ndarray:
    # <bra| on the program register of the unread output: K ψ.
    return _success_map(spec, program, bra) @ data.amplitudes


def apply_processor(spec: ProcessorSpec, data: QuditRegisterState, program: QuditRegisterState) -> QuditRegisterState:
    """Run the fixed circuit on data ⊗ program and return the joint output.

    A one-data-qudit shift network from N = 9 returns a deferred output: a
    post-selection of it on the program register is K ψ (`_success_map`),
    with K kept on the program, and its amplitudes, if read, are made N bra
    labels at a time (`_whole_read`). Any other shift network runs at once as
    `tensor` and one gather by its permutation, which the first call on each
    `GateArray` value compiles and keeps on the value.
    Gate order for the shift networks: data controls shifts onto both program
    qudits, then each program qudit shifts the data back (the first of those
    two in the subtracting direction for the qudit variant). Data or a
    program that is not a `QuditRegisterState` is a TypeError.
    """
    if not (isinstance(data, QuditRegisterState) and isinstance(program, QuditRegisterState)):
        raise TypeError("the data and the program must be QuditRegisterStates")
    if isinstance(spec, GeneralDiagonal):
        return _general_diagonal_apply(spec, data, program)
    if not isinstance(spec, GateArray):
        raise TypeError(f"unknown processor spec: {spec!r}")
    if (data.dim, data.arity, program.dim, program.arity) != (spec.dim, spec.width, spec.dim, 2 * spec.width):
        raise ValueError(
            f"processor needs {spec.width} data and {2 * spec.width} program qudit(s) of dimension {spec.dim}, "
            f"got {data.arity} and {program.arity} of dimension {data.dim} and {program.dim}"
        )
    # Either way a permutation of the checked product state: it keeps its norm.
    if spec.width == 1 and spec.dim >= _DEFERRED_MIN_DIM:
        return _deferred(
            QuditRegisterState,
            spec.dim,
            3,
            partial(_whole_read, spec, data, program),
            partial(_project, spec, data, program),
        )
    out = tensor(data, program).amplitudes[_compiled(spec)]
    return _adopt(QuditRegisterState, spec.dim, 3 * spec.width, out)


def _general_diagonal_apply(
    spec: GeneralDiagonal, data: QuditRegisterState, program: QuditRegisterState
) -> QuditRegisterState:
    y0 = spec.basis[0]
    if data.arity != 1 or data.dim != spec.operators[0].dim:
        raise ValueError(f"data register must be one qudit of dimension {spec.operators[0].dim}")
    if (program.dim, program.arity) != (y0.dim, y0.arity):
        raise ValueError("program register shape mismatch with processor basis")
    coeffs = np.array([inner_product(y, program) for y in spec.basis])
    outside = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    if outside > 1e-10:
        raise ValueError(
            f"program has weight {outside:.3e} outside the processor's program basis"
        )
    out = np.zeros(data.amplitudes.size * program.amplitudes.size, dtype=complex)
    for c, op, y in zip(coeffs, spec.operators, spec.basis):
        out += c * np.kron(op.entries @ data.amplitudes, y.amplitudes)
    # Renormalize away the (bounded) float residue outside the span.
    return _adopt_checked(UnnormalizedVector, data.dim, data.arity + program.arity, out).normalized()


def qubit_network_matches_shift_network(dim: int = 2) -> bool:
    """Whether the all-forward circuit is the same permutation as the mixed-direction one.

    Two integer matrices give the same permutation of Z_N^3 exactly when they
    agree mod N, so this compares the two G^-1. True exactly at dim 2, where
    adding and subtracting mod 2 coincide.
    """
    forward, _ = _inverse(GateArray(dim, 1, QubitCnotNetwork().gates))
    mixed, _ = _inverse(QuditShiftNetwork(dim))
    return all((f - m) % dim == 0 for rf, rm in zip(forward, mixed) for f, m in zip(rf, rm))


def processor_matrix(spec: ProcessorSpec) -> np.ndarray:
    """Materialize the processor as a joint-space matrix (debug path).

    A shift network is a permutation: the identity with its rows taken in
    source-index order. The general diagonal form is built from its definition
    sum_n V_n ⊗ |y_n><y_n|. Intended for cross-checks at small dimension.
    """
    if isinstance(spec, GeneralDiagonal):
        return sum(
            np.kron(op.entries, np.outer(y.amplitudes, y.amplitudes.conj()))
            for op, y in zip(spec.operators, spec.basis)
        )
    if not isinstance(spec, GateArray):
        raise TypeError(f"unknown processor spec: {spec!r}")
    source = _compiled(spec)
    return np.eye(source.size, dtype=complex)[source]
