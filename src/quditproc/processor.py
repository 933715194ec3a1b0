"""The fixed processor circuits that route a program register onto data.

A shift network is a `GateArray` (dimension, data width, conditional shifts),
built by the qudit network, the qubit CNOT network or the l-qubit tensor
array. Every gate is a transvection of the joint digits, so an array is one
affine map of them, x -> G x (mod N), and G^-1 is composed from the gates once
per value. It runs one of two ways, chosen by size:

- a one-data-qudit array with at least `_STRIDED_MIN_SIZE` joint amplitudes
  is the whole network as one product of two strided views of tiled copies
  of data and program (`_strided_run`): output (d, a, b) reads
  ψ[G^-1[0]·(d, a, b)] · P[G^-1[1]·(d, a, b), G^-1[2]·(d, a, b)], and that
  product is its only joint-sized allocation. It is the whole network at
  large N, not a second path for one gate: `conditional_shift` keeps its
  one path of block copies, since its sheared strided views were deleted;
- any other array is compiled once per value by running its gates through
  `conditional_shift` on the int64 index ramp, and the index is kept on the
  value; each run is then one gather of `tensor(data, program)`. This path is
  faster on small registers and is the reference the tests hold the strided
  one to.

The general diagonal form sum_n V_n ⊗ |y_n><y_n| is applied to programs in
the span of its basis. `processor_matrix` materializes either as a
joint-space matrix for cross-checks at small dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import ShiftDirection, _check_gate, conditional_shift
from .registers import (
    DenseOperator,
    QuditRegisterState,
    UnnormalizedVector,
    _adopt,
    _kept,
    inner_product,
    tensor,
)

_F = ShiftDirection.FORWARD
_B = ShiftDirection.BACKWARD

# Smallest joint size N^3 at which a one-data-qudit array runs as a strided
# product rather than `tensor` plus its compiled gather. CPU per call on a warm
# qudit network, in µs, the compile excluded: the range of three runs' medians,
# each over 10 alternating loops of 200 calls (2-core Xeon, Python 3.11.7,
# numpy 2.4.6, one BLAS thread):
#     N                  12       16       20       24        28        32
#     apply, gather    15-16    24-25    38-40    58-62     89-98   129-147
#     apply, strided   17-19    25-26    35-37    47-52     69-71    85-100
#     + post_select, g 52-56    64-67    80-83   92-110   138-157   182-221
#     + post_select, s 51-58    64-66    75-80   94-104   102-128   151-174
# The gather wins at N = 12 and ties at 16; the strided product pulls ahead
# from N = 20, but only from N = 28 is it ahead by more than the loops'
# spread in both columns. It also skips the compile, which a fresh network
# pays on its first run.
_STRIDED_MIN_SIZE = 28**3


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
class GateArray:
    """A fixed array of conditional shifts on `width` data and 2·`width` program qudits.

    The joint register is the data qudits followed by the program qudits;
    `gates` holds the (control, target, direction) shifts in application order,
    on distinct 1-based subsystems.
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


@dataclass(frozen=True)
class GeneralDiagonal:
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
    0, 1, ..., N^k - 1 yields the permutation itself. Rebinding `ramp` frees
    each gate's input once its output exists, so at most two ramps are alive
    besides the index.

    The index is allocated before every ramp, so the array that stays sits
    below the joint-sized ones. A kept block above the joint states that each
    run frees leaves them as holes that the allocator splits for other
    allocations, and a later run then extends the heap by a whole joint state
    (N = 64 benchmark, 30 s run: 14% more peak RSS).
    """
    arity = 3 * spec.width
    size = spec.dim**arity
    source = np.empty(size, dtype=np.int64)
    # A permutation of a fresh ramp: wrapped without the constructor's complex copy.
    ramp = _adopt(UnnormalizedVector, spec.dim, arity, np.arange(size, dtype=np.int64))
    for control, target, direction in spec.gates:
        ramp = conditional_shift(ramp, control, target, direction)
    source[:] = ramp.amplitudes
    source.setflags(write=False)
    return source


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


def _inverse_matrix(spec: GateArray) -> tuple:
    """`spec`'s G^-1, composed on first use and kept on the value."""
    return _kept(spec, "_inverse", _compose_inverse)


def _layout(spec: GateArray):
    """How a width-1 array reads its output from tiles of ψ and P; None when the tiles are too big.

    Output amplitude y is ψ[G^-1[0]·y] · P[G^-1[1]·y, G^-1[2]·y] (mod N). ψ is
    tiled r_0 = sum|G^-1[0]| times and P (r_1, r_2) times, so each view indexes
    its tile at G^-1[a]·y + o_a with o_a = N · (sum of G^-1[a]'s negative
    entries' magnitudes): inside the tile, and equal to the register's index
    mod N. Returns the tile counts and each view's byte offset and strides.
    None when the tiles would hold more than N^3 amplitudes (a long gate list
    with large G^-1 entries), so that neither path peaks above two joint
    states.
    """
    dim, item = spec.dim, np.dtype(complex).itemsize
    inverse = _inverse_matrix(spec)
    reps = tuple(sum(map(abs, row)) for row in inverse)
    if reps[0] * dim + reps[1] * reps[2] * dim**2 > dim**3:
        return None
    views = []
    # byte steps of ψ's tile, then of P's tile rows and columns
    for rows, steps in ((inverse[:1], (item,)), (inverse[1:], (reps[2] * dim * item, item))):
        offset = sum(dim * sum(-g for g in row if g < 0) * step for row, step in zip(rows, steps))
        strides = tuple(sum(row[j] * step for row, step in zip(rows, steps)) for j in range(3))
        views.append((offset, strides))
    return reps, views


def _strided_layout(spec: GateArray):
    """`spec`'s `_layout`, computed on first use and kept on the value."""
    return _kept(spec, "_strided_layout", _layout)


def _strided_run(dim: int, layout, data: QuditRegisterState, program: QuditRegisterState) -> np.ndarray:
    """The array's output as one product of two strided views: its only joint-sized allocation.

    The ndarray constructor checks that each view stays inside its tile.
    """
    reps, ((psi_offset, psi_strides), (prog_offset, prog_strides)) = layout
    psi = np.empty((reps[0], dim), dtype=complex)
    psi[:] = data.amplitudes
    prog = np.empty((reps[1], dim, reps[2], dim), dtype=complex)
    prog[:] = program.amplitudes.reshape(dim, 1, dim)
    shape = (dim,) * 3
    out = np.empty(dim**3, dtype=complex)
    np.multiply(
        np.ndarray(shape, complex, psi, psi_offset, psi_strides),
        np.ndarray(shape, complex, prog, prog_offset, prog_strides),
        out=out.reshape(shape),
    )
    return out


def apply_processor(spec: ProcessorSpec, data: QuditRegisterState, program: QuditRegisterState) -> QuditRegisterState:
    """Run the fixed circuit on data ⊗ program and return the joint output.

    A one-data-qudit network with at least `_STRIDED_MIN_SIZE` joint amplitudes
    runs as one product of strided views of its two inputs (`_strided_run`).
    Any other shift network runs as `tensor` and one gather by its
    permutation, which the first call on each `GateArray` value compiles and
    keeps on the value. Gate order for the shift networks: data controls shifts
    onto both program qudits, then each program qudit shifts the data back (the
    first of those two in the subtracting direction for the qudit variant).
    """
    if isinstance(spec, GeneralDiagonal):
        return _general_diagonal_apply(spec, data, program)
    if not isinstance(spec, GateArray):
        raise TypeError(f"unknown processor spec: {spec!r}")
    if (data.dim, data.arity, program.dim, program.arity) != (spec.dim, spec.width, spec.dim, 2 * spec.width):
        raise ValueError(
            f"processor needs {spec.width} data and {2 * spec.width} program qudit(s) of dimension {spec.dim}, "
            f"got {data.arity} and {program.arity} of dimension {data.dim} and {program.dim}"
        )
    large = spec.width == 1 and spec.dim**3 >= _STRIDED_MIN_SIZE
    if large and (layout := _strided_layout(spec)) is not None:
        out = _strided_run(spec.dim, layout, data, program)
    else:
        # Compile before `tensor`: the first call's peak is then two joint
        # states and the index, not three joint states.
        source = _compiled(spec)
        out = tensor(data, program).amplitudes[source]
    # Either way a permutation of the checked product state: it keeps its norm.
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
    return UnnormalizedVector(data.dim, data.arity + program.arity, out).normalized()


def qubit_network_matches_shift_network(dim: int = 2) -> bool:
    """Whether the all-forward circuit is the same permutation as the mixed-direction one.

    Two integer matrices give the same permutation of Z_N^3 exactly when they
    agree mod N, so this compares the two G^-1. True exactly at dim 2, where
    adding and subtracting mod 2 coincide.
    """
    forward = _inverse_matrix(GateArray(dim, 1, QubitCnotNetwork().gates))
    mixed = _inverse_matrix(QuditShiftNetwork(dim))
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
