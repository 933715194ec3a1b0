"""The fixed processor circuits that route a program register onto data.

A shift network is a `GateArray` (dimension, data width, conditional shifts),
built by the qudit network, the qubit CNOT network or the l-qubit tensor
array. Every gate is a transvection of the joint digits, so an array is one
affine map of them, x -> G x (mod N), and G^-1 is composed from the gates once
per value. It runs one of two ways, chosen by `_layout`:

- a one-data-qudit array whose tiles of data and program fit in N^3
  amplitudes (the qudit network from N = 9) returns a deferred output
  (`registers._deferred`): a `QuditRegisterState` whose amplitudes are the
  product of two strided views of the tiles (`_strided_columns`), output
  (d, a, b) being
  ψ[G^-1[0]·(d, a, b)] · P[G^-1[1]·(d, a, b), G^-1[2]·(d, a, b)]. ψ is
  tiled on each run; P's tile is made on the program's first run and kept on
  the program value, so a program run on many data states is tiled once, as
  a stored program is prepared once. Nothing is multiplied until the output
  is read. Reading `.amplitudes` makes the whole
  product, the output's only joint-sized allocation; a post-selection of the
  unread output makes only the columns of its bra's nonzero span, N^2
  products under the full measurement |0> ⊗ |+> instead of N^3, at every N,
  because `programs.measurement_full` builds that bra exactly. It is the
  whole network, not a second path for one gate;
- any other array (such as the qudit network at N <= 8 or the CNOT network) is
  compiled once per value by running its gates through `conditional_shift`
  on the int64 index ramp, and the index is kept on the value; each run is
  then one eager gather of `tensor(data, program)`, the reference the tests
  hold the strided one to.

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
    _deferred,
    _kept,
    _locked,
    _Value,
    inner_product,
    tensor,
)

_F = ShiftDirection.FORWARD
_B = ShiftDirection.BACKWARD


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


def _layout(spec: GateArray):
    """How a one-data-qudit array reads its output from tiles of ψ and P; else None.

    Output amplitude y is ψ[G^-1[0]·y] · P[G^-1[1]·y, G^-1[2]·y] (mod N). With
    n_a and p_a the summed magnitudes of G^-1[a]'s negative and positive
    entries, each view indexes its tile at G^-1[a]·y + N n_a, equal to the
    register's index mod N and in [n_a, N n_a + (N - 1) p_a]: inside
    n_a + max(p_a, 1) copies of the register. Returns the tile counts and each
    view's byte offset and strides. None for a wider array, and when the tiles
    would hold more than N^3 amplitudes, so that neither path peaks above two
    joint states.
    """
    if spec.width != 1:
        return None
    dim, item = spec.dim, np.dtype(complex).itemsize
    inverse = _compose_inverse(spec)
    reps = tuple(sum(-g for g in row if g < 0) + max(sum(g for g in row if g > 0), 1) for row in inverse)
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


def _program_tile(rows: int, cols: int, program: QuditRegisterState) -> np.ndarray:
    """P as a read-only (rows, N, cols, N) array: row a of P is repeated cols times, the whole rows times."""
    dim = program.dim
    tile = np.empty((rows, dim, cols, dim), dtype=complex)
    tile[:] = program.amplitudes.reshape(dim, 1, dim)
    return _locked(tile)


def _strided_columns(
    dim: int, layout, data: QuditRegisterState, program: QuditRegisterState, width: int, lo: int, hi: int
) -> np.ndarray:
    """Columns [lo, hi) of a width-1 array's output seen as a (N^3 / width, width) matrix.

    The output (d, a, b) is the product of two strided (N, N, N) views of
    tiles of ψ and P; the ndarray constructor checks that each view stays
    inside its tile. ψ's tile, 3 N amplitudes for the qudit network, is made
    fresh on each call. P's, 8 N^2 for it (128 N^2 bytes), is made on the
    first call for each tile shape and kept on the program value through
    `_kept` under a name that carries its tile counts, so a program run on
    many data states is tiled once. For `width` = N^k the
    columns are the trailing k digits, so only the slices of the views along
    digit 3 - k that cover [lo, hi) are multiplied, into a fresh C-ordered
    array that is the only other allocation: N^3 products for the whole output
    (`width` = N, [0, N)), N^2 for the span [0, N) of the full measurement.
    Each product is the same multiply of the same two amplitudes either way,
    so the columns equal the whole output's bit for bit.
    """
    reps, ((psi_offset, psi_strides), (prog_offset, prog_strides)) = layout
    psi = np.empty((reps[0], dim), dtype=complex)
    psi[:] = data.amplitudes
    prog = _kept(program, f"_program_tile_{reps[1]}x{reps[2]}", partial(_program_tile, reps[1], reps[2]))
    # Digit 3 - k, the leading column digit, steps through the columns
    # N^(k-1) at a time.
    step = width // dim
    first, last = lo // step, -(-hi // step)
    cover = (slice(None),) * (2 if step == 1 else 1) + (slice(first, last),)
    shape = (dim,) * 3
    psi_view = np.ndarray(shape, complex, psi, psi_offset, psi_strides)[cover]
    prog_view = np.ndarray(shape, complex, prog, prog_offset, prog_strides)[cover]
    out = np.empty(psi_view.shape, dtype=complex)
    np.multiply(psi_view, prog_view, out=out)
    return out.reshape(dim**3 // width, (last - first) * step)[:, lo - first * step : hi - first * step]


def apply_processor(spec: ProcessorSpec, data: QuditRegisterState, program: QuditRegisterState) -> QuditRegisterState:
    """Run the fixed circuit on data ⊗ program and return the joint output.

    A shift network with a strided layout (`_layout`) returns a deferred
    output: its amplitudes, one product of strided views of the two inputs
    (`_strided_columns`), are made when first read, and a post-selection of
    the unread output makes only the columns it contracts. Any other shift
    network runs at once as `tensor` and one gather by its permutation, which
    the first call on each `GateArray` value compiles and keeps on the value.
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
    if (layout := _strided_layout(spec)) is not None:
        return _deferred(QuditRegisterState, spec.dim, 3, partial(_strided_columns, spec.dim, layout, data, program))
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
    return UnnormalizedVector(data.dim, data.arity + program.arity, out).normalized()


def qubit_network_matches_shift_network(dim: int = 2) -> bool:
    """Whether the all-forward circuit is the same permutation as the mixed-direction one.

    Two integer matrices give the same permutation of Z_N^3 exactly when they
    agree mod N, so this compares the two G^-1. True exactly at dim 2, where
    adding and subtracting mod 2 coincide.
    """
    forward = _compose_inverse(GateArray(dim, 1, QubitCnotNetwork().gates))
    mixed = _compose_inverse(QuditShiftNetwork(dim))
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
