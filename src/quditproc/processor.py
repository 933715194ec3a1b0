"""The fixed processor circuits that route a program register onto data.

A shift network is a `GateArray` (dimension, data width, conditional shifts),
built by the qudit network, the qubit CNOT network or the l-qubit tensor
array and run by one path, each gate a single gather. The general diagonal
form sum_n V_n ⊗ |y_n><y_n| is applied to programs in the span of its basis.
`processor_matrix` materializes either as a joint-space matrix for
cross-checks at small dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import ShiftDirection, conditional_shift
from .registers import (
    DenseOperator,
    QuditRegisterState,
    UnnormalizedVector,
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
class GateArray:
    """A fixed array of conditional shifts on `width` data and 2·`width` program qudits.

    The joint register is the data qudits followed by the program qudits;
    `gates` holds the (control, target, direction) shifts in application order.
    """

    dim: int
    width: int
    gates: tuple


class QuditShiftNetwork(GateArray):
    """Four conditional shifts on one data qudit and a two-qudit program."""

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {dim}")
        super().__init__(dim, 1, _single_processor_gates(1, 2, 3, backward=True))


class QubitCnotNetwork(GateArray):
    """The qubit special case: four CNOTs (both shift directions agree at dim 2)."""

    def __init__(self):
        super().__init__(2, 1, _single_processor_gates(1, 2, 3, backward=False))


class TensorQubitArray(GateArray):
    """l independent single-qubit processors, one per data qubit."""

    def __init__(self, l: int):
        if l < 1:
            raise ValueError(f"need at least one qubit processor, got l={l}")
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


def _run_gates(joint, gates):
    for control, target, direction in gates:
        joint = conditional_shift(joint, control, target, direction)
    return joint


def _source_index(dim: int, arity: int, gates) -> np.ndarray:
    """Joint index that each output amplitude of the gate list is read from.

    The gates only move amplitudes, so running them on 0, 1, ..., N^k - 1
    (exact in float64 below 2^53) yields the permutation itself.
    """
    ramp = UnnormalizedVector(dim, arity, np.arange(dim**arity))
    return _run_gates(ramp, gates).amplitudes.real.astype(np.int64)


def apply_processor(spec: ProcessorSpec, data: QuditRegisterState, program: QuditRegisterState) -> QuditRegisterState:
    """Run the fixed circuit on data ⊗ program and return the joint output.

    Gate order for the shift networks: data controls shifts onto both program
    qudits, then each program qudit shifts the data back (the first of those
    two in the subtracting direction for the qudit variant).
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
    return _run_gates(tensor(data, program), spec.gates)


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

    True exactly at dim 2, where adding and subtracting mod 2 coincide.
    """
    forward = _source_index(dim, 3, QubitCnotNetwork().gates)
    mixed = _source_index(dim, 3, QuditShiftNetwork(dim).gates)
    return bool(np.array_equal(forward, mixed))


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
    source = _source_index(spec.dim, 3 * spec.width, spec.gates)
    return np.eye(source.size, dtype=complex)[source]
