"""The fixed processor circuits that route a program register onto data.

Every shift network (the qudit network, the qubit CNOT network and the
l-qubit tensor array) is declared once, in `_network`, as a list of
conditional shifts on the joint register, and run by one path, each gate a
single gather. The general diagonal form sum_n V_n ⊗ |y_n><y_n| is applied
to programs in the span of its basis. `processor_matrix` materializes either
as a joint-space matrix for cross-checks at small dimension.
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


@dataclass(frozen=True)
class QuditShiftNetwork:
    """Four conditional shifts on one data qudit and a two-qudit program."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class QubitCnotNetwork:
    """The qubit special case: four CNOTs (both shift directions agree at dim 2)."""


@dataclass(frozen=True)
class TensorQubitArray:
    """l independent single-qubit processors, one per data qubit."""

    l: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"need at least one qubit processor, got l={self.l}")


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


ProcessorSpec = QuditShiftNetwork | QubitCnotNetwork | TensorQubitArray | GeneralDiagonal


def _single_processor_gates(data_q: int, p1: int, p2: int, backward: bool):
    # Application order of the four conditional shifts; the third gate is the
    # only one whose direction distinguishes the qudit and qubit variants.
    return (
        (data_q, p1, _F),
        (data_q, p2, _F),
        (p1, data_q, _B if backward else _F),
        (p2, data_q, _F),
    )


def _network(spec) -> tuple[int, int, tuple]:
    """(qudit dimension, data qudits l, gate list) of a shift network.

    The joint register is the l data qudits followed by the 2l program qudits.
    """
    if isinstance(spec, QuditShiftNetwork):
        return spec.dim, 1, _single_processor_gates(1, 2, 3, backward=True)
    if isinstance(spec, QubitCnotNetwork):
        return 2, 1, _single_processor_gates(1, 2, 3, backward=False)
    if isinstance(spec, TensorQubitArray):
        l = spec.l
        gates = tuple(
            gate
            for m in range(1, l + 1)
            for gate in _single_processor_gates(m, l + 2 * m - 1, l + 2 * m, backward=False)
        )
        return 2, l, gates
    raise TypeError(f"unknown processor spec: {spec!r}")


def _run_gates(joint, gates):
    for control, target, direction in gates:
        joint = conditional_shift(joint.dim, control, target, direction, joint)
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
    dim, width, gates = _network(spec)
    if not (data.dim == program.dim == dim and data.arity == width and program.arity == 2 * width):
        raise ValueError(
            f"processor needs {width} data and {2 * width} program qudit(s) of dimension {dim}, "
            f"got {data.arity} and {program.arity} of dimension {data.dim} and {program.dim}"
        )
    return _run_gates(tensor(data, program), gates)


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
    forward = _source_index(dim, 3, _single_processor_gates(1, 2, 3, backward=False))
    mixed = _source_index(dim, 3, _single_processor_gates(1, 2, 3, backward=True))
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
    dim, width, gates = _network(spec)
    source = _source_index(dim, 3 * width, gates)
    return np.eye(source.size, dtype=complex)[source]
