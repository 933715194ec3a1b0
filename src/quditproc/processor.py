"""The fixed processor circuits that route a program register onto data.

All variants are applied gate by gate to the joint state vector; an optional
debug path materializes the full joint-space matrix for small dimensions.
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


def _run_gates(joint, gates):
    state = joint
    for control, target, direction in gates:
        state = conditional_shift(joint.dim, control, target, direction, state)
    return state


def _general_diagonal_raw(spec: GeneralDiagonal, joint) -> UnnormalizedVector:
    """sum_n V_n ⊗ |y_n><y_n| applied to an arbitrary joint vector."""
    n = joint.dim
    prog_size = spec.basis[0].amplitudes.size
    mat = joint.amplitudes.reshape(n, prog_size)
    out = np.zeros_like(mat)
    for op, y in zip(spec.operators, spec.basis):
        overlap = mat @ y.amplitudes.conj()
        out += np.outer(op.entries @ overlap, y.amplitudes)
    return UnnormalizedVector(joint.dim, joint.arity, out.reshape(-1))


def _apply_joint(spec: ProcessorSpec, joint):
    if isinstance(spec, QuditShiftNetwork):
        return _run_gates(joint, _single_processor_gates(1, 2, 3, backward=True))
    if isinstance(spec, QubitCnotNetwork):
        return _run_gates(joint, _single_processor_gates(1, 2, 3, backward=False))
    if isinstance(spec, TensorQubitArray):
        state = joint
        for m in range(1, spec.l + 1):
            gates = _single_processor_gates(m, spec.l + 2 * m - 1, spec.l + 2 * m, backward=False)
            state = _run_gates(state, gates)
        return state
    if isinstance(spec, GeneralDiagonal):
        return _general_diagonal_raw(spec, joint)
    raise TypeError(f"unknown processor spec: {spec!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def apply_processor(spec: ProcessorSpec, data: QuditRegisterState, program: QuditRegisterState) -> QuditRegisterState:
    """Run the fixed circuit on data ⊗ program and return the joint output.

    Gate order for the shift networks: data controls shifts onto both program
    qudits, then each program qudit shifts the data back (the first of those
    two in the subtracting direction for the qudit variant).
    """
    if isinstance(spec, QuditShiftNetwork):
        _require(data.arity == 1, "data register must be a single qudit")
        _require(program.arity == 2, "program register must be two qudits")
        _require(data.dim == program.dim == spec.dim, "dimension mismatch with processor")
        return _apply_joint(spec, tensor(data, program))
    if isinstance(spec, QubitCnotNetwork):
        _require(data.dim == 2 and program.dim == 2, "qubit network needs dimension 2")
        _require(data.arity == 1, "data register must be a single qubit")
        _require(program.arity == 2, "program register must be two qubits")
        return _apply_joint(spec, tensor(data, program))
    if isinstance(spec, TensorQubitArray):
        _require(data.dim == 2 and program.dim == 2, "tensor array works on qubits")
        _require(data.arity == spec.l, f"data register must hold {spec.l} qubits")
        _require(program.arity == 2 * spec.l, f"program register must hold {2 * spec.l} qubits")
        return _apply_joint(spec, tensor(data, program))
    if isinstance(spec, GeneralDiagonal):
        _require(data.arity == 1, "data register must be a single qudit")
        _require(data.dim == spec.operators[0].dim, "data dimension mismatch with processor")
        _require(
            program.dim == spec.basis[0].dim and program.arity == spec.basis[0].arity,
            "program register shape mismatch with processor basis",
        )
        return _general_diagonal_span_apply(spec, data, program)
    raise TypeError(f"unknown processor spec: {spec!r}")


def _general_diagonal_span_apply(
    spec: GeneralDiagonal,
    data: QuditRegisterState,
    program: QuditRegisterState,
    span_tol: float = 1e-10,
) -> QuditRegisterState:
    coeffs = np.array([inner_product(y, program) for y in spec.basis])
    outside = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    if outside > span_tol:
        raise ValueError(
            f"program has weight {outside:.3e} outside the processor's program basis"
        )
    out = np.zeros(data.amplitudes.size * program.amplitudes.size, dtype=complex)
    for c, op, y in zip(coeffs, spec.operators, spec.basis):
        out += c * np.kron(op.entries @ data.amplitudes, y.amplitudes)
    # Renormalize away the (bounded) float residue outside the span.
    return UnnormalizedVector(data.dim, data.arity + program.arity, out).normalized()


def tensor_array_apply(l: int, data: QuditRegisterState, programs) -> QuditRegisterState:
    """Run one single-qubit processor per data qubit.

    programs[i] is the two-qubit program state controlling data qubit i+1.
    The joint output keeps registers in order: data qubits 1..l, then the
    program pairs in the same order.
    """
    programs = list(programs)
    if len(programs) != l:
        raise ValueError(f"expected {l} program states, got {len(programs)}")
    combined = programs[0]
    for p in programs[1:]:
        combined = tensor(combined, p)
    return apply_processor(TensorQubitArray(l), data, combined)


def qubit_network_matches_shift_network(dim: int = 2, atol: float = 1e-12) -> bool:
    """Whether the all-forward circuit agrees with the mixed-direction circuit.

    Compared on every basis triple (a spanning set, so agreement extends to all
    states by linearity). True exactly at dim 2, where adding and subtracting
    mod 2 coincide.
    """
    for idx in range(dim**3):
        amps = np.zeros(dim**3, dtype=complex)
        amps[idx] = 1.0
        joint = QuditRegisterState(dim, 3, amps)
        forward = _run_gates(joint, _single_processor_gates(1, 2, 3, backward=False))
        mixed = _run_gates(joint, _single_processor_gates(1, 2, 3, backward=True))
        if np.max(np.abs(forward.amplitudes - mixed.amplitudes)) > atol:
            return False
    return True


def processor_matrix(spec: ProcessorSpec) -> np.ndarray:
    """Materialize the processor as a joint-space matrix (debug path).

    Intended for cross-checks at small dimension; the gate-by-gate path is the
    production route.
    """
    if isinstance(spec, QuditShiftNetwork):
        dim, arity = spec.dim, 3
    elif isinstance(spec, QubitCnotNetwork):
        dim, arity = 2, 3
    elif isinstance(spec, TensorQubitArray):
        dim, arity = 2, 3 * spec.l
    elif isinstance(spec, GeneralDiagonal):
        dim, arity = spec.operators[0].dim, 1 + spec.basis[0].arity
    else:
        raise TypeError(f"unknown processor spec: {spec!r}")
    size = dim**arity
    mat = np.empty((size, size), dtype=complex)
    for j in range(size):
        e = np.zeros(size, dtype=complex)
        e[j] = 1.0
        mat[:, j] = _apply_joint(spec, UnnormalizedVector(dim, arity, e)).amplitudes
    return mat
