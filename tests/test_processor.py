import itertools

import numpy as np
import pytest

from quditproc import (
    DenseOperator,
    GateArray,
    GeneralDiagonal,
    QubitCnotNetwork,
    QuditRegisterState,
    QuditShiftNetwork,
    ShiftDirection,
    TensorQubitArray,
    apply_processor,
    basis_state,
    bell_state,
    inner_product,
    partial_inner_product,
    pauli_s,
    processor_matrix,
    qubit_network_matches_shift_network,
    random_state,
    random_unitary,
    tensor,
    u_mn,
)

from conftest import max_abs_diff


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_basis_action_table(dim):
    proc = QuditShiftNetwork(dim)
    for n, m, k in itertools.product(range(dim), repeat=3):
        out = apply_processor(proc, basis_state(dim, 1, [n]), basis_state(dim, 2, [m, k]))
        expected = basis_state(dim, 3, [(n - m + k) % dim, (m + n) % dim, (k + n) % dim])
        assert max_abs_diff(out.amplitudes, expected.amplitudes) < 1e-12, (n, m, k)


@pytest.mark.parametrize("dim", [2, 3])
def test_bell_programs_are_eigenprograms(dim, rng):
    proc = QuditShiftNetwork(dim)
    for _ in range(5):
        psi = random_state(dim, 1, rng)
        for m in range(dim):
            for n in range(dim):
                bell = bell_state(dim, (m, n))
                out = apply_processor(proc, psi, bell)
                expected = np.kron(u_mn(dim, (m, n)).entries @ psi.amplitudes, bell.amplitudes)
                assert max_abs_diff(out.amplitudes, expected) < 1e-12


def test_qubit_bell_program_table(rng):
    psi = random_state(2, 1, rng)
    proc = QubitCnotNetwork()
    for j, k in itertools.product((0, 1), repeat=2):
        bell = bell_state(2, (j, k))
        out = apply_processor(proc, psi, bell)
        expected = np.kron(pauli_s(j, k).entries @ psi.amplitudes, bell.amplitudes)
        assert max_abs_diff(out.amplitudes, expected) < 1e-12


def test_networks_agree_at_dim_two():
    assert qubit_network_matches_shift_network(2)


def test_networks_agree_on_random_qubit_states(rng):
    for _ in range(10):
        data = random_state(2, 1, rng)
        prog = random_state(2, 2, rng)
        a = apply_processor(QubitCnotNetwork(), data, prog)
        b = apply_processor(QuditShiftNetwork(2), data, prog)
        assert max_abs_diff(a.amplitudes, b.amplitudes) < 1e-12


def test_networks_differ_at_dim_three():
    assert not qubit_network_matches_shift_network(3)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_network_preserves_norm(dim, rng):
    out = apply_processor(QuditShiftNetwork(dim), random_state(dim, 1, rng), random_state(dim, 2, rng))
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


def test_program_register_unchanged_for_bell_programs(rng):
    # projecting the output onto the transformed data state must return the
    # original program with unit overlap
    dim = 3
    psi = random_state(dim, 1, rng)
    for m in range(dim):
        for n in range(dim):
            bell = bell_state(dim, (m, n))
            out = apply_processor(QuditShiftNetwork(dim), psi, bell)
            data_out = np.asarray(u_mn(dim, (m, n)).entries @ psi.amplitudes)
            from quditproc import QuditRegisterState

            data_state = QuditRegisterState(dim, 1, data_out)
            program_factor = partial_inner_product(data_state, out, (1,))
            assert abs(inner_product(bell, program_factor) - 1) < 1e-12


def test_program_output_independent_of_data(rng):
    dim = 3
    bell = bell_state(dim, (2, 1))
    factors = []
    for _ in range(2):
        psi = random_state(dim, 1, rng)
        out = apply_processor(QuditShiftNetwork(dim), psi, bell)
        from quditproc import QuditRegisterState

        data_state = QuditRegisterState(dim, 1, u_mn(dim, (2, 1)).entries @ psi.amplitudes)
        factors.append(partial_inner_product(data_state, out, (1,)).amplitudes)
    assert max_abs_diff(factors[0], factors[1]) < 1e-12


def test_processor_linear_in_program(rng):
    dim = 3
    psi = random_state(dim, 1, rng)
    p1 = bell_state(dim, (0, 1))
    p2 = bell_state(dim, (2, 0))
    alpha, beta = 0.6, 0.8j
    from quditproc import QuditRegisterState

    combo = QuditRegisterState(dim, 2, alpha * p1.amplitudes + beta * p2.amplitudes)
    out_combo = apply_processor(QuditShiftNetwork(dim), psi, combo)
    out_parts = alpha * apply_processor(QuditShiftNetwork(dim), psi, p1).amplitudes + beta * apply_processor(
        QuditShiftNetwork(dim), psi, p2
    ).amplitudes
    assert max_abs_diff(out_combo.amplitudes, out_parts) < 1e-12


def test_apply_processor_shape_validation(rng):
    with pytest.raises(ValueError):
        apply_processor(QuditShiftNetwork(3), random_state(3, 2, rng), random_state(3, 2, rng))
    with pytest.raises(ValueError):
        apply_processor(QuditShiftNetwork(3), random_state(2, 1, rng), random_state(2, 2, rng))
    with pytest.raises(ValueError):
        apply_processor(QubitCnotNetwork(), random_state(3, 1, rng), random_state(3, 2, rng))


@pytest.mark.parametrize("spec", [object(), "qudit-shift", (3, 1, QuditShiftNetwork(3).gates)])
def test_non_processor_spec_is_type_error(spec, rng):
    with pytest.raises(TypeError):
        apply_processor(spec, random_state(3, 1, rng), random_state(3, 2, rng))
    with pytest.raises(TypeError):
        processor_matrix(spec)


def test_shift_networks_are_gate_arrays(rng):
    assert QuditShiftNetwork(3).gates[2] == (2, 1, ShiftDirection.BACKWARD)
    assert QubitCnotNetwork().dim == 2
    assert TensorQubitArray(2).width == 2 and len(TensorQubitArray(2).gates) == 8
    # Equal gate lists, different constructors: the values stay distinct.
    assert TensorQubitArray(1).gates == QubitCnotNetwork().gates
    assert TensorQubitArray(1) != QubitCnotNetwork()
    data, prog = random_state(3, 1, rng), random_state(3, 2, rng)
    bare = GateArray(3, 1, QuditShiftNetwork(3).gates)
    named = apply_processor(QuditShiftNetwork(3), data, prog)
    assert max_abs_diff(apply_processor(bare, data, prog).amplitudes, named.amplitudes) == 0


def test_tensor_array_single_processor_reduces_to_qubit_network(rng):
    data = random_state(2, 1, rng)
    prog = random_state(2, 2, rng)
    a = apply_processor(TensorQubitArray(1), data, prog)
    b = apply_processor(QubitCnotNetwork(), data, prog)
    assert max_abs_diff(a.amplitudes, b.amplitudes) < 1e-12


def test_tensor_array_two_qubits_identity_then_flip(rng):
    data = random_state(2, 2, rng)
    program = tensor(bell_state(2, (0, 0)), bell_state(2, (0, 1)))
    out = apply_processor(TensorQubitArray(2), data, program)
    applied = np.kron(np.eye(2), pauli_s(0, 1).entries) @ data.amplitudes
    expected = np.kron(
        np.kron(applied, bell_state(2, (0, 0)).amplitudes), bell_state(2, (0, 1)).amplitudes
    )
    assert max_abs_diff(out.amplitudes, expected) < 1e-12


def test_tensor_array_two_qubits_double_phase(rng):
    data = random_state(2, 2, rng)
    program = tensor(bell_state(2, (1, 0)), bell_state(2, (1, 0)))
    out = apply_processor(TensorQubitArray(2), data, program)
    applied = np.kron(pauli_s(1, 0).entries, pauli_s(1, 0).entries) @ data.amplitudes
    expected = np.kron(
        np.kron(applied, bell_state(2, (1, 0)).amplitudes), bell_state(2, (1, 0)).amplitudes
    )
    assert max_abs_diff(out.amplitudes, expected) < 1e-12


def test_tensor_array_rejects_wrong_program_count(rng):
    with pytest.raises(ValueError):
        apply_processor(TensorQubitArray(2), random_state(2, 2, rng), bell_state(2, (0, 0)))


def test_general_diagonal_single_term(rng):
    dim = 3
    y = bell_state(dim, (0, 0))
    out = apply_processor(
        GeneralDiagonal((DenseOperator(dim, np.eye(dim)),), (y,)), random_state(dim, 1, rng), y
    )
    # program was the basis vector itself: output is data tensor y
    data = partial_inner_product(y, out, (2, 3))
    assert abs(np.linalg.norm(data.amplitudes) - 1) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_general_diagonal_matches_shift_network(dim, rng):
    ops = tuple(u_mn(dim, (m, n)) for m in range(dim) for n in range(dim))
    ys = tuple(bell_state(dim, (m, n)) for m in range(dim) for n in range(dim))
    spec = GeneralDiagonal(ops, ys)
    for _ in range(20):
        data = random_state(dim, 1, rng)
        prog = random_state(dim, 2, rng)
        a = apply_processor(spec, data, prog)
        b = apply_processor(QuditShiftNetwork(dim), data, prog)
        assert max_abs_diff(a.amplitudes, b.amplitudes) < 1e-10


def test_general_diagonal_exact_basis_program(rng):
    dim = 2
    ops = tuple(u_mn(dim, (m, n)) for m in range(dim) for n in range(dim))
    ys = tuple(bell_state(dim, (m, n)) for m in range(dim) for n in range(dim))
    data = random_state(dim, 1, rng)
    out = apply_processor(GeneralDiagonal(ops, ys), data, ys[2])
    expected = np.kron(ops[2].entries @ data.amplitudes, ys[2].amplitudes)
    assert max_abs_diff(out.amplitudes, expected) < 1e-12


def test_general_diagonal_rejects_program_outside_span(rng):
    dim = 2
    ops = (u_mn(dim, (0, 0)),)
    ys = (bell_state(dim, (0, 0)),)
    with pytest.raises(ValueError):
        apply_processor(GeneralDiagonal(ops, ys), random_state(dim, 1, rng), bell_state(dim, (0, 1)))


def test_general_diagonal_rejects_non_orthonormal_basis():
    dim = 2
    y = bell_state(dim, (0, 0))
    with pytest.raises(ValueError):
        GeneralDiagonal((u_mn(dim, (0, 0)), u_mn(dim, (0, 1))), (y, y))


def test_general_diagonal_rejects_count_mismatch():
    dim = 2
    with pytest.raises(ValueError):
        GeneralDiagonal((u_mn(dim, (0, 0)),), (bell_state(dim, (0, 0)), bell_state(dim, (0, 1))))


@pytest.mark.parametrize(
    "spec, dim, width",
    [
        pytest.param(QuditShiftNetwork(2), 2, 1, id="2"),
        pytest.param(QuditShiftNetwork(3), 3, 1, id="3"),
        pytest.param(QubitCnotNetwork(), 2, 1, id="qubit-cnot"),
        pytest.param(TensorQubitArray(1), 2, 1, id="tensor-1"),
        pytest.param(TensorQubitArray(2), 2, 2, id="tensor-2"),
    ],
)
def test_processor_matrix_matches_gatewise_path(spec, dim, width, rng):
    mat = processor_matrix(spec)
    size = dim ** (3 * width)
    assert max_abs_diff(mat.conj().T @ mat, np.eye(size)) < 1e-12
    # every shift network is a permutation: 0/1 entries, one 1 per row and column
    assert np.isin(mat, (0, 1)).all()
    assert (mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
    data = random_state(dim, width, rng)
    prog = random_state(dim, 2 * width, rng)
    gatewise = apply_processor(spec, data, prog)
    direct = mat @ tensor(data, prog).amplitudes
    assert max_abs_diff(gatewise.amplitudes, direct) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_processor_matrix_general_diagonal_matches_span_path(dim, rng):
    # a partial Bell basis with arbitrary unitaries; programs drawn in its span
    labels = [(0, 0), (1, 1), (0, dim - 1)]
    ys = tuple(bell_state(dim, lab) for lab in labels)
    spec = GeneralDiagonal(tuple(random_unitary(dim, rng) for _ in labels), ys)
    mat = processor_matrix(spec)
    for _ in range(5):
        weights = random_state(len(labels), 1, rng).amplitudes
        prog = QuditRegisterState(dim, 2, sum(w * y.amplitudes for w, y in zip(weights, ys)))
        data = random_state(dim, 1, rng)
        direct = mat @ tensor(data, prog).amplitudes
        assert max_abs_diff(apply_processor(spec, data, prog).amplitudes, direct) < 1e-12


def test_processor_matrix_general_diagonal_full_basis_is_unitary():
    dim = 2
    ops = tuple(u_mn(dim, (m, n)) for m in range(dim) for n in range(dim))
    ys = tuple(bell_state(dim, (m, n)) for m in range(dim) for n in range(dim))
    mat = processor_matrix(GeneralDiagonal(ops, ys))
    assert max_abs_diff(mat.conj().T @ mat, np.eye(dim**3)) < 1e-12


def test_general_diagonal_requires_unitary_operators():
    dim = 2
    lossy = DenseOperator(dim, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        GeneralDiagonal((lossy,), (bell_state(dim, (0, 0)),))
