import itertools

import numpy as np
import pytest

from quditproc import (
    DenseOperator,
    QuditRegisterState,
    ShiftDirection,
    UnnormalizedVector,
    apply_to_register,
    apply_to_subsystem,
    basis_state,
    bell_state,
    conditional_shift,
    inner_product,
    negation_w,
    partial_inner_product,
    pauli_s,
    random_state,
    random_unitary,
    tensor,
    u_init,
)

from conftest import index_to_digits, max_abs_diff


def test_basis_state_qubit_zero():
    assert np.array_equal(basis_state(2, 1, [0]).amplitudes, [1, 0])


def test_basis_state_dim4_top():
    amps = basis_state(4, 1, [3]).amplitudes
    assert amps[3] == 1 and np.count_nonzero(amps) == 1


def test_basis_state_big_endian_index():
    # digits (1, 2) at dim 3 -> index 1*3 + 2 = 5
    amps = basis_state(3, 2, [1, 2]).amplitudes
    assert amps[5] == 1 and np.count_nonzero(amps) == 1


def test_basis_state_rejects_bad_digit():
    with pytest.raises(ValueError):
        basis_state(2, 1, [2])


def test_basis_state_rejects_length_mismatch():
    with pytest.raises(ValueError):
        basis_state(2, 2, [0])


def test_register_state_requires_normalization():
    with pytest.raises(ValueError):
        QuditRegisterState(2, 1, np.array([1.0, 1.0]))


def test_register_state_requires_exact_length():
    with pytest.raises(ValueError):
        QuditRegisterState(2, 2, np.array([1.0, 0.0]))


def test_unnormalized_vector_allows_zero():
    v = UnnormalizedVector(2, 1, np.zeros(2))
    assert v.norm() == 0.0
    with pytest.raises(ValueError):
        v.normalized()


def test_tensor_basis_states():
    t = tensor(basis_state(2, 1, [0]), basis_state(2, 1, [1]))
    assert max_abs_diff(t.amplitudes, basis_state(2, 2, [0, 1]).amplitudes) == 0


def test_tensor_with_shared_bell_pair():
    # (a, b) tensor (|00>+|11>)/sqrt2 -> (a,0,0,a,b,0,0,b)/sqrt2, expanded by hand
    a, b = 3 / 5, 4j / 5
    psi = QuditRegisterState(2, 1, np.array([a, b]))
    t = tensor(psi, bell_state(2, (0, 0)))
    expected = np.array([a, 0, 0, a, b, 0, 0, b]) / np.sqrt(2)
    assert max_abs_diff(t.amplitudes, expected) < 1e-15


def test_tensor_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        tensor(basis_state(2, 1, [0]), basis_state(3, 1, [0]))


def test_tensor_preserves_norm(rng):
    a = random_state(3, 1, rng)
    b = random_state(3, 2, rng)
    assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1) < 1e-12


def _assert_fresh_and_read_only(out, *inputs):
    assert not out.amplitudes.flags.writeable
    for value in inputs:
        assert not np.shares_memory(out.amplitudes, value.amplitudes)


def test_tensor_output_is_fresh_and_read_only(rng):
    a = random_state(3, 1, rng)
    b = random_state(3, 2, rng)
    out = tensor(a, b)
    assert type(out) is QuditRegisterState
    _assert_fresh_and_read_only(out, a, b)


@pytest.mark.parametrize("kind, scale", [(QuditRegisterState, 1.0), (UnnormalizedVector, 2.0)])
def test_conditional_shift_output_is_fresh_read_only_and_keeps_type(kind, scale, rng):
    state = kind(3, 3, scale * random_state(3, 3, rng).amplitudes)
    for direction in ShiftDirection:
        out = conditional_shift(state, 2, 1, direction)
        assert type(out) is kind
        _assert_fresh_and_read_only(out, state)


@pytest.mark.parametrize("kind", [QuditRegisterState, UnnormalizedVector])
def test_public_constructors_copy_their_input(kind):
    source = np.array([0.6, 0.8j], dtype=complex)
    value = kind(2, 1, source)
    source[:] = [1.0, 0.0]
    assert value.amplitudes.tolist() == [0.6, 0.8j]
    assert not value.amplitudes.flags.writeable


def test_apply_identity_leaves_state(rng):
    s = random_state(3, 2, rng)
    eye = DenseOperator(3, np.eye(3))
    for target in (1, 2):
        out = apply_to_subsystem(eye, target, s)
        assert max_abs_diff(out.amplitudes, s.amplitudes) < 1e-15


def test_apply_sigma_x_on_first_qubit():
    out = apply_to_subsystem(pauli_s(0, 1), 1, basis_state(2, 2, [0, 0]))
    assert max_abs_diff(out.amplitudes, basis_state(2, 2, [1, 0]).amplitudes) == 0


def test_apply_negation_on_dim4():
    # -1 mod 4 = 3
    out = apply_to_subsystem(negation_w(4), 1, basis_state(4, 1, [1]))
    assert max_abs_diff(out.amplitudes, basis_state(4, 1, [3]).amplitudes) == 0


def test_apply_rejects_bad_target(rng):
    s = random_state(2, 2, rng)
    with pytest.raises(ValueError):
        apply_to_subsystem(pauli_s(0, 1), 3, s)


def test_apply_rejects_dim_mismatch(rng):
    s = random_state(3, 2, rng)
    with pytest.raises(ValueError):
        apply_to_subsystem(pauli_s(0, 1), 1, s)


def test_apply_to_register_matches_kron(rng):
    s = random_state(2, 2, rng)
    out = apply_to_register(u_init(), s)
    assert max_abs_diff(out.amplitudes, u_init().entries @ s.amplitudes) < 1e-15


def test_inner_product_of_state_with_itself(rng):
    s = random_state(4, 2, rng)
    assert abs(inner_product(s, s) - 1) < 1e-12


def test_inner_product_bell_orthogonality_qubits():
    assert abs(inner_product(bell_state(2, (0, 0)), bell_state(2, (0, 1)))) < 1e-15


def test_inner_product_bell_orthonormality_qutrits():
    # brute force over all 81 label pairs
    labels = list(itertools.product(range(3), repeat=2))
    for la in labels:
        for lb in labels:
            ip = inner_product(bell_state(3, la), bell_state(3, lb))
            expected = 1.0 if la == lb else 0.0
            assert abs(ip - expected) < 1e-12, (la, lb)


def test_inner_product_conjugate_linear_in_first(rng):
    a = random_state(3, 1, rng)
    b = random_state(3, 1, rng)
    scaled = UnnormalizedVector(3, 1, 2j * a.amplitudes)
    assert abs(inner_product(scaled, b) - np.conj(2j) * inner_product(a, b)) < 1e-12


def test_inner_product_rejects_shape_mismatch(rng):
    with pytest.raises(ValueError):
        inner_product(random_state(2, 1, rng), random_state(2, 2, rng))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_unitary_application_preserves_norm(dim, rng):
    s = random_state(dim, 3, rng)
    u = random_unitary(dim, rng)
    for target in (1, 2, 3):
        out = apply_to_subsystem(u, target, s)
        assert abs(out.norm() - 1) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_subsystem_application_composes(dim, rng):
    s = random_state(dim, 2, rng)
    a = random_unitary(dim, rng)
    b = random_unitary(dim, rng)
    ba = DenseOperator(dim, b.entries @ a.entries)
    for target in (1, 2):
        chained = apply_to_subsystem(b, target, apply_to_subsystem(a, target, s))
        direct = apply_to_subsystem(ba, target, s)
        assert max_abs_diff(chained.amplitudes, direct.amplitudes) < 1e-12


def test_basis_state_digit_round_trip():
    for dim in (2, 3, 4):
        for arity in (1, 2, 3):
            for idx in range(dim**arity):
                digits = index_to_digits(idx, dim, arity)
                assert np.flatnonzero(basis_state(dim, arity, digits).amplitudes).tolist() == [idx]


def test_partial_inner_product_recovers_factor(rng):
    data = random_state(3, 1, rng)
    prog = random_state(3, 2, rng)
    joint = tensor(data, prog)
    # project out the program factor -> data amplitudes remain
    out = partial_inner_product(prog, joint, (2, 3))
    assert max_abs_diff(out.amplitudes, data.amplitudes) < 1e-12
    # project out the data factor -> program amplitudes remain
    out2 = partial_inner_product(data, joint, (1,))
    assert max_abs_diff(out2.amplitudes, prog.amplitudes) < 1e-12


def test_partial_inner_product_probability(rng):
    joint = random_state(2, 3, rng)
    bra = random_state(2, 2, rng)
    overlap = partial_inner_product(bra, joint, (2, 3))
    # squared norms of projections onto an orthonormal extension sum to 1
    assert 0 <= overlap.norm() ** 2 <= 1 + 1e-12
