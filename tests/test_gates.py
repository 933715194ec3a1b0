import itertools

import numpy as np
import pytest

from quditproc import (
    QuditRegisterState,
    ShiftDirection,
    basis_state,
    bell_basis_matrix,
    bell_state,
    conditional_shift,
    conjugate_vector,
    digits_to_index,
    apply_to_subsystem,
    apply_to_register,
    negation_w,
    pauli_s,
    random_state,
    tensor,
    u_init,
    u_mn,
)

from conftest import index_to_digits, max_abs_diff

F = ShiftDirection.FORWARD
B = ShiftDirection.BACKWARD


def test_shift_directions_agree_at_dim_two():
    for c in range(2):
        for t in range(2):
            s = basis_state(2, 2, [c, t])
            fwd = conditional_shift(s, 1, 2, F)
            bwd = conditional_shift(s, 1, 2, B)
            assert max_abs_diff(fwd.amplitudes, bwd.amplitudes) == 0


def test_forward_shift_qutrit():
    s = basis_state(3, 2, [1, 2])
    out = conditional_shift(s, 1, 2, F)
    assert max_abs_diff(out.amplitudes, basis_state(3, 2, [1, 0]).amplitudes) == 0


def test_backward_shift_qutrit():
    s = basis_state(3, 2, [1, 0])
    out = conditional_shift(s, 1, 2, B)
    assert max_abs_diff(out.amplitudes, basis_state(3, 2, [1, 2]).amplitudes) == 0


def test_shift_rejects_equal_control_target():
    with pytest.raises(ValueError):
        conditional_shift(basis_state(2, 2, [0, 0]), 1, 1, F)


def test_shift_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        conditional_shift(basis_state(2, 2, [0, 0]), 1, 3, F)


@pytest.mark.parametrize("direction", ["forward", "backward", 1, -1, None])
def test_shift_rejects_direction_that_is_not_a_shift_direction(direction):
    with pytest.raises(TypeError):
        conditional_shift(basis_state(3, 2, [1, 0]), 1, 2, direction)


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_conditional_shift_follows_digit_rule(arity, dim):
    # |..k_c..m_t..> -> |..k_c..(m ± k) mod N_t..> on every basis state, for
    # every ordered (control, target) pair and both directions
    for control, target in itertools.permutations(range(1, arity + 1), 2):
        for direction, sign in ((F, 1), (B, -1)):
            for index in range(dim**arity):
                digits = list(index_to_digits(index, dim, arity))
                out = conditional_shift(basis_state(dim, arity, digits), control, target, direction)
                digits[target - 1] = (digits[target - 1] + sign * digits[control - 1]) % dim
                expected = np.zeros(dim**arity)
                expected[digits_to_index(digits, dim)] = 1.0
                assert np.array_equal(out.amplitudes, expected), (control, target, direction, index)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
def test_shift_preserves_norm(dim, rng):
    s = random_state(dim, 2, rng)
    out = conditional_shift(s, 2, 1, F)
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_forward_then_backward_is_identity(dim, rng):
    s = random_state(dim, 3, rng)
    out = conditional_shift(conditional_shift(s, 3, 1, F), 3, 1, B)
    assert max_abs_diff(out.amplitudes, s.amplitudes) < 1e-12


def test_bell_states_match_qubit_table():
    sq2 = np.sqrt(2)
    table = {
        (0, 0): np.array([1, 0, 0, 1]) / sq2,   # (|00> + |11>)/sqrt2
        (0, 1): np.array([0, 1, 1, 0]) / sq2,   # (|01> + |10>)/sqrt2
        (1, 0): np.array([1, 0, 0, -1]) / sq2,  # (|00> - |11>)/sqrt2
        (1, 1): np.array([0, 1, -1, 0]) / sq2,  # (|01> - |10>)/sqrt2
    }
    for label, expected in table.items():
        assert max_abs_diff(bell_state(2, label).amplitudes, expected) < 1e-15


def test_bell_state_qutrit_phase_winding():
    w = np.exp(2j * np.pi / 3)
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1
    expected[4] = w
    expected[8] = w**2
    assert max_abs_diff(bell_state(3, (1, 0)).amplitudes, expected / np.sqrt(3)) < 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_bell_basis_is_orthonormal(dim):
    mat = np.column_stack([bell_basis_matrix(dim, e) for e in np.eye(dim * dim)])
    gram = mat.conj().T @ mat
    assert max_abs_diff(gram, np.eye(dim * dim)) < 1e-12


def rel_diff(a, b) -> float:
    return max_abs_diff(a, b) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 16, 32])
def test_bell_basis_map_matches_bell_state_sum(dim, rng):
    # reference: the slow per-label construction, summed column by column
    w = rng.normal(size=dim * dim) + 1j * rng.normal(size=dim * dim)
    expected = sum(
        w[m * dim + n] * bell_state(dim, (m, n)).amplitudes
        for m in range(dim)
        for n in range(dim)
    )
    assert rel_diff(bell_basis_matrix(dim, w), expected) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_bell_basis_map_columns_are_bell_states(dim):
    for m, n in itertools.product(range(dim), repeat=2):
        column = bell_basis_matrix(dim, np.eye(dim * dim)[m * dim + n])
        assert rel_diff(column, bell_state(dim, (m, n)).amplitudes) < 1e-12


def test_bell_basis_map_rejects_wrong_shape():
    with pytest.raises(ValueError):
        bell_basis_matrix(3, np.ones(8))
    with pytest.raises(ValueError):
        bell_basis_matrix(3, np.ones((9, 2)))


def test_u_mn_identity_label():
    assert max_abs_diff(u_mn(3, (0, 0)).entries, np.eye(3)) == 0


def test_u_mn_matches_pauli_table_at_dim_two():
    # the explicit qubit table and the general constructor must agree entry
    # for entry; this guards the sign conventions of both
    for j, k in itertools.product((0, 1), repeat=2):
        assert max_abs_diff(u_mn(2, (j, k)).entries, pauli_s(j, k).entries) < 1e-15


def test_pauli_table_explicit_matrices():
    assert np.array_equal(pauli_s(0, 0).entries, np.eye(2))
    assert np.array_equal(pauli_s(0, 1).entries, np.array([[0, 1], [1, 0]]))
    assert np.array_equal(pauli_s(1, 0).entries, np.array([[1, 0], [0, -1]]))
    assert np.array_equal(pauli_s(1, 1).entries, np.array([[0, -1], [1, 0]]))


def test_pauli_s_rejects_non_bits():
    with pytest.raises(ValueError):
        pauli_s(0, 2)


def test_u_mn_label_convention_at_dim_four():
    # (m, 0) labels are the diagonal phase operators, (0, n) the pure shifts;
    # regression for the labeling the probability claims depend on
    diag = u_mn(4, (1, 0)).entries
    assert max_abs_diff(diag, np.diag([1, -1j, -1, 1j])) < 1e-15
    shift = u_mn(4, (0, 1)).entries
    expected = np.zeros((4, 4))
    for s in range(4):
        expected[(s - 1) % 4, s] = 1
    assert max_abs_diff(shift, expected) < 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
def test_u_mn_unitary(dim):
    for m in range(dim):
        for n in range(dim):
            assert u_mn(dim, (m, n)).is_unitary(1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_u_mn_trace_orthogonality(dim):
    ops = {(m, n): u_mn(dim, (m, n)).entries for m in range(dim) for n in range(dim)}
    for la, a in ops.items():
        for lb, b in ops.items():
            tr = np.trace(a.conj().T @ b)
            expected = dim if la == lb else 0.0
            assert abs(tr - expected) < 1e-12, (la, lb)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_u_mn_on_shared_bell_pair_relabels(dim):
    # (u(m,n) on qudit 1) |Xi_00> = e^{-2 pi i m n / N} |Xi_{-m,-n}>;
    # forced by the two constructions, recorded here as a regression
    shared = bell_state(dim, (0, 0))
    for m in range(dim):
        for n in range(dim):
            moved = apply_to_subsystem(u_mn(dim, (m, n)), 1, shared)
            phase = np.exp(-2j * np.pi * m * n / dim)
            expected = phase * bell_state(dim, (-m % dim, -n % dim)).amplitudes
            assert max_abs_diff(moved.amplitudes, expected) < 1e-12, (m, n)


def test_u_init_column_actions():
    gate = u_init()
    actions = {
        (0, 0): -basis_state(2, 2, [1, 0]).amplitudes,
        (0, 1): basis_state(2, 2, [0, 0]).amplitudes,
        (1, 0): -basis_state(2, 2, [1, 1]).amplitudes,
        (1, 1): basis_state(2, 2, [0, 1]).amplitudes,
    }
    for digits, expected in actions.items():
        out = apply_to_register(gate, basis_state(2, 2, digits))
        assert max_abs_diff(out.amplitudes, expected) == 0


def test_u_init_unitary():
    assert u_init().is_unitary(1e-15)


def test_u_init_prepares_reflection_program(rng):
    # applied to (|phi>|phi_perp> + |phi_perp>|phi>)/sqrt2 it must produce
    # -(mu nu* + mu* nu)|Xi_01> + (mu nu* - mu* nu)|Xi_11> + (|nu|^2-|mu|^2)|Xi_10>
    from quditproc import orthogonal_qubit_state

    for _ in range(10):
        phi = random_state(2, 1, rng)
        mu, nu = phi.amplitudes
        perp = orthogonal_qubit_state(phi)
        prep = (
            np.kron(phi.amplitudes, perp.amplitudes)
            + np.kron(perp.amplitudes, phi.amplitudes)
        ) / np.sqrt(2)
        out = apply_to_register(u_init(), QuditRegisterState(2, 2, prep))
        expected = (
            -(mu * np.conj(nu) + np.conj(mu) * nu) * bell_state(2, (0, 1)).amplitudes
            + (mu * np.conj(nu) - np.conj(mu) * nu) * bell_state(2, (1, 1)).amplitudes
            + (abs(nu) ** 2 - abs(mu) ** 2) * bell_state(2, (1, 0)).amplitudes
        )
        assert max_abs_diff(out.amplitudes, expected) < 1e-12


def test_negation_w_is_identity_at_dim_two():
    assert max_abs_diff(negation_w(2).entries, np.eye(2)) == 0


def test_negation_w_dim_four_permutation():
    w = negation_w(4)
    assert max_abs_diff(
        apply_to_subsystem(w, 1, basis_state(4, 1, [1])).amplitudes,
        basis_state(4, 1, [3]).amplitudes,
    ) == 0
    assert max_abs_diff(
        apply_to_subsystem(w, 1, basis_state(4, 1, [2])).amplitudes,
        basis_state(4, 1, [2]).amplitudes,
    ) == 0


@pytest.mark.parametrize("dim", range(2, 9))
def test_negation_w_self_inverse(dim):
    w = negation_w(dim).entries
    assert max_abs_diff(w @ w, np.eye(dim)) == 0


def test_conjugate_vector_fixes_real_states():
    s = QuditRegisterState(2, 1, np.array([0.6, 0.8]))
    assert max_abs_diff(conjugate_vector(s).amplitudes, s.amplitudes) == 0


def test_conjugate_vector_flips_imaginary_part():
    s = QuditRegisterState(2, 1, np.array([1, 1j]) / np.sqrt(2))
    assert max_abs_diff(conjugate_vector(s).amplitudes, np.array([1, -1j]) / np.sqrt(2)) < 1e-15


def test_conjugate_vector_involution(rng):
    s = random_state(5, 1, rng)
    assert max_abs_diff(conjugate_vector(conjugate_vector(s)).amplitudes, s.amplitudes) == 0


def test_conjugate_vector_rejects_multi_qudit(rng):
    with pytest.raises(ValueError):
        conjugate_vector(random_state(2, 2, rng))


def test_conditional_shift_unitary_on_entangled_input(rng):
    # a shared Bell pair is not a product state; the gate must still permute
    joint = tensor(random_state(3, 1, rng), bell_state(3, (2, 1)))
    out = conditional_shift(joint, 1, 3, B)
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12
