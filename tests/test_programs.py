import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditproc import (
    BellLabel,
    DenseOperator,
    HsExpansion,
    TRACELESS_QUBIT_LABELS,
    basis_state,
    bell_basis_matrix,
    bell_state,
    example1_operator,
    example2_operator,
    exchange_operator,
    family_operator,
    hs_expand,
    inner_product,
    measurement_for_labels,
    measurement_full,
    measurement_restricted,
    orthogonal_qubit_state,
    prepare_exchange_program,
    prepare_reflection_program,
    program_from_expansion,
    random_operator,
    random_state,
    random_unitary,
    reflection_operator,
    reflection_program_factored,
    u_mn,
)
from quditproc import programs

from conftest import max_abs_diff, reconstruct


def reflection_coeffs_closed_form(phi):
    """Independent oracle: q_mn = d_m0 d_n0 - (2/N) sum_k e^{2 pi i k m/N} b_k* b_{k-n}."""
    b = phi.amplitudes
    n_dim = phi.dim
    q = np.zeros((n_dim, n_dim), dtype=complex)
    for m in range(n_dim):
        for n in range(n_dim):
            total = 0.0
            for k in range(n_dim):
                total += np.exp(2j * np.pi * k * m / n_dim) * np.conj(b[k]) * b[(k - n) % n_dim]
            q[m, n] = (1.0 if (m, n) == (0, 0) else 0.0) - (2.0 / n_dim) * total
    return q


def test_expand_identity():
    exp = hs_expand(DenseOperator(3, np.eye(3)))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1
    assert max_abs_diff(exp.coeffs, expected) < 1e-14


def test_expand_qubit_reflection_matches_pauli_coefficients(rng):
    for _ in range(10):
        phi = random_state(2, 1, rng)
        mu, nu = phi.amplitudes
        q = hs_expand(reflection_operator(phi)).coeffs
        assert abs(q[0, 0]) < 1e-12
        assert abs(q[0, 1] - (-(mu * np.conj(nu) + np.conj(mu) * nu))) < 1e-12
        assert abs(q[1, 1] - (mu * np.conj(nu) - np.conj(mu) * nu)) < 1e-12
        assert abs(q[1, 0] - (abs(nu) ** 2 - abs(mu) ** 2)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_expand_reflection_matches_general_closed_form(dim, rng):
    for _ in range(5):
        phi = random_state(dim, 1, rng)
        q = hs_expand(reflection_operator(phi)).coeffs
        assert max_abs_diff(q, reflection_coeffs_closed_form(phi)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_expansion_round_trip_and_parseval(dim, rng):
    for _ in range(20):
        op = random_operator(dim, rng)
        exp = hs_expand(op)
        assert max_abs_diff(reconstruct(exp), op.entries) < 1e-10
        assert abs(exp.gram_norm - op.gram_trace() / dim) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_expansion_matches_trace_definition(dim, rng):
    # reference: q_mn = Tr[u(m,n)† A] / N, one basis operator at a time
    op = random_operator(dim, rng)
    expected = np.array(
        [
            [np.trace(u_mn(dim, (m, n)).entries.conj().T @ op.entries) / dim for n in range(dim)]
            for m in range(dim)
        ]
    )
    coeffs = hs_expand(op).coeffs
    assert max_abs_diff(coeffs, expected) / np.max(np.abs(expected)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_support_matches_label_loop(dim, rng):
    # reference: the row-major comprehension over every label; N = 8 takes the
    # l = 3 family for a sparse support, the others a dense random operator
    exp = hs_expand(family_operator(3, 0.4) if dim == 8 else random_operator(dim, rng))
    mags = np.abs(exp.coeffs)
    cut = 1e-10 * mags.max()
    expected = tuple(
        (m, n) for m in range(dim) for n in range(dim) if mags[m, n] > cut
    )
    support = exp.support()
    assert support == expected
    assert exp.support_size() == len(expected)
    assert all(type(m) is int and type(n) is int for m, n in support)
    assert all(isinstance(label, BellLabel) for label in support)


def test_expand_rejects_zero_operator():
    with pytest.raises(ValueError):
        hs_expand(DenseOperator(2, np.zeros((2, 2))))


@pytest.mark.parametrize(
    "table, message",
    [
        pytest.param(np.zeros((2, 2)), "zero operator", id="zeros"),
        pytest.param(np.full((2, 2), np.nan), "must be finite", id="nan"),
        pytest.param(np.array([[1, 0], [np.inf, 0]]), "must be finite", id="inf"),
        pytest.param(np.array([[1, 0], [0, complex(0, np.nan)]]), "must be finite", id="nan-imaginary"),
    ],
)
def test_expansion_without_a_program_is_refused_at_construction(table, message):
    # refused with a ValueError before any program or measurement divides by
    # its norm (the suite turns a RuntimeWarning into an error)
    with pytest.raises(ValueError, match=message):
        HsExpansion(2, table)


def test_program_for_basis_operator_is_its_bell_state():
    for dim in (2, 3, 4):
        prog = program_from_expansion(hs_expand(u_mn(dim, (1, dim - 1))))
        assert hs_expand(u_mn(dim, (1, dim - 1))).support() == ((1, dim - 1),)
        expected = bell_state(dim, (1, dim - 1)).amplitudes
        # a basis operator's program is its own Bell state up to the
        # coefficient's phase, which here is +1
        assert max_abs_diff(prog.state.amplitudes, expected) < 1e-12


def test_reflection_program_coefficient_vector(rng):
    phi = random_state(2, 1, rng)
    mu, nu = phi.amplitudes
    prog = program_from_expansion(hs_expand(reflection_operator(phi)))
    expected = (
        -(mu * np.conj(nu) + np.conj(mu) * nu) * bell_state(2, (0, 1)).amplitudes
        + (mu * np.conj(nu) - np.conj(mu) * nu) * bell_state(2, (1, 1)).amplitudes
        + (abs(nu) ** 2 - abs(mu) ** 2) * bell_state(2, (1, 0)).amplitudes
    )
    assert max_abs_diff(prog.state.amplitudes, expected) < 1e-12


def test_two_term_rotation_program():
    theta = 0.7
    prog = program_from_expansion(hs_expand(example2_operator(theta, 6)))
    expected = np.cos(theta) * bell_state(6, (0, 0)).amplitudes + 1j * np.sin(theta) * bell_state(
        6, (0, 3)
    ).amplitudes
    assert max_abs_diff(prog.state.amplitudes, expected) < 1e-12


@pytest.mark.parametrize("dim", range(2, 9))
def test_full_measurement_is_normalized(dim):
    m = measurement_full(dim)
    assert abs(np.linalg.norm(m.amplitudes) - 1) < 1e-12


def test_full_measurement_overlap_with_each_bell():
    dim = 4
    m = measurement_full(dim)
    for mm in range(dim):
        for nn in range(dim):
            assert abs(inner_product(m, bell_state(dim, (mm, nn))) - 1 / dim) < 1e-12


def test_three_label_measurement_matches_qubit_recipe():
    m = measurement_for_labels(2, TRACELESS_QUBIT_LABELS)
    expected = (
        bell_state(2, (0, 1)).amplitudes
        + bell_state(2, (1, 1)).amplitudes
        + bell_state(2, (1, 0)).amplitudes
    ) / np.sqrt(3)
    assert max_abs_diff(m.amplitudes, expected) < 1e-15


def test_restricted_measurement_single_support_is_bell_state():
    exp = hs_expand(u_mn(3, (2, 1)))
    m = measurement_restricted(exp)
    assert exp.support() == ((2, 1),)
    by_labels = measurement_for_labels(3, exp.support())
    assert max_abs_diff(m.amplitudes, by_labels.amplitudes) == 0.0
    assert max_abs_diff(np.abs(m.amplitudes), np.abs(bell_state(3, (2, 1)).amplitudes)) < 1e-12


def test_restricted_measurement_two_term_rotation():
    exp = hs_expand(example2_operator(0.3, 6))
    m = measurement_restricted(exp)
    assert set(exp.support()) == {(0, 0), (0, 3)}
    by_labels = measurement_for_labels(6, exp.support())
    assert max_abs_diff(m.amplitudes, by_labels.amplitudes) == 0.0
    expected = (bell_state(6, (0, 0)).amplitudes + bell_state(6, (0, 3)).amplitudes) / np.sqrt(2)
    assert max_abs_diff(m.amplitudes, expected) < 1e-12


def test_measurement_rejects_empty_labels():
    with pytest.raises(ValueError):
        measurement_for_labels(2, [])


def test_measurement_rejects_labels_equal_mod_n():
    with pytest.raises(ValueError, match="duplicate"):
        measurement_for_labels(3, [(1, 2), (4, -1)])


def weight_loop_measurement(dim, labels) -> np.ndarray:
    """Reference: the uniform Bell superposition built one weight per label."""
    labels = tuple(BellLabel(*lab).reduced(dim) for lab in labels)
    weights = np.zeros(dim * dim, dtype=complex)
    for m, n in labels:
        weights[m * dim + n] = 1.0 / np.sqrt(len(labels))
    return bell_basis_matrix(dim, weights)


@st.composite
def label_sets(draw):
    """(dim, labels): distinct labels mod N, drawn unreduced, or every label."""
    dim = draw(st.integers(2, 16))
    if draw(st.booleans()):
        return dim, [(m, n) for m in range(dim) for n in range(dim)]
    flat = draw(st.lists(st.integers(0, dim * dim - 1), min_size=1, max_size=dim * dim, unique=True))
    wraps = st.integers(-3, 3)
    return dim, [(f // dim + dim * draw(wraps), f % dim + dim * draw(wraps)) for f in flat]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(label_sets(), st.integers(0, 2**32 - 1))
def test_measurements_equal_the_weight_loop(case, seed):
    dim, labels = case
    expected = weight_loop_measurement(dim, labels)
    assert np.array_equal(measurement_for_labels(dim, labels).amplitudes, expected)
    # an expansion whose support is exactly these labels, magnitudes 1 to 2
    coeffs = np.zeros((dim, dim), dtype=complex)
    reduced = np.array(labels) % dim
    coeffs[reduced[:, 0], reduced[:, 1]] = np.exp(1j * np.random.default_rng(seed).uniform(0, 7, len(labels)))
    coeffs *= 1 + (np.arange(dim * dim).reshape(dim, dim) % 2)
    assert np.array_equal(measurement_restricted(HsExpansion(dim, coeffs)).amplitudes, expected)
    if len(labels) == dim * dim:
        assert np.array_equal(measurement_full(dim).amplitudes, expected)


@pytest.mark.parametrize(
    "build",
    [pytest.param(lambda rng, n=n: random_unitary(n, rng), id=f"haar-{n}") for n in (2, 7, 16)]
    + [pytest.param(lambda rng, n=n: random_operator(n, rng), id=f"ginibre-{n}") for n in (3, 12)]
    + [
        pytest.param(lambda rng: family_operator(3, 0.4), id="family"),
        pytest.param(lambda rng: example2_operator(0.3, 6), id="example2"),
        pytest.param(lambda rng: example1_operator(0.7), id="example1"),
        pytest.param(lambda rng: u_mn(5, (2, 4)), id="u_mn"),
    ],
)
def test_restricted_measurement_equals_the_label_construction(build, rng):
    exp = hs_expand(build(rng))
    by_labels = measurement_for_labels(exp.dim, exp.support())
    assert np.array_equal(measurement_restricted(exp).amplitudes, by_labels.amplitudes)


def test_restricted_measurement_reads_the_support_mask_directly(monkeypatch, rng):
    exp = hs_expand(random_unitary(4, rng))
    expected = measurement_for_labels(4, exp.support()).amplitudes

    def forbidden(*args):
        raise AssertionError("measurement_restricted must not go through support labels")

    monkeypatch.setattr(HsExpansion, "support", forbidden)
    monkeypatch.setattr(programs, "measurement_for_labels", forbidden)
    assert np.array_equal(measurement_restricted(exp).amplitudes, expected)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_family_support_size(l):
    exp = hs_expand(family_operator(l, 0.37))
    support = exp.support()
    assert len(support) == 1 + 2 ** (l - 1)
    # identity label plus odd-phase diagonals only
    assert (0, 0) in support
    for m, n in support:
        assert n == 0
        if (m, n) != (0, 0):
            assert m % 2 == 1


def test_family_l1_is_qubit_phase_rotation():
    exp = hs_expand(family_operator(1, 0.37))
    assert set(exp.support()) == {(0, 0), (1, 0)}


def test_family_l2_equals_example1():
    assert max_abs_diff(family_operator(2, 1.1).entries, example1_operator(1.1).entries) == 0


def test_example1_program_at_zero_angle_is_shared_bell_state():
    prog = program_from_expansion(hs_expand(example1_operator(0.0)))
    assert max_abs_diff(prog.state.amplitudes, bell_state(4, (0, 0)).amplitudes) < 1e-12
    assert hs_expand(example1_operator(0.0)).support() == ((0, 0),)


def test_example1_diagonal_form():
    phi = 0.9
    expected = np.diag([np.exp(1j * phi)] * 2 + [np.exp(-1j * phi)] * 2)
    assert max_abs_diff(example1_operator(phi).entries, expected) < 1e-12


def test_example1_generic_support_is_three():
    assert len(hs_expand(example1_operator(0.7)).support()) == 3


def test_example2_program_limits():
    zero = program_from_expansion(hs_expand(example2_operator(0.0, 4)))
    assert max_abs_diff(zero.state.amplitudes, bell_state(4, (0, 0)).amplitudes) < 1e-12
    quarter = program_from_expansion(hs_expand(example2_operator(np.pi / 2, 4)))
    assert max_abs_diff(quarter.state.amplitudes, 1j * bell_state(4, (0, 2)).amplitudes) < 1e-12


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_example2_operator_unitary(dim):
    for theta in np.linspace(0.0, 2.1, 5):
        assert example2_operator(theta, dim).is_unitary(1e-12)


def test_example2_rejects_odd_dimension():
    with pytest.raises(ValueError):
        example2_operator(0.3, 3)


def test_reflection_program_for_axis_state():
    # phi = |0>: operator diag(-1, 1), single support label with weight -1
    phi = basis_state(2, 1, [0])
    prog = program_from_expansion(hs_expand(reflection_operator(phi)))
    assert hs_expand(reflection_operator(phi)).support() == ((1, 0),)
    assert max_abs_diff(prog.state.amplitudes, -bell_state(2, (1, 0)).amplitudes) < 1e-12
    q = hs_expand(reflection_operator(phi)).coeffs
    assert abs(q[1, 0] + 1) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_reflection_is_self_adjoint_unitary(dim, rng):
    op = reflection_operator(random_state(dim, 1, rng))
    assert op.is_unitary(1e-12)
    assert max_abs_diff(op.entries, op.entries.conj().T) < 1e-12
    assert abs(op.gram_trace() - dim) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_factored_reflection_program_matches_synthesis(dim, rng):
    for _ in range(5):
        phi = random_state(dim, 1, rng)
        a = reflection_program_factored(phi).amplitudes
        b = program_from_expansion(hs_expand(reflection_operator(phi))).state.amplitudes
        assert max_abs_diff(a, b) < 1e-10


def test_prepared_reflection_program_matches_synthesis(rng):
    for _ in range(10):
        phi = random_state(2, 1, rng)
        a = prepare_reflection_program(phi).amplitudes
        b = program_from_expansion(hs_expand(reflection_operator(phi))).state.amplitudes
        assert max_abs_diff(a, b) < 1e-12


def test_prepared_exchange_program_matches_synthesis(rng):
    for _ in range(10):
        phi = random_state(2, 1, rng)
        a = prepare_exchange_program(phi).amplitudes
        b = program_from_expansion(hs_expand(exchange_operator(phi))).state.amplitudes
        assert max_abs_diff(a, b) < 1e-12


def test_orthogonal_qubit_state_is_orthogonal(rng):
    phi = random_state(2, 1, rng)
    assert abs(inner_product(orthogonal_qubit_state(phi), phi)) < 1e-14


def reference_program(op) -> np.ndarray:
    """sum_mn q_mn |Xi_mn>, normalized, with q_mn = Tr[u(m,n)† A] / N taken from u_mn."""
    dim = op.dim
    amps = sum(
        np.trace(u_mn(dim, (m, n)).entries.conj().T @ op.entries) / dim * bell_state(dim, (m, n)).amplitudes
        for m in range(dim)
        for n in range(dim)
    )
    return amps / np.linalg.norm(amps)


def test_named_programs_match_generic_synthesis(rng):
    phi = random_state(3, 1, rng)
    ops = [reflection_operator(phi), example1_operator(0.7), family_operator(3, 0.43), example2_operator(0.3, 6)]
    for op in ops:
        prog = program_from_expansion(hs_expand(op))
        assert max_abs_diff(prog.state.amplitudes, reference_program(op)) < 1e-12
        assert abs(np.linalg.norm(prog.state.amplitudes) - 1) < 1e-12


def test_unitary_program_norm_and_support_count(rng):
    for dim in (2, 3, 4):
        op = random_unitary(dim, rng)
        exp = hs_expand(op)
        prog = program_from_expansion(hs_expand(op))
        assert abs(np.linalg.norm(prog.state.amplitudes) - 1) < 1e-12
        above = np.count_nonzero(np.abs(exp.coeffs) > 1e-10 * np.abs(exp.coeffs).max())
        assert len(exp.support()) == above
