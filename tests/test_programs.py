import copy

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
    partial_inner_product,
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
from quditproc.harness import CATALOG
from quditproc.registers import _kept, _nonzero_span

from conftest import max_abs_diff, reconstruct, reconstruct_reference


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


@pytest.mark.parametrize("dim", range(2, 9))
def test_reconstruct_matches_the_per_label_sum(dim, rng):
    # the FFT form of the test reference against the sum over u(m,n)
    for _ in range(5):
        exp = HsExpansion(dim, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        expected = reconstruct_reference(exp)
        assert max_abs_diff(reconstruct(exp), expected) / np.max(np.abs(expected)) < 1e-12


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
    # refused before anything reads the table, and nothing is kept
    op = DenseOperator(2, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="cannot expand the zero operator"):
        hs_expand(op)
    assert "_hs_expansion" not in vars(op)


@pytest.mark.parametrize(
    "table, message",
    [
        pytest.param(np.zeros((2, 2)), "zero operator", id="zeros"),
        pytest.param(np.full((2, 2), np.nan), "must be finite", id="nan"),
        pytest.param(np.array([[1, 0], [np.inf, 0]]), "must be finite", id="inf"),
        pytest.param(np.array([[1, 0], [0, complex(0, np.nan)]]), "must be finite", id="nan-imaginary"),
        # finite parts whose magnitude overflows: sum |q|^2 would be inf
        pytest.param(np.array([[1.5e308 + 1.5e308j, 0], [0, 0]]), "must be finite", id="magnitude-overflow"),
        pytest.param(np.eye(3), "must be 2x2", id="wrong-shape"),
    ],
)
def test_expansion_without_a_program_is_refused_at_construction(table, message):
    # refused with a ValueError before any program or measurement divides by
    # its norm (the suite turns a RuntimeWarning into an error)
    with pytest.raises(ValueError, match=message):
        HsExpansion(2, table)


def test_expand_rejects_a_non_finite_operator():
    for entries in ([[np.nan, 0], [0, 1]], [[1, np.inf], [0, 1]], [[1, 0], [0, complex(0, -np.inf)]]):
        op = DenseOperator(2, entries)
        with pytest.raises(ValueError, match="operator entries must be finite"):
            hs_expand(op)
        assert "_hs_expansion" not in vars(op)


@pytest.mark.parametrize(
    "entries, message",
    [
        # Tr(A†A) is 0.0: a subnormal entry squares to zero
        pytest.param([[5e-324, 0], [0, 0]], r"Tr\(A†A\) underflows to 0.0", id="zero-sum"),
        # Tr(A†A) = 1e-320 is subnormal: the program would miss NORM_TOL
        pytest.param([[1e-160, 0], [0, 0]], r"Tr\(A†A\) underflows to 1e-320", id="subnormal-sum"),
        pytest.param([[1e-155, 0], [0, 1e-155j]], r"Tr\(A†A\) underflows", id="subnormal-sum-of-two"),
        # finite entries whose squares overflow
        pytest.param([[1e200, 0], [0, 1e200]], r"Tr\(A†A\) overflows to inf", id="overflow"),
        # each square is finite, their sum is not
        pytest.param([[1e154, 1e154], [1e154, 1e154]], r"Tr\(A†A\) overflows to inf", id="overflowing-sum"),
    ],
)
def test_expand_rejects_a_sum_of_squares_that_is_not_a_normal_float(entries, message):
    # refused by hs_expand with no RuntimeWarning first (the suite makes one an
    # error), and nothing is kept
    op = DenseOperator(2, entries)
    with pytest.raises(ValueError, match=message):
        hs_expand(op)
    assert "_hs_expansion" not in vars(op)


def test_expand_accepts_a_tiny_normal_sum_of_squares():
    # Tr(A†A) = 2e-300 is normal: the program is exact and its norm checks pass
    op = DenseOperator(2, [[1e-150, 0], [0, 1e-150]])
    state = program_from_expansion(hs_expand(op)).state.amplitudes
    assert np.allclose(np.abs(state[state != 0]), 1 / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: orthogonal_qubit_state(basis_state(3, 1, [0])), "single-qubit", id="partner-of-a-qutrit"),
        pytest.param(lambda: reflection_operator(bell_state(2, (0, 0))), "single-qudit", id="reflection-two-qudits"),
        pytest.param(
            lambda: reflection_program_factored(bell_state(2, (0, 0))), "single-qudit", id="factored-two-qudits"
        ),
        pytest.param(lambda: family_operator(0, 0.3), "at least one qubit", id="family-of-no-qubits"),
    ],
)
def test_named_operators_reject_inputs_outside_their_domain(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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


@pytest.mark.parametrize("dim", range(2, 257))
def test_full_measurement_is_zero_ket_plus(dim):
    # sum_mn |Xi_mn> / N = |0> ⊗ |+>: 1/sqrt(N) at flat indices 0..N-1 and
    # +0.0 elsewhere, bit for bit (the bytes compare the sign of zero too), so
    # post-selection under it reads only those columns of the joint state. The
    # Bell-basis FFT of N^2 equal weights leaves round-off (about 1e-17 at
    # N = 5) past index N at every N not of the form 2^a 3^b, which would widen
    # that span to almost every column.
    meas = measurement_full(dim)
    closed_form = np.zeros(dim * dim, dtype=complex)
    closed_form[:dim] = 1 / np.sqrt(dim)
    assert meas.amplitudes.tobytes() == closed_form.tobytes()
    assert _kept(meas, "_nonzero_span", _nonzero_span) == (0, dim)
    assert max_abs_diff(meas.amplitudes, bell_basis_matrix(dim, np.ones(dim * dim) / dim)) <= 1e-15


@pytest.mark.parametrize("dim", [5, 7, 29, 127])
def test_every_all_labels_measurement_is_the_shared_full_one(dim, rng):
    # a Haar unitary has every label in its support, and its measurement is
    # the one shared value; the same labels by name build an equal one
    assert measurement_restricted(hs_expand(random_unitary(dim, rng))) is measurement_full(dim)
    labels = [(m, n) for m in range(dim) for n in range(dim)]
    assert measurement_for_labels(dim, labels) == measurement_full(dim)


def test_an_expansion_keeps_its_program_and_support_measurement():
    # one program and one support measurement per expansion, as one expansion
    # per operator; a copy of the operator builds equal values afresh
    op = example2_operator(0.3, 6)
    expansion = hs_expand(op)
    program, meas = program_from_expansion(expansion), measurement_restricted(expansion)
    assert program_from_expansion(expansion) is program
    assert measurement_restricted(expansion) is meas
    assert meas is not measurement_full(6)
    fresh = hs_expand(DenseOperator(6, op.entries))
    assert program_from_expansion(fresh) == program and program_from_expansion(fresh) is not program
    assert measurement_restricted(fresh) == meas and measurement_restricted(fresh) is not meas


def column_kind_mask(dim, rng) -> np.ndarray:
    """A Bell-label mask whose columns are full, empty or partial, at least one set."""
    kinds = rng.integers(0, 3, dim)
    kinds[rng.integers(dim)] = 0
    mask = (kinds == 0) | ((kinds == 2) & (rng.random((dim, dim)) < 0.5))
    if dim > 2:
        # one column with every label but one, the partial column nearest full
        mask[:, 1] = True
        mask[rng.integers(dim), 1] = False
    return mask


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3, 5, 6, 28, 29, 64, 127])
def test_full_columns_are_closed_form_and_the_rest_is_the_fft(dim, seed):
    # Summed over every m, column n of the measurement is sqrt(N / S) at k = 0,
    # flat index (0, -n mod N), and exactly zero at its other N - 1 entries;
    # every entry of a partial or empty column is the Bell-basis FFT's, bit for bit.
    mask = column_kind_mask(dim, np.random.default_rng([dim, seed]))
    size = np.count_nonzero(mask)
    amps = measurement_for_labels(dim, np.argwhere(mask)).amplitudes.reshape(dim, dim)
    fft = bell_basis_matrix(dim, mask.reshape(-1) / np.sqrt(size)).reshape(dim, dim)
    k = np.arange(dim)
    in_full_column = np.zeros((dim, dim), dtype=bool)
    for n in np.flatnonzero(mask.all(axis=0)):
        column = amps[k, (k - n) % dim]
        assert np.flatnonzero(column).tolist() == [0]
        assert column[0] == pytest.approx(np.sqrt(dim / size), rel=1e-15, abs=0)
        assert not np.signbit(column.real[1:]).any() and not np.signbit(column.imag).any()
        in_full_column[k, (k - n) % dim] = True
    rest = ~in_full_column
    assert amps[rest].tobytes() == fft[rest].tobytes()


def test_full_measurement_span_is_kept_once():
    meas = measurement_full(64)
    partial_inner_product(meas, random_state(64, 3, np.random.default_rng(0)))
    assert vars(meas)["_nonzero_span"] == (0, 64)


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
    """Reference: the uniform Bell superposition built one weight per label.

    Each full column (every m set) is then written in closed form: 1 / sqrt(S / N)
    at k = 0, the loop's FFT's round-off replaced by zeros elsewhere.
    """
    labels = tuple(BellLabel(*lab).reduced(dim) for lab in labels)
    weights = np.zeros(dim * dim, dtype=complex)
    for m, n in labels:
        weights[m * dim + n] = 1.0 / np.sqrt(len(labels))
    amps = bell_basis_matrix(dim, weights)
    for n in range(dim):
        if all(weights[m * dim + n] for m in range(dim)):
            amps[[k * dim + (k - n) % dim for k in range(dim)]] = 0.0
            amps[(-n) % dim] = 1 / np.sqrt(len(labels) / dim)
    return amps


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
    if len(labels) == dim * dim:
        # every label: the shared closed form |0> ⊗ |+>
        assert np.array_equal(measurement_full(dim).amplitudes, expected)
    assert np.array_equal(measurement_for_labels(dim, labels).amplitudes, expected)
    # an expansion whose support is exactly these labels, magnitudes 1 to 2
    coeffs = np.zeros((dim, dim), dtype=complex)
    reduced = np.array(labels) % dim
    coeffs[reduced[:, 0], reduced[:, 1]] = np.exp(1j * np.random.default_rng(seed).uniform(0, 7, len(labels)))
    coeffs *= 1 + (np.arange(dim * dim).reshape(dim, dim) % 2)
    assert np.array_equal(measurement_restricted(HsExpansion(dim, coeffs)).amplitudes, expected)


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


# Dimensions at which the gathered program is held to the Bell-basis FFT.
GATHER_DIMS = [*range(2, 10), 16, 64, 127, 256]


def catalog_operators(dim: int, rng) -> dict:
    """Every catalog operator that exists at `dim`, built by its catalog entry, by name."""
    params = {
        "identity": {},
        "u_mn": {"m": 1, "n": -1},
        "reflection": {"phi": "random"},
        "random_unitary": {},
        "random_operator": {},
        # unequal scales over the entries, far from 1 overall
        "inline": {"matrix": 1e-40 * rng.normal(size=(dim, dim)) * np.exp(1j * rng.uniform(0, 7, (dim, dim)))
                   * np.arange(1, dim + 1), "label": "inline"},
    }
    if dim == 2:
        params["exchange"] = {"phi": "random"}
    if dim == 4:
        params["example1"] = {"phi": 0.7}
    if dim & (dim - 1) == 0:
        params["family"] = {"l": dim.bit_length() - 1, "phi": 0.4}
    if dim % 2 == 0:
        params["example2"] = {"theta": 0.3}
    assert params.keys() <= CATALOG.keys()
    return {name: CATALOG[name].build(p, dim, rng) for name, p in params.items()}


def bell_fft_program(expansion) -> np.ndarray:
    """Reference: sum_mn q_mn |Xi_mn> / ||q||, the Bell-basis FFT of the normalized table."""
    q = expansion.coeffs.reshape(-1)
    return bell_basis_matrix(expansion.dim, q / np.linalg.norm(q))


@pytest.mark.parametrize("dim", GATHER_DIMS)
def test_gathered_program_equals_the_bell_fft_of_the_table(dim):
    ops = catalog_operators(dim, np.random.default_rng(dim))
    assert {"identity", "u_mn", "reflection", "random_unitary", "random_operator", "inline"} <= ops.keys()
    for name, op in ops.items():
        exp = hs_expand(op)
        got = program_from_expansion(exp).state.amplitudes
        assert max_abs_diff(got, bell_fft_program(exp)) < 1e-12, name


def test_every_catalog_operator_is_held_to_the_bell_fft():
    names = set()
    for dim in GATHER_DIMS:
        names |= catalog_operators(dim, np.random.default_rng(dim)).keys()
    assert names == CATALOG.keys()


def test_the_program_reads_no_coefficient_table_and_runs_no_fft(monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("the program must not run an FFT")

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, forbidden)
    op = random_operator(16, rng)
    exp = hs_expand(op)
    prog = program_from_expansion(exp)
    assert {"coeffs", "gram_norm"}.isdisjoint(vars(exp))
    assert program_from_expansion(hs_expand(op)) is prog
    k = np.arange(16)
    expected = op.entries[(k - 2 * k[:, None]) % 16, -k[:, None] % 16] / np.sqrt(op.gram_trace())
    assert np.array_equal(prog.state.amplitudes, expected.reshape(-1))


def test_an_expansion_without_its_operator_has_no_program(rng):
    # made from a table, or a copy (which carries the table alone)
    exp = hs_expand(random_unitary(3, rng))
    for tabled in (HsExpansion(3, exp.coeffs), copy.copy(exp)):
        assert tabled == exp
        with pytest.raises(ValueError, match="only an operator's own expansion"):
            program_from_expansion(tabled)
        assert "_program" not in vars(tabled)
