import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditproc import (
    DenseOperator,
    GeneralDiagonal,
    QubitCnotNetwork,
    QuditRegisterState,
    QuditShiftNetwork,
    TensorQubitArray,
    StateAnnihilatedError,
    TRACELESS_QUBIT_LABELS,
    UnnormalizedVector,
    apply_processor,
    basis_state,
    bell_basis_matrix,
    bell_state,
    example1_operator,
    family_operator,
    hs_expand,
    inner_product,
    measurement_for_labels,
    measurement_full,
    measurement_restricted,
    oracle_apply,
    partial_inner_product,
    post_select,
    predicted_probability,
    program_from_expansion,
    random_operator,
    random_state,
    random_unitary,
    reflection_operator,
    run_experiment,
    u_mn,
)

from quditproc.registers import _adopt

from conftest import bell_coefficients, k_bell, max_abs_diff


def test_bell_program_with_matching_measurement_always_succeeds(rng):
    dim = 3
    psi = random_state(dim, 1, rng)
    label = (2, 1)
    joint = apply_processor(QuditShiftNetwork(dim), psi, bell_state(dim, label))
    meas = measurement_for_labels(dim, [label])
    oracle = oracle_apply(u_mn(dim, label), psi)
    outcome = post_select(joint, meas, oracle)
    assert abs(outcome.probability - 1) < 1e-12
    assert outcome.oracle_fidelity > 1 - 1e-12
    assert max_abs_diff(
        outcome.data_state.amplitudes, outcome.global_phase * oracle.amplitudes
    ) < 1e-12


def test_qubit_reflection_probability_one_third(rng):
    meas = measurement_for_labels(2, TRACELESS_QUBIT_LABELS)
    for _ in range(10):
        phi = random_state(2, 1, rng)
        psi = random_state(2, 1, rng)
        op = reflection_operator(phi)
        program = program_from_expansion(hs_expand(op)).state
        joint = apply_processor(QubitCnotNetwork(), psi, program)
        outcome = post_select(joint, meas, oracle_apply(op, psi))
        assert abs(outcome.probability - 1 / 3) < 1e-10
        assert outcome.oracle_fidelity >= 1 - 1e-10


def test_generic_unitary_full_measurement_probability(rng):
    dim = 3
    outcome = run_experiment(
        QuditShiftNetwork(dim), random_unitary(dim, rng), random_state(dim, 1, rng), "full"
    )
    assert abs(outcome.probability - 1 / 9) < 1e-10


def test_oracle_identity(rng):
    psi = random_state(3, 1, rng)
    out = oracle_apply(DenseOperator(3, np.eye(3)), psi)
    assert max_abs_diff(out.amplitudes, psi.amplitudes) < 1e-15


def test_oracle_projector_renormalizes():
    plus = (basis_state(2, 1, [0]).amplitudes + basis_state(2, 1, [1]).amplitudes) / np.sqrt(2)
    from quditproc import QuditRegisterState

    psi = QuditRegisterState(2, 1, plus)
    proj = DenseOperator(2, np.diag([1.0, 0.0]))
    out = oracle_apply(proj, psi)
    assert max_abs_diff(out.amplitudes, basis_state(2, 1, [0]).amplitudes) < 1e-12


def test_oracle_reflection_flips_its_axis(rng):
    phi = random_state(2, 1, rng)
    out = oracle_apply(reflection_operator(phi), phi)
    assert max_abs_diff(out.amplitudes, -phi.amplitudes) < 1e-12


def test_oracle_raises_on_annihilation():
    proj = DenseOperator(2, np.diag([1.0, 0.0]))
    with pytest.raises(StateAnnihilatedError):
        oracle_apply(proj, basis_state(2, 1, [1]))


def test_oracle_cutoff_scales_with_the_operator(rng):
    # a tiny but nonsingular operator still has an oracle state
    dim = 4
    u = random_unitary(dim, rng)
    psi = random_state(dim, 1, rng)
    tiny = DenseOperator(dim, 1e-100 * u.entries)
    expected = oracle_apply(u, psi).amplitudes
    assert max_abs_diff(oracle_apply(tiny, psi).amplitudes, expected) < 1e-12
    outcome = run_experiment(QuditShiftNetwork(dim), tiny, psi, "full")
    assert abs(outcome.probability - 1 / dim**2) < 1e-12
    assert outcome.oracle_fidelity > 1 - 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
def test_oracle_raises_on_null_vector_at_any_scale(scale):
    proj = DenseOperator(3, scale * np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(StateAnnihilatedError):
        oracle_apply(proj, basis_state(3, 1, [2]))


def test_run_experiment_handles_annihilated_state():
    proj = DenseOperator(2, np.diag([1.0, 0.0]))
    outcome = run_experiment(QuditShiftNetwork(2), proj, basis_state(2, 1, [1]), "full")
    assert outcome.probability < 1e-14
    assert outcome.data_state is None
    assert outcome.global_phase is None


def test_predicted_probability_unitary_cases(rng):
    for dim in (2, 3, 4, 5):
        u = random_unitary(dim, rng)
        psi = random_state(dim, 1, rng)
        assert abs(predicted_probability(u, psi, "full") - 1 / dim**2) < 1e-12


def test_predicted_probability_projector_case():
    # ||A psi||^2 = 1/2, Tr(A†A) = 1, N = 2 -> p = (1/2) / 2 = 1/4
    plus = np.array([1, 1]) / np.sqrt(2)
    from quditproc import QuditRegisterState

    psi = QuditRegisterState(2, 1, plus)
    proj = DenseOperator(2, np.diag([1.0, 0.0]))
    assert abs(predicted_probability(proj, psi, "full") - 0.25) < 1e-12
    outcome = run_experiment(QuditShiftNetwork(2), proj, psi, "full")
    assert abs(outcome.probability - 0.25) < 1e-10
    assert outcome.oracle_fidelity >= 1 - 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_simulation_matches_closed_form_for_random_operators(dim, rng):
    proc = QuditShiftNetwork(dim)
    for _ in range(20):
        op = random_operator(dim, rng)
        psi = random_state(dim, 1, rng)
        for kind in ("full", "support"):
            outcome = run_experiment(proc, op, psi, kind)
            assert abs(outcome.probability - predicted_probability(op, psi, kind)) < 1e-10


def test_probability_never_exceeds_one(rng):
    for dim in (2, 3):
        op = random_operator(dim, rng)
        psi = random_state(dim, 1, rng)
        outcome = run_experiment(QuditShiftNetwork(dim), op, psi, "support")
        assert outcome.probability <= 1 + 1e-12


def test_restricted_beats_full_for_unitaries(rng):
    for dim in (2, 3, 4):
        u = random_unitary(dim, rng)
        psi = random_state(dim, 1, rng)
        full = run_experiment(QuditShiftNetwork(dim), u, psi, "full").probability
        restricted = run_experiment(QuditShiftNetwork(dim), u, psi, "support").probability
        assert restricted >= full - 1e-12


def test_probability_state_independent_for_unitaries(rng):
    dim = 3
    u = random_unitary(dim, rng)
    probs = [
        run_experiment(QuditShiftNetwork(dim), u, random_state(dim, 1, rng), "full").probability
        for _ in range(10)
    ]
    assert max(probs) - min(probs) < 1e-10


def test_run_experiment_one_parameter_family(rng):
    outcome = run_experiment(
        QuditShiftNetwork(4), example1_operator(0.7), random_state(4, 1, rng), "support"
    )
    assert abs(outcome.probability - 1 / 3) < 1e-10
    assert outcome.oracle_fidelity >= 1 - 1e-10


def test_run_experiment_validates_processor(rng):
    with pytest.raises(ValueError):
        run_experiment(QubitCnotNetwork(), random_unitary(3, rng), random_state(3, 1, rng))
    with pytest.raises(ValueError):
        run_experiment(QuditShiftNetwork(3), random_unitary(2, rng), random_state(2, 1, rng))
    with pytest.raises(ValueError):
        run_experiment(QuditShiftNetwork(2), random_unitary(2, rng), random_state(2, 1, rng), "typo")


def test_run_experiment_leaves_dimension_checks_to_the_processor(rng):
    diagonal = GeneralDiagonal((u_mn(2, (0, 0)),), (bell_state(2, (0, 0)),))
    for proc in (TensorQubitArray(1), diagonal):
        with pytest.raises(TypeError):
            run_experiment(proc, random_unitary(2, rng), random_state(2, 1, rng))
    with pytest.raises(ValueError):
        run_experiment(QuditShiftNetwork(3), random_unitary(4, rng), random_state(4, 1, rng))
    with pytest.raises(ValueError):
        run_experiment(QubitCnotNetwork(), random_unitary(3, rng), random_state(3, 1, rng))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(oracle_apply, "does not match register size", id="oracle-size"),
        pytest.param(predicted_probability, "do not match", id="prediction-size"),
        pytest.param(
            lambda op, psi: predicted_probability(op, basis_state(3, 1, [0]), "typo"),
            "unknown measurement kind",
            id="prediction-kind",
        ),
    ],
)
def test_oracle_and_prediction_reject_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call(DenseOperator(3, np.eye(3)), basis_state(2, 1, [0]))


def test_post_select_zero_probability_reports_not_raises(rng):
    dim = 2
    psi = random_state(dim, 1, rng)
    # program is one Bell state, measurement an orthogonal one
    joint = apply_processor(QuditShiftNetwork(dim), psi, bell_state(dim, (0, 0)))
    meas = measurement_for_labels(dim, [(1, 0)])
    outcome = post_select(joint, meas)
    assert outcome.probability < 1e-14
    assert outcome.data_state is None


def test_global_phase_relates_data_to_oracle(rng):
    dim = 3
    op = random_unitary(dim, rng)
    psi = random_state(dim, 1, rng)
    outcome = run_experiment(QuditShiftNetwork(dim), op, psi, "full")
    oracle = oracle_apply(op, psi)
    assert abs(abs(outcome.global_phase) - 1) < 1e-12
    assert max_abs_diff(
        outcome.data_state.amplitudes, outcome.global_phase * oracle.amplitudes
    ) < 1e-10


def test_full_vs_restricted_measurement_objects():
    exp = hs_expand(example1_operator(0.7))
    every_label = measurement_for_labels(4, itertools.product(range(4), repeat=2))
    assert max_abs_diff(measurement_full(4).amplitudes, every_label.amplitudes) < 1e-15
    restricted = measurement_restricted(exp)
    assert len(exp.support()) == 3
    by_labels = measurement_for_labels(4, exp.support())
    assert max_abs_diff(restricted.amplitudes, by_labels.amplitudes) == 0.0


def test_fixed_measurement_independent_of_reflection_axis():
    # even a degenerate axis (single-label support) succeeds with 1/3 under
    # the fixed three-label measurement, which never depends on the axis
    meas = measurement_for_labels(2, TRACELESS_QUBIT_LABELS)
    phi = basis_state(2, 1, [0])
    psi = basis_state(2, 1, [1])
    op = reflection_operator(phi)
    joint = apply_processor(QubitCnotNetwork(), psi, program_from_expansion(hs_expand(op)).state)
    outcome = post_select(joint, meas, oracle_apply(op, psi))
    assert abs(outcome.probability - 1 / 3) < 1e-12
    assert outcome.oracle_fidelity >= 1 - 1e-12


@pytest.mark.parametrize(
    "proc", [QuditShiftNetwork(3), QuditShiftNetwork(5), QubitCnotNetwork()], ids=["shift-3", "shift-5", "cnot"]
)
@pytest.mark.parametrize("kind", ["full", "support"])
def test_a_batch_equals_one_state_calls(proc, kind, rng):
    # One operator value run on a batch of states, which reuses the program and
    # measurement kept on its expansion, equals a fresh copy of it per state.
    dim = proc.dim
    # A unitary with its first column zeroed annihilates |0>, the second state.
    entries = random_unitary(dim, rng).entries.copy()
    entries[:, 0] = 0.0
    op = DenseOperator(dim, entries)
    states = [random_state(dim, 1, rng) for _ in range(3)]
    states.insert(1, basis_state(dim, 1, [0]))
    batch = [run_experiment(proc, op, psi, kind) for psi in states]
    assert batch[1].data_state is None
    assert batch == [run_experiment(proc, copy.copy(op), psi, kind) for psi in states]


def _assert_constructed_like(value, expected):
    assert type(value) is type(expected)
    assert (value.dim, value.arity) == (expected.dim, expected.arity)
    assert value.amplitudes.dtype == np.complex128
    assert not value.amplitudes.flags.writeable
    assert np.array_equal(value.amplitudes, expected.amplitudes)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_outputs_are_built_by_the_public_constructors(dim, seed):
    # oracle_apply, post_select and partial_inner_product build their outputs
    # with the public constructors; each must be what the constructor makes
    rng = np.random.default_rng(seed)
    op = random_operator(dim, rng)
    psi = random_state(dim, 1, rng)
    joint = random_state(dim, 3, rng)
    meas = random_state(dim, 2, rng)

    image = op.entries @ psi.amplitudes
    expected = QuditRegisterState(dim, 1, image / float(np.linalg.norm(image)))
    _assert_constructed_like(oracle_apply(op, psi), expected)

    overlap = joint.amplitudes.reshape(dim, dim * dim) @ meas.amplitudes.conj()
    _assert_constructed_like(partial_inner_product(meas, joint), UnnormalizedVector(dim, 1, overlap))
    expected = QuditRegisterState(dim, 1, overlap / float(np.linalg.norm(overlap)))
    _assert_constructed_like(post_select(joint, meas).data_state, expected)


@pytest.mark.parametrize(
    "dim, make_op, meas_kind",
    [pytest.param(n, lambda rng, n=n: random_unitary(n, rng), "full", id=f"full-{n}") for n in (3, 8, 64)]
    # the l = 1 support measurement is |00>, span [0, 1); at l = 3 it spans all
    + [pytest.param(2**l, lambda rng, l=l: family_operator(l, 0.4), "support", id=f"family-l{l}") for l in (1, 3)],
)
def test_post_select_reads_only_the_measurement_span(dim, make_op, meas_kind, rng):
    # every joint amplitude outside the measurement's nonzero span is NaN, which
    # would spread through 0 * NaN if the contraction read it
    op = make_op(rng)
    expansion = hs_expand(op)
    program = program_from_expansion(expansion).state
    meas = measurement_full(dim) if meas_kind == "full" else measurement_restricted(expansion)
    nonzero = np.flatnonzero(meas.amplitudes)
    lo, hi = nonzero[0], nonzero[-1] + 1
    psi = random_state(dim, 1, rng)
    joint = apply_processor(QuditShiftNetwork(dim), psi, program)
    rows = joint.amplitudes.reshape(dim, dim * dim).copy()
    rows[:, :lo] = np.nan
    rows[:, hi:] = np.nan
    poisoned = _adopt(QuditRegisterState, dim, 3, rows.reshape(-1))
    oracle = oracle_apply(op, psi)
    clean, dirty = post_select(joint, meas, oracle), post_select(poisoned, meas, oracle)
    assert np.isfinite(dirty.probability)
    assert dirty.probability == clean.probability
    assert np.array_equal(dirty.data_state.amplitudes, clean.data_state.amplitudes)
    assert dirty.oracle_fidelity == clean.oracle_fidelity >= 1 - 1e-12


# --- the paper's Bell-diagonal identity as an independent reference ------------


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
def test_bell_coefficients_are_the_bell_state_overlaps(dim, rng):
    state = random_state(dim, 2, rng)
    table = bell_coefficients(state)
    overlaps = [[inner_product(bell_state(dim, (m, n)), state) for n in range(dim)] for m in range(dim)]
    assert max_abs_diff(table, overlaps) < 1e-12
    assert max_abs_diff(bell_basis_matrix(dim, table.reshape(-1)), state.amplitudes) < 1e-12


@pytest.mark.parametrize(
    "network",
    [pytest.param(lambda n=n: QuditShiftNetwork(n), id=f"qudit-{n}") for n in (2, 3, 4, 5, 8, 16, 64, 128)]
    + [pytest.param(QubitCnotNetwork, id="qubit-cnot")],
)
def test_network_success_branch_is_the_bell_diagonal_operator(network, rng):
    # post-selecting M after running psi ⊗ P gives K psi, K from k_bell, which
    # reads only the Bell-diagonal form and none of the network's gates
    net = network()
    for _ in range(3):
        program, meas = random_state(net.dim, 2, rng), random_state(net.dim, 2, rng)
        psi = random_state(net.dim, 1, rng)
        image = k_bell(program, meas) @ psi.amplitudes
        norm = float(np.linalg.norm(image))
        expected = QuditRegisterState(net.dim, 1, image / norm)
        outcome = post_select(apply_processor(net, psi, program), meas, expected)
        assert abs(outcome.probability - norm**2) < 1e-12
        assert outcome.oracle_fidelity >= 1 - 1e-12
