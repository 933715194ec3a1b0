import copy
import itertools
import pickle
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quditproc.processor as processor_module
from quditproc import harness
from quditproc import (
    DenseOperator,
    GateArray,
    GeneralDiagonal,
    QubitCnotNetwork,
    QuditRegisterState,
    QuditShiftNetwork,
    ShiftDirection,
    TensorQubitArray,
    UnnormalizedVector,
    apply_processor,
    basis_state,
    bell_state,
    conditional_shift,
    hs_expand,
    inner_product,
    measurement_for_labels,
    measurement_full,
    measurement_restricted,
    oracle_apply,
    partial_inner_product,
    pauli_s,
    post_select,
    processor_matrix,
    program_from_expansion,
    qubit_network_matches_shift_network,
    random_state,
    random_unitary,
    reflection_operator,
    run_experiment,
    tensor,
    u_mn,
)

from conftest import assert_outcomes_close, max_abs_diff, reference_partial_inner_product, reference_shift

# Smallest N whose qudit network returns a deferred output.
CROSSOVER = processor_module._DEFERRED_MIN_DIM
SEEDS = st.integers(0, 2**32 - 1)
DATA = Path(__file__).resolve().parent / "data"
_F, _B = ShiftDirection.FORWARD, ShiftDirection.BACKWARD


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
    # a Bell program comes out unchanged beside the transformed data state: for
    # unit vectors, unit overlap with U psi (x) bell means out = U psi (x) bell
    dim = 3
    psi = random_state(dim, 1, rng)
    for m in range(dim):
        for n in range(dim):
            bell = bell_state(dim, (m, n))
            out = apply_processor(QuditShiftNetwork(dim), psi, bell)
            data_state = QuditRegisterState(dim, 1, u_mn(dim, (m, n)).entries @ psi.amplitudes)
            assert abs(inner_product(tensor(data_state, bell), out) - 1) < 1e-12


def test_program_output_independent_of_data(rng):
    dim = 3
    bell = bell_state(dim, (2, 1))
    for _ in range(2):
        psi = random_state(dim, 1, rng)
        out = apply_processor(QuditShiftNetwork(dim), psi, bell)
        data_state = QuditRegisterState(dim, 1, u_mn(dim, (2, 1)).entries @ psi.amplitudes)
        assert abs(inner_product(tensor(data_state, bell), out) - 1) < 1e-12


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


def _diagonal(dim: int) -> GeneralDiagonal:
    labels = [(m, n) for m in range(dim) for n in range(dim)]
    return GeneralDiagonal(tuple(u_mn(dim, lab) for lab in labels), tuple(bell_state(dim, lab) for lab in labels))


@pytest.mark.parametrize(
    "spec", [QuditShiftNetwork(3), QuditShiftNetwork(16), _diagonal(3)], ids=["gather", "deferred", "diagonal"]
)
@pytest.mark.parametrize("unnormalized", ["data", "program"])
def test_apply_processor_takes_only_states(spec, unnormalized, rng):
    # an input of norm 2 would come out as a "normalized" joint state of squared norm 4
    dim = spec.dim if isinstance(spec, GateArray) else spec.operators[0].dim
    data, program = random_state(dim, 1, rng), random_state(dim, 2, rng)
    if unnormalized == "data":
        data = UnnormalizedVector(dim, 1, 2 * data.amplitudes)
    else:
        program = UnnormalizedVector(dim, 2, 2 * program.amplitudes)
    with pytest.raises(TypeError, match="QuditRegisterState"):
        apply_processor(spec, data, program)


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
    data = partial_inner_product(y, out)
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
    "operators, basis, message",
    [
        pytest.param((), (), "at least one operator", id="no-operators"),
        pytest.param(
            (u_mn(2, (0, 0)), u_mn(3, (0, 0))),
            (bell_state(2, (0, 0)), bell_state(2, (0, 1))),
            "share one dimension",
            id="mixed-dimension",
        ),
        pytest.param(
            (u_mn(2, (0, 0)), u_mn(2, (0, 1))),
            (bell_state(2, (0, 0)), basis_state(2, 1, [0])),
            "share shape and dimension",
            id="mixed-basis-shape",
        ),
    ],
)
def test_general_diagonal_rejects_malformed_parts(operators, basis, message):
    with pytest.raises(ValueError, match=message):
        GeneralDiagonal(operators, basis)


@pytest.mark.parametrize(
    "data, program, message",
    [
        pytest.param(basis_state(3, 1, [0]), bell_state(2, (0, 0)), "data register", id="data-dimension"),
        pytest.param(basis_state(2, 2, [0, 0]), bell_state(2, (0, 0)), "data register", id="data-arity"),
        pytest.param(basis_state(2, 1, [0]), basis_state(2, 1, [0]), "program register shape", id="program-shape"),
    ],
)
def test_general_diagonal_rejects_registers_of_the_wrong_shape(data, program, message):
    spec = GeneralDiagonal((u_mn(2, (0, 0)),), (bell_state(2, (0, 0)),))
    with pytest.raises(ValueError, match=message):
        apply_processor(spec, data, program)

def _gatewise(spec, data, program):
    """Reference run of a gate array: its gates one by one as `reference_shift` gathers.

    Independent of `conditional_shift`, which the compile runs.
    """
    arity = 3 * spec.width
    joint = tensor(data, program).amplitudes
    for control, target, direction in spec.gates:
        sign = 1 if direction is ShiftDirection.FORWARD else -1
        joint = reference_shift(joint, spec.dim, arity, control, target, sign)
    return joint


@pytest.mark.parametrize(
    "spec, dim, width",
    [
        pytest.param(QuditShiftNetwork(2), 2, 1, id="2"),
        pytest.param(QuditShiftNetwork(3), 3, 1, id="3"),
        pytest.param(QuditShiftNetwork(17), 17, 1, id="17"),
        pytest.param(QuditShiftNetwork(64), 64, 1, id="64"),
        pytest.param(QubitCnotNetwork(), 2, 1, id="qubit-cnot"),
        pytest.param(TensorQubitArray(1), 2, 1, id="tensor-1"),
        pytest.param(TensorQubitArray(2), 2, 2, id="tensor-2"),
        pytest.param(TensorQubitArray(3), 2, 3, id="tensor-3"),
    ],
)
def test_processor_matrix_matches_gatewise_path(spec, dim, width, rng):
    data = random_state(dim, width, rng)
    prog = random_state(dim, 2 * width, rng)
    gatewise = _gatewise(spec, data, prog)
    assert np.array_equal(apply_processor(spec, data, prog).amplitudes, gatewise)
    size = dim ** (3 * width)
    if size > 512:
        return  # the dense matrix would take 16 size^2 bytes
    mat = processor_matrix(spec)
    assert max_abs_diff(mat.conj().T @ mat, np.eye(size)) < 1e-12
    # every shift network is a permutation: 0/1 entries, one 1 per row and column
    assert np.isin(mat, (0, 1)).all()
    assert (mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
    direct = mat @ tensor(data, prog).amplitudes
    assert max_abs_diff(gatewise, direct) < 1e-12


def _gates(arity: int):
    """Random transvections on `arity` qudits: control != target."""
    return st.tuples(st.integers(1, arity), st.integers(1, arity - 1), st.sampled_from(ShiftDirection)).map(
        lambda g: (g[0], g[1] + (g[1] >= g[0]), g[2])
    )


@st.composite
def _gate_arrays(draw):
    """GateArray(dim, width, gates) with random transvections."""
    dim = draw(st.integers(2, 7))
    width = draw(st.integers(1, 2))
    return GateArray(dim, width, tuple(draw(st.lists(_gates(3 * width), max_size=8))))


# G^-1 = ((0, 0, -1), (0, 1, 0), (1, 0, 1)): a row with no positive entry,
# whose view reaches one register copy past its negative entries' count.
_NEGATIVE_ROW_GATES = ((3, 1, _F), (1, 3, _B))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_gate_arrays(), SEEDS)
@example(GateArray(7, 1, _NEGATIVE_ROW_GATES), 0)
def test_compiled_gate_array_equals_the_gatewise_run(spec, seed):
    rng = np.random.default_rng(seed)
    data = random_state(spec.dim, spec.width, rng)
    prog = random_state(spec.dim, 2 * spec.width, rng)
    out = apply_processor(spec, data, prog)
    assert type(out) is QuditRegisterState
    assert (out.dim, out.arity) == (spec.dim, 3 * spec.width)
    assert np.array_equal(out.amplitudes, _gatewise(spec, data, prog))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_gate_arrays())
def test_inverse_matrix_gives_the_compiled_index(spec):
    # output digits y read input digits G^-1 y (mod N), in big-endian order
    arity = 3 * spec.width
    inverse = np.array(processor_module._compose_inverse(spec))
    assert inverse.shape == (arity, arity)
    assert round(abs(np.linalg.det(inverse))) == 1
    digits = np.indices((spec.dim,) * arity).reshape(arity, -1)
    source = np.ravel_multi_index(tuple(inverse @ digits % spec.dim), (spec.dim,) * arity)
    assert np.array_equal(source, processor_module._compiled(spec))


@pytest.mark.parametrize("dim", [2, 3, 5, 64])
def test_qudit_network_inverse_is_the_paper_matrix(dim):
    assert processor_module._compose_inverse(QuditShiftNetwork(dim)) == ((1, 1, -1), (-1, 0, 1), (-1, -1, 2))


@pytest.mark.parametrize("dim", range(2, 8))
def test_network_match_equals_the_index_comparison(dim):
    # reference: the two compiled N^3 indices, as the function compared them before
    forward = processor_module._compiled(GateArray(dim, 1, QubitCnotNetwork().gates))
    mixed = processor_module._compiled(QuditShiftNetwork(dim))
    assert qubit_network_matches_shift_network(dim) == np.array_equal(forward, mixed)


# Alternating shifts grow G^-1's entries like Fibonacci numbers.
_LONG_GATES = ((1, 2, _F), (2, 1, _F)) * 8


@st.composite
def _network_sized_arrays(draw):
    """One-data-qudit gate arrays at N from the crossover to 8 above it."""
    dim = draw(st.integers(CROSSOVER, CROSSOVER + 8))
    return GateArray(dim, 1, tuple(draw(st.lists(_gates(3), max_size=16))))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(_network_sized_arrays(), SEEDS)
@example(QuditShiftNetwork(CROSSOVER), 0)
@example(GateArray(CROSSOVER, 1, _LONG_GATES), 0)
@example(GateArray(CROSSOVER + 8, 1, ()), 1)
def test_strided_run_equals_the_gatewise_run(spec, seed):
    rng = np.random.default_rng(seed)
    data, prog = random_state(spec.dim, 1, rng), random_state(spec.dim, 2, rng)
    meas = measurement_full(spec.dim)
    out, unread = apply_processor(spec, data, prog), apply_processor(spec, data, prog)
    assert type(out) is QuditRegisterState and out.arity == 3 and "_read" in vars(out)
    assert np.array_equal(out.amplitudes, _gatewise(spec, data, prog))
    assert_outcomes_close(post_select(unread, meas), post_select(out, meas))
    assert "amplitudes" not in vars(unread)
    # the gather never ran: every width-1 array from the crossover defers
    assert "_source_index" not in vars(spec)


def test_long_gate_list_defers(rng):
    # G^-1's entries far exceed N: each is taken mod N, and the array defers
    # as the qudit network does
    spec = GateArray(CROSSOVER, 1, _LONG_GATES)
    assert max(abs(g) for row in processor_module._compose_inverse(spec) for g in row) > CROSSOVER**3
    data, prog = random_state(CROSSOVER, 1, rng), random_state(CROSSOVER, 2, rng)
    meas = measurement_full(CROSSOVER)
    unread, read = apply_processor(spec, data, prog), apply_processor(spec, data, prog)
    assert np.array_equal(read.amplitudes, _gatewise(spec, data, prog))
    got, want = post_select(unread, meas), post_select(read, meas)
    assert "amplitudes" not in vars(unread)
    assert_outcomes_close(got, want)
    assert "_source_index" not in vars(spec)


def test_negative_row_inverse_reads_the_whole_output(rng):
    # G^-1's first row has no positive entry: each digit it gives is a
    # negative sum taken mod N.
    dim = 28
    spec = GateArray(dim, 1, _NEGATIVE_ROW_GATES)
    data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
    expected = _gatewise(spec, data, prog)
    meas = measurement_full(dim)
    unread, read = apply_processor(spec, data, prog), apply_processor(spec, data, prog)
    assert np.array_equal(read.amplitudes, expected)
    got, want = post_select(unread, meas), post_select(read, meas)
    assert "amplitudes" not in vars(unread)
    assert_outcomes_close(got, want)
    assert "_source_index" not in vars(spec)
    assert processor_module._compose_inverse(spec)[0] == (0, 0, -1)


def test_the_dimension_alone_chooses_the_path(rng):
    # Below N = 9 the qudit network gathers and keeps its index; from it on
    # its output is deferred and it keeps only G^-1. The CNOT network and the
    # tensor array gather.
    for dim in range(2, 13):
        spec = QuditShiftNetwork(dim)
        out = apply_processor(spec, random_state(dim, 1, rng), random_state(dim, 2, rng))
        assert ("_source_index" in vars(spec)) == (dim <= 8), dim
        assert ("_read" in vars(out)) == (dim >= 9), dim
    for spec in (QubitCnotNetwork(), TensorQubitArray(2)):
        out = apply_processor(spec, random_state(2, spec.width, rng), random_state(2, 2 * spec.width, rng))
        assert "_source_index" in vars(spec) and "_read" not in vars(out)


def _spy_on_the_gather(monkeypatch) -> list:
    """Names of the `tensor` and `conditional_shift` calls `processor` makes from now on."""
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    for name in ("tensor", "conditional_shift"):
        monkeypatch.setattr(processor_module, name, spy(name, getattr(processor_module, name)))
    return calls


def test_strided_run_calls_no_gate_and_keeps_no_index(monkeypatch, rng):
    calls = _spy_on_the_gather(monkeypatch)
    spec = QuditShiftNetwork(CROSSOVER)
    data, prog = random_state(CROSSOVER, 1, rng), random_state(CROSSOVER, 2, rng)
    out = apply_processor(spec, data, prog)
    assert calls == []
    assert "_source_index" not in vars(spec)
    assert np.array_equal(out.amplitudes, _gatewise(spec, data, prog))


def test_network_below_the_crossover_compiles_and_gathers(monkeypatch, rng):
    calls = _spy_on_the_gather(monkeypatch)
    dim = CROSSOVER - 1
    spec = QuditShiftNetwork(dim)
    data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
    out = apply_processor(spec, data, prog)
    assert calls == ["tensor"] + ["conditional_shift"] * 4
    assert "_source_index" in vars(spec)
    assert np.array_equal(out.amplitudes, _gatewise(spec, data, prog))


def test_each_gate_array_is_compiled_once(monkeypatch, rng):
    calls = []

    def spy(*args):
        calls.append(args[1:])
        return conditional_shift(*args)

    monkeypatch.setattr(processor_module, "conditional_shift", spy)
    spec = QuditShiftNetwork(5)
    data, prog = random_state(5, 1, rng), random_state(5, 2, rng)
    first = apply_processor(spec, data, prog)
    assert calls == list(spec.gates)
    second = apply_processor(spec, data, prog)
    processor_matrix(spec)
    assert len(calls) == 4
    assert np.array_equal(first.amplitudes, second.amplitudes)
    # an equal value built anew compiles its own index
    apply_processor(QuditShiftNetwork(5), data, prog)
    assert len(calls) == 8


def test_first_call_peaks_at_two_joint_states_and_the_index(rng):
    # Compiled after `tensor`, with each gate's input freed once its output
    # exists: tensor's output and two ramps while it compiles, then no more
    # than tensor's output, the gather's and the kept index. Five qubit
    # processors make a joint state of 2^15 amplitudes.
    spec = TensorQubitArray(5)
    size = spec.dim ** (3 * spec.width)
    joint_bytes, index_bytes = 16 * size, 8 * size
    slack = 16 * 1024  # Python objects made along the way
    data, prog = random_state(spec.dim, spec.width, rng), random_state(spec.dim, 2 * spec.width, rng)
    tracemalloc.start()
    try:
        first = apply_processor(spec, data, prog)
        _, first_peak = tracemalloc.get_traced_memory()
        del first
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        second = apply_processor(spec, data, prog)
        _, second_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_peak < 2 * joint_bytes + index_bytes + slack
    assert second_peak - before < 2 * joint_bytes + slack
    assert second.amplitudes.nbytes == joint_bytes


def test_whole_read_peaks_at_one_joint_state_and_a_chunk(rng):
    # The first read of the deferred output makes it, the only joint-sized
    # allocation. Besides it live ψ tiled N times (16 N^2 B) and one chunk of
    # N labels: its int64 digits and their int32 indices, and the ψ and P
    # amplitudes they take (2 x 16 N^2 B). Nothing is kept on the network but
    # G^-1.
    dim = 32
    joint_bytes, chunk_bytes = 16 * dim**3, 128 * dim**2
    slack = 16 * 1024  # Python objects made along the way
    spec = QuditShiftNetwork(dim)
    data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
    tracemalloc.start()
    try:
        first = apply_processor(spec, data, prog).amplitudes
        _, first_peak = tracemalloc.get_traced_memory()
        del first
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        second = apply_processor(spec, data, prog).amplitudes
        _, second_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_peak < joint_bytes + chunk_bytes + slack
    assert second_peak - before < joint_bytes + chunk_bytes + slack
    assert second.nbytes == joint_bytes
    assert "_source_index" not in vars(spec)


@pytest.mark.slow
@pytest.mark.parametrize("dim", [127, 128, 129])
def test_whole_reads_at_large_n_equal_the_gatewise_run(dim, rng):
    for spec in (QuditShiftNetwork(dim), GateArray(dim, 1, _NEGATIVE_ROW_GATES)):
        data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
        assert np.array_equal(apply_processor(spec, data, prog).amplitudes, _gatewise(spec, data, prog))


def test_no_run_path_reads_a_deferred_output_whole(monkeypatch, rng):
    # The whole read serves `.amplitudes` alone: with it made to raise, the
    # bundled configs, a Haar row at N = 64, a support row at N = 128 and a
    # stored program at N = 64 all run, each outcome through its success map.
    def whole_read(*args):
        raise AssertionError("a run path read a deferred output whole")

    outcomes = []

    def recorded(*args):
        outcomes.append(run_experiment(*args))
        return outcomes[-1]

    monkeypatch.setattr(processor_module, "_whole_read", whole_read)
    monkeypatch.setattr(harness, "run_experiment", recorded)
    large = {
        "schema": 1,
        "seed": 7,
        "scenarios": [
            {"id": "haar-n64", "dim": 64, "operator": {"name": "random_unitary"}, "trials": 3},
            {
                "id": "example2-n128-support",
                "dim": 128,
                "operator": {"name": "example2", "theta": 0.3},
                "measurement": "support",
                "trials": 4,
            },
        ],
    }
    for doc in (
        harness.load_bundled_config("paper-claims"),
        harness.load_config_file(DATA / "strided-sizes.json"),
        large,
    ):
        _, rows = harness.run_config(doc)
        assert all(row.passed for row in rows)
    assert outcomes and all(outcome.data_state is not None for outcome in outcomes)
    op, spec, meas = random_unitary(64, rng), QuditShiftNetwork(64), measurement_full(64)
    program = program_from_expansion(hs_expand(op)).state
    for _ in range(5):
        psi = random_state(64, 1, rng)
        outcome = post_select(apply_processor(spec, psi, program), meas, oracle_apply(op, psi))
        assert outcome.data_state is not None and outcome.oracle_fidelity >= 1 - 1e-10


@pytest.mark.parametrize("dim", [127, 128, 129])
def test_post_selected_strided_run_peaks_at_its_tiles(dim, rng):
    # Under the full measurement, post-selecting an unread output makes no
    # joint-sized array. A program's first post-selection builds
    # its success map K (16 N^2 B) from the measurement's index, which the
    # warm-up run keeps on the shared measurement: one N x N block of P's
    # amplitudes (16 N^2 B), added into K by the block's index widened to
    # intp (8 N^2 B). A repeat is one matvec. The whole output would be
    # 16 N^3 B, 33.5 MB at N = 128. N = 127 and 129 are not of the form
    # 2^a 3^b: there a measurement with FFT round-off would have nearly N^2
    # nonzeros and its K would be built in N chunks.
    slack = 16 * 1024  # Python objects made along the way
    spec, meas = QuditShiftNetwork(dim), measurement_full(dim)
    data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
    post_select(apply_processor(spec, data, random_state(dim, 2, rng)), meas)  # keeps G^-1 and the index
    tracemalloc.start()
    try:
        post_select(apply_processor(spec, data, prog), meas)
        _, first_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        outcome = post_select(apply_processor(spec, data, prog), meas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_peak < (16 + 16 + 8) * dim**2 + slack
    assert peak - before < 16 * 4 * dim + slack
    assert outcome.data_state is not None


def test_support_measurement_with_a_full_column_post_selects_one_column(rng):
    # The reflection about |1> has every label of column n = 0 in its support
    # (S = N for N >= 3), so its support bra is sqrt(N / S) |0>|0>: one
    # nonzero, span [0, 1), and post-selection makes N products. Built by the
    # FFT alone, the column's round-off left nonzeros across up to N^2 columns
    # at N = 255, and the same run peaked at 240 MiB. The program's success
    # map is built on its first run and kept, so the traced run is a stored
    # program's.
    dim = 255
    op = reflection_operator(basis_state(dim, 1, [1]))
    expansion = hs_expand(op)
    program = program_from_expansion(expansion).state
    spec, meas = QuditShiftNetwork(dim), measurement_restricted(expansion)
    psi = random_state(dim, 1, rng)
    assert np.flatnonzero(meas.amplitudes).tolist() == [0]
    post_select(apply_processor(spec, psi, program), meas)
    tracemalloc.start()
    try:
        outcome = post_select(apply_processor(spec, psi, program), meas, oracle_apply(op, psi))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert abs(outcome.probability - 1 / dim) <= 1e-10 / dim
    assert outcome.oracle_fidelity >= 1 - 1e-10


@pytest.mark.parametrize("dim", [CROSSOVER, 28, 64, 127])
def test_a_reused_program_keeps_its_success_map_and_runs_as_the_gatewise_run(dim, rng):
    # The program's success map is built on its first post-selection and
    # kept on it; each later run, on other data, reads whole exactly as the
    # gate-by-gate run and post-selects unread as that run's contraction.
    spec, meas = QuditShiftNetwork(dim), measurement_full(dim)
    program = random_state(dim, 2, rng)
    maps = []
    for _ in range(2):
        psi = random_state(dim, 1, rng)
        expected = _gatewise(spec, psi, program)
        unread, read = apply_processor(spec, psi, program), apply_processor(spec, psi, program)
        got, want = post_select(unread, meas), post_select(read, meas)
        assert np.array_equal(read.amplitudes, expected)
        assert "amplitudes" not in vars(unread)
        assert_outcomes_close(got, want)
        maps.append(vars(program)["_success_map"][2])
    assert maps[0] is maps[1] and maps[0].shape == (dim, dim)
    # a whole read keeps nothing on the program
    assert [name for name in vars(program) if name.startswith("_")] == ["_success_map"]


def test_threads_racing_a_programs_first_run_agree(rng):
    # `_kept` and the success-map slot take no lock: threads that race on a
    # fresh program may each build its K, but every post-selection must give
    # the same bits, within 1e-14 of the gate-by-gate run's contraction, every
    # read must equal that run, and the K kept afterwards must not change
    dim = 28
    spec, meas = QuditShiftNetwork(dim), measurement_full(dim)
    psi = random_state(dim, 1, rng)
    programs = [random_state(dim, 2, rng) for _ in range(20)]
    fresh = [_gatewise(spec, psi, program) for program in programs]
    seen = [[] for _ in programs]

    def run_all(first_projects):
        for program, got in zip(programs, seen):
            out = apply_processor(spec, psi, program)
            if first_projects:
                got.append(post_select(out, meas).data_state.amplitudes)
            got.append(out.amplitudes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run_all, args=(i % 2,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for program, got, amps in zip(programs, seen, fresh):
        overlap = reference_partial_inner_product(meas, QuditRegisterState(dim, 3, amps), (2, 3))
        state = overlap / np.linalg.norm(overlap)
        states = [a for a in got if a.size == dim]
        assert len(got) == 6 and len(states) == 2
        assert all(np.array_equal(a, amps) for a in got if a.size == amps.size)
        assert np.array_equal(states[0], states[1])
        assert max_abs_diff(states[0], state) <= 1e-14 * np.max(np.abs(state))
        k = vars(program)["_success_map"][2]
        post_select(apply_processor(spec, psi, program), meas)
        assert vars(program)["_success_map"][2] is k
        assert np.array_equal(k, processor_module._build_success_map(spec, copy.copy(program), meas))


@pytest.mark.parametrize("dim", [8, 64], ids=["gather", "deferred"])
def test_copied_and_unpickled_values_run_as_the_originals(dim, rng):
    # Each value is used first, so that it keeps what it derived (the
    # network's index or G^-1, the program's success map, the operator's
    # expansion); its copy carries the fields alone and derives them again.
    op, spec = random_unitary(dim, rng), QuditShiftNetwork(dim)
    program = program_from_expansion(hs_expand(op)).state
    psi, meas = random_state(dim, 1, rng), measurement_full(dim)
    oracle = oracle_apply(op, psi)
    want = post_select(apply_processor(spec, psi, program), meas, oracle)
    want_run = run_experiment(spec, op, psi)
    spec_copy, program_copy = (pickle.loads(pickle.dumps(value)) for value in (spec, program))
    got = post_select(apply_processor(spec_copy, psi, program_copy), meas, oracle)
    got_run = run_experiment(spec, copy.copy(op), psi)
    for a, b in ((got, want), (got_run, want_run)):
        assert (a.probability, a.oracle_fidelity, a.global_phase) == (b.probability, b.oracle_fidelity, b.global_phase)
        assert np.array_equal(a.data_state.amplitudes, b.data_state.amplitudes)


def _bras(dim: int, expansion, rng) -> dict:
    """Bras that post-select a joint state of three N-level qudits, by name."""
    return {
        "full": measurement_full(dim),
        "restricted": measurement_restricted(expansion),
        # about |0>|N - 2>: its span starts mid-row, at column N - 2
        "labels-mid-row": measurement_for_labels(dim, [(m, 2) for m in range(dim)]),
        "arity-1": random_state(dim, 1, rng),
        "all-zero": UnnormalizedVector(dim, 2, np.zeros(dim**2)),
    }


@pytest.mark.parametrize("dim", [CROSSOVER, 28, 32, 64])
def test_post_select_of_an_unread_output_equals_the_read_one(dim, rng):
    # a two-term operator, so that the support measurement spans part of the columns
    op = DenseOperator(dim, 0.6 * u_mn(dim, (1, 2)).entries + 0.8j * u_mn(dim, (3, 5)).entries)
    expansion = hs_expand(op)
    program = program_from_expansion(expansion).state
    spec = QuditShiftNetwork(dim)
    psi = random_state(dim, 1, rng)
    expected = _gatewise(spec, psi, program)
    bras = _bras(dim, expansion, rng)
    assert np.flatnonzero(bras["labels-mid-row"].amplitudes)[0] == dim - 2
    for name, bra in bras.items():
        oracle = oracle_apply(op, psi) if bra.arity == 2 else random_state(dim, 2, rng)
        unread, read = apply_processor(spec, psi, program), apply_processor(spec, psi, program)
        assert np.array_equal(read.amplitudes, expected), name
        got, want = post_select(unread, bra, oracle), post_select(read, bra, oracle)
        assert (got.data_state is None) == (want.data_state is None) == (name == "all-zero")
        if bra.arity == 2:
            # the success map's overlap, left unread, against the contraction of the read output
            assert "amplitudes" not in vars(unread), name
            assert_outcomes_close(got, want)
        else:
            # a bra on one qudit reads the output whole, and is contracted as the read one
            assert got == want, name
        # read afterwards, the output is the gate-by-gate run, read once
        assert np.array_equal(unread.amplitudes, expected), name
        assert unread.amplitudes is unread.amplitudes


@pytest.mark.parametrize(
    "clone",
    [pickle.dumps, copy.copy, copy.deepcopy, repr, lambda out: out == out],
    ids=["pickle", "copy", "deepcopy", "repr", "eq"],
)
def test_unread_output_is_read_where_a_value_is_copied_shown_or_compared(clone, rng):
    spec = QuditShiftNetwork(CROSSOVER)
    data, prog = random_state(CROSSOVER, 1, rng), random_state(CROSSOVER, 2, rng)
    expected = _gatewise(spec, data, prog)
    out = apply_processor(spec, data, prog)
    made = clone(out)
    assert np.array_equal(vars(out)["amplitudes"], expected)
    if isinstance(made, bytes):
        made = pickle.loads(made)
    if isinstance(made, QuditRegisterState):
        assert type(made) is QuditRegisterState and not {"_read", "_project"} & set(vars(made))
        assert (made.dim, made.arity) == (CROSSOVER, 3)
        assert np.array_equal(made.amplitudes, expected)
    elif isinstance(made, str):
        assert made == repr(QuditRegisterState(CROSSOVER, 3, expected))
    else:
        assert made is True


def test_compile_peaks_at_two_index_arrays():
    # A gate's input ramp and its output, all int64; the last output is the
    # index itself, and no complex copy of the ramp is made.
    dim = 32
    index_bytes = 8 * dim**3
    slack = 16 * 1024  # Python objects made along the way
    spec = QuditShiftNetwork(dim)
    tracemalloc.start()
    try:
        source = processor_module._compiled(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert source.dtype == np.int64 and source.nbytes == index_bytes
    assert peak < 2 * index_bytes + slack



@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: GateArray(1, 1, ()), ValueError, id="dim-1"),
        pytest.param(lambda: GateArray(2, 0, ()), ValueError, id="width-0"),
        pytest.param(lambda: GateArray(3, 1, ((1, 4, _F),)), ValueError, id="target-above-arity"),
        pytest.param(lambda: GateArray(3, 1, ((0, 2, _F),)), ValueError, id="control-0"),
        pytest.param(lambda: GateArray(2, 2, ((7, 1, _B),)), ValueError, id="control-above-arity"),
        pytest.param(lambda: GateArray(3, 1, ((2, 2, _F),)), ValueError, id="control-is-target"),
        pytest.param(lambda: GateArray(3, 1, ((1, 2, "forward"),)), TypeError, id="direction-string"),
        pytest.param(lambda: GateArray(3, 1, ((1, 2, _F), (2, 3, None))), TypeError, id="second-gate-direction"),
        pytest.param(lambda: QuditShiftNetwork(1), ValueError, id="qudit-network-dim-1"),
        pytest.param(lambda: TensorQubitArray(0), ValueError, id="tensor-array-l-0"),
    ],
)
def test_gate_arrays_reject_bad_fields_at_construction(build, error):
    with pytest.raises(error):
        build()


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


@pytest.mark.parametrize(
    "gate",
    [(1, 4, _F), (0, 2, _F), (2, 2, _B), (1, 2, "forward")],
    ids=["target-above-arity", "control-0", "control-is-target", "direction-string"],
)
def test_gate_array_and_conditional_shift_state_one_gate_rule(gate):
    # a bad gate is refused by the array and by the shift with the same error
    with pytest.raises((TypeError, ValueError)) as by_array:
        GateArray(3, 1, (gate,))
    with pytest.raises((TypeError, ValueError)) as by_shift:
        conditional_shift(random_state(3, 3, np.random.default_rng(0)), *gate)
    assert type(by_array.value) is type(by_shift.value)
    assert str(by_array.value) == str(by_shift.value)
