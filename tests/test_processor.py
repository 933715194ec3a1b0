import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quditproc.processor as processor_module
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
    conditional_shift,
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

from conftest import max_abs_diff, reference_shift

# Smallest N whose qudit network runs as one strided product.
CROSSOVER = next(n for n in itertools.count(2) if n**3 >= processor_module._STRIDED_MIN_SIZE)
SEEDS = st.integers(0, 2**32 - 1)
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


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_gate_arrays(), SEEDS)
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
    inverse = np.array(processor_module._inverse_matrix(spec))
    assert inverse.shape == (arity, arity)
    assert round(abs(np.linalg.det(inverse))) == 1
    digits = np.indices((spec.dim,) * arity).reshape(arity, -1)
    source = np.ravel_multi_index(tuple(inverse @ digits % spec.dim), (spec.dim,) * arity)
    assert np.array_equal(source, processor_module._compiled(spec))


@pytest.mark.parametrize("dim", [2, 3, 5, 64])
def test_qudit_network_inverse_is_the_paper_matrix(dim):
    assert processor_module._inverse_matrix(QuditShiftNetwork(dim)) == ((1, 1, -1), (-1, 0, 1), (-1, -1, 2))


@pytest.mark.parametrize("dim", range(2, 8))
def test_network_match_equals_the_index_comparison(dim):
    # reference: the two compiled N^3 indices, as the function compared them before
    forward = processor_module._compiled(GateArray(dim, 1, QubitCnotNetwork().gates))
    mixed = processor_module._compiled(QuditShiftNetwork(dim))
    assert qubit_network_matches_shift_network(dim) == np.array_equal(forward, mixed)


# Alternating shifts grow G^-1's entries like Fibonacci numbers: the program
# tile would far exceed N^3 amplitudes at the crossover, so the gather runs.
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
    out = apply_processor(spec, data, prog)
    assert type(out) is QuditRegisterState and out.arity == 3
    assert np.array_equal(out.amplitudes, _gatewise(spec, data, prog))
    # the gather ran, and left its index, exactly when the tiles were too big
    assert ("_source_index" in vars(spec)) == (processor_module._strided_layout(spec) is None)


def test_long_gate_list_falls_back_to_the_gather():
    spec = GateArray(CROSSOVER, 1, _LONG_GATES)
    reps = [sum(map(abs, row)) for row in processor_module._inverse_matrix(spec)]
    assert reps[1] * reps[2] * CROSSOVER**2 > CROSSOVER**3
    assert processor_module._strided_layout(spec) is None


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
    assert calls == ["conditional_shift"] * 4 + ["tensor"]
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
    # Compiled before `tensor`, with each gate's input freed once its output
    # exists: no more than tensor's output, the gather's and the kept index.
    # N = 27 is the largest N below the crossover.
    dim = 27
    joint_bytes, index_bytes = 16 * dim**3, 8 * dim**3
    slack = 16 * 1024  # Python objects made along the way
    spec = QuditShiftNetwork(dim)
    data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
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


def test_strided_run_peaks_at_one_joint_state_and_its_tiles(rng):
    # The output is the only joint-sized allocation; ψ and P are tiled 3 and
    # 2 x 4 times, and the multiply may stage each strided input through a
    # buffer of getbufsize() elements, whatever N is. Nothing is kept on the
    # network but G^-1 and its layout.
    dim = 32
    joint_bytes, tile_bytes = 16 * dim**3, 16 * (3 * dim + 8 * dim**2)
    buffer_bytes = 2 * 16 * np.getbufsize()
    slack = 16 * 1024  # Python objects made along the way
    spec = QuditShiftNetwork(dim)
    data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
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
    assert first_peak < joint_bytes + tile_bytes + buffer_bytes + slack
    assert second_peak - before < joint_bytes + tile_bytes + buffer_bytes + slack
    assert second.amplitudes.nbytes == joint_bytes
    assert "_source_index" not in vars(spec)


def test_compile_peaks_at_three_index_arrays():
    # The kept index, a gate's input ramp and its output, all int64; no
    # complex copy of the ramp.
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
    assert peak < 3 * index_bytes + slack



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
