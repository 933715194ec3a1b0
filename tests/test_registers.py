import copy
import dataclasses
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditproc import (
    DenseOperator,
    GeneralDiagonal,
    QuditRegisterState,
    ShiftDirection,
    UnnormalizedVector,
    apply_to_register,
    apply_to_subsystem,
    basis_state,
    bell_state,
    conditional_shift,
    example2_operator,
    hs_expand,
    inner_product,
    negation_w,
    partial_inner_product,
    pauli_s,
    post_select,
    program_from_expansion,
    random_operator,
    random_state,
    random_unitary,
    tensor,
    u_init,
)
from quditproc import processor
from quditproc.gates import _difference_index
from quditproc.processor import QuditShiftNetwork, apply_processor
from quditproc.programs import measurement_for_labels, measurement_full, measurement_restricted

from conftest import index_to_digits, max_abs_diff, reference_partial_inner_product


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
    # both register types check dim >= 2, arity >= 1 and dim**arity amplitudes
    for kind in (QuditRegisterState, UnnormalizedVector):
        cases = [
            (2, 2, [1.0, 0.0], "has length 2, expected 4"),
            (2, 1, [1.0, 0.0, 0.0], "has length 3, expected 2"),
            (1, 1, [1.0], "dimension must be >= 2"),
            (2, 0, [1.0], "at least one qudit"),
        ]
        for dim, arity, amps, message in cases:
            with pytest.raises(ValueError, match=message):
                kind(dim, arity, np.array(amps))


def test_a_register_from_a_2d_array_equals_the_flat_one():
    square = np.array([[1, 1j], [0, -1]]) / np.sqrt(3)
    assert QuditRegisterState(2, 2, square) == QuditRegisterState(2, 2, square.reshape(-1))


def test_an_operator_and_a_register_of_the_wrong_size_are_refused():
    with pytest.raises(ValueError, match="must be 2x2"):
        DenseOperator(2, np.eye(3))
    with pytest.raises(ValueError, match="does not match register size"):
        apply_to_register(DenseOperator(2, np.eye(2)), basis_state(2, 2, [0, 0]))


def test_register_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        QuditRegisterState(2, 1, [np.nan, 0])


def test_normalizing_a_nan_vector_is_an_error():
    with pytest.raises(ValueError, match="cannot normalize"):
        UnnormalizedVector(2, 1, [np.nan, 1]).normalized()


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


@pytest.mark.parametrize(
    "kinds",
    [
        (QuditRegisterState, QuditRegisterState),
        (QuditRegisterState, UnnormalizedVector),
        (UnnormalizedVector, QuditRegisterState),
        (UnnormalizedVector, UnnormalizedVector),
    ],
    ids=["state-state", "state-vector", "vector-state", "vector-vector"],
)
def test_tensor_is_a_state_only_when_both_factors_are(kinds, rng):
    # a factor of norm 2 makes a product of squared norm 4, which must not
    # come out as a normalized state
    scales = [1.0 if kind is QuditRegisterState else 2.0 for kind in kinds]
    a, b = (kind(3, k, scale * random_state(3, k, rng).amplitudes) for kind, k, scale in zip(kinds, (1, 2), scales))
    out = tensor(a, b)
    normalized = kinds == (QuditRegisterState, QuditRegisterState)
    assert type(out) is (QuditRegisterState if normalized else UnnormalizedVector)
    assert np.array_equal(out.amplitudes, np.kron(a.amplitudes, b.amplitudes))
    assert np.vdot(out.amplitudes, out.amplitudes).real == pytest.approx(scales[0] ** 2 * scales[1] ** 2)


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


def test_distinct_equal_values_are_equal_and_unhashable(rng):
    amps = random_state(3, 2, rng).amplitudes
    mat = random_operator(3, rng).entries
    pairs = [
        (QuditRegisterState(2, 1, [1, 0]), QuditRegisterState(2, 1, [1, 0])),
        (UnnormalizedVector(3, 2, 2 * amps), UnnormalizedVector(3, 2, 2 * amps)),
        (DenseOperator(3, mat, "a"), DenseOperator(3, mat, "a")),
        (hs_expand(DenseOperator(3, mat)), hs_expand(DenseOperator(3, mat))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and not a != b
        with pytest.raises(TypeError):
            hash(a)


def _diagonal(rng):
    labels = [(0, 0), (1, 1)]
    return GeneralDiagonal(tuple(random_unitary(3, rng) for _ in labels), tuple(bell_state(3, lab) for lab in labels))


def _outcome(rng):
    data, program = random_state(3, 1, rng), bell_state(3, (1, 2))
    return post_select(apply_processor(QuditShiftNetwork(3), data, program), bell_state(3, (1, 2)), data)


# Frozen dataclasses whose fields hold registers or operators: the generated
# `hash` failed naming a field's type, and `==` is `_Value`'s.
COMPOSITE_VALUES = {
    "GeneralDiagonal": _diagonal,
    "ProgramVector": lambda rng: program_from_expansion(hs_expand(random_operator(3, rng))),
    "PostSelectionOutcome": _outcome,
}


@pytest.mark.parametrize("kind", COMPOSITE_VALUES)
def test_composite_values_compare_exactly_and_refuse_hash_in_their_own_name(kind):
    a, b = (COMPOSITE_VALUES[kind](np.random.default_rng(4)) for _ in range(2))
    assert a is not b and a == b and not a != b
    assert a != COMPOSITE_VALUES[kind](np.random.default_rng(5))
    with pytest.raises(TypeError, match=f"^unhashable type: '{kind}'$"):
        hash(a)
    for clone in (copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        made = clone(a)
        assert type(made) is type(a) and made == a
        assert set(vars(made)) == {f.name for f in dataclasses.fields(a)}


def test_values_differing_in_a_field_or_class_are_unequal():
    one = QuditRegisterState(2, 1, [1, 0])
    assert one != QuditRegisterState(2, 1, [0, 1])
    assert one != UnnormalizedVector(2, 1, [1, 0])
    assert one != "one"
    assert QuditRegisterState(4, 1, [1, 0, 0, 0]) != QuditRegisterState(2, 2, [1, 0, 0, 0])
    assert DenseOperator(2, np.eye(2), "a") != DenseOperator(2, np.eye(2), "b")
    assert DenseOperator(2, np.eye(2)) != DenseOperator(2, -np.eye(2))
    assert hs_expand(DenseOperator(2, np.eye(2))) != hs_expand(DenseOperator(2, 2 * np.eye(2)))


def test_a_deferred_output_equals_its_read_copy(rng):
    dim = 28
    spec = QuditShiftNetwork(dim)
    data, prog = random_state(dim, 1, rng), random_state(dim, 2, rng)
    read = apply_processor(spec, data, prog)
    unread = apply_processor(spec, data, prog)
    assert "amplitudes" not in vars(unread)
    assert unread == QuditRegisterState(dim, 3, read.amplitudes) == read
    assert "amplitudes" in vars(unread)
    assert apply_processor(spec, random_state(dim, 1, rng), prog) != read


# The name under which a bra keeps its index into the qudit network's success
# map: it carries the network's G^-1.
QUDIT_NETWORK_INDEX = "_label_index_((1, 1, -1), (-1, 0, 1), (-1, -1, 2))"


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_carry_only_the_fields(clone, rng):
    # A post-selection of a deferred output keeps the success map (N^2
    # amplitudes) on the program and the index into it on a sparse bra, one
    # of an eager output the nonzero span on its bra; an operator keeps its
    # expansion and Tr(A†A), an expansion its support size, program and
    # support measurement, a network its G^-1 or compiled index. A copy
    # derives them again when it is used.
    dim = 64
    program, bra = random_state(dim, 2, rng), measurement_for_labels(dim, [(1, 2)])
    deferring = QuditShiftNetwork(dim)
    partial_inner_product(bra, apply_processor(deferring, random_state(dim, 1, rng), program))
    span_bra = random_state(8, 2, rng)
    partial_inner_product(span_bra, apply_processor(QuditShiftNetwork(8), random_state(8, 1, rng), random_state(8, 2, rng)))
    op = random_operator(dim, rng)
    op.gram_trace()
    hs_expand(op).support_size()
    # a two-label support, so the kept measurement is not the shared full one
    held = hs_expand(example2_operator(0.3, dim))
    program_from_expansion(held)
    measurement_restricted(held)
    network = QuditShiftNetwork(8)
    apply_processor(network, random_state(8, 1, rng), random_state(8, 2, rng))
    used = [
        (program, "_success_map", {"dim", "arity", "amplitudes"}),
        (bra, QUDIT_NETWORK_INDEX, {"dim", "arity", "amplitudes"}),
        (span_bra, "_nonzero_span", {"dim", "arity", "amplitudes"}),
        (op, "_hs_expansion", {"dim", "entries", "label"}),
        (hs_expand(op), "_support_size", {"dim", "coeffs", "gram_norm"}),
        (held, "_program", {"dim", "coeffs", "gram_norm"}),
        (held, "_support_measurement", {"dim", "coeffs", "gram_norm"}),
        (network, "_source_index", {"dim", "width", "gates"}),
        (deferring, "_inverse", {"dim", "width", "gates"}),
    ]
    for value, derived, names in used:
        assert derived in vars(value)
        made = clone(value)
        assert type(made) is type(value) and made == value
        assert set(vars(made)) == names
    assert len(pickle.dumps(program)) < program.amplitudes.nbytes + 1024
    assert len(pickle.dumps(bra)) < bra.amplitudes.nbytes + 1024
    assert len(pickle.dumps(op)) < op.entries.nbytes + 1024
    assert len(pickle.dumps(held)) < held.coeffs.nbytes + 1024
    assert len(pickle.dumps(network)) < 1024
    # a gate array's fields are hashable, so it keeps the dataclass hash
    assert hash(clone(network)) == hash(network)


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
    out = partial_inner_product(prog, joint)
    assert max_abs_diff(out.amplitudes, data.amplitudes) < 1e-12


def test_partial_inner_product_probability(rng):
    joint = random_state(2, 3, rng)
    bra = random_state(2, 2, rng)
    overlap = partial_inner_product(bra, joint)
    # squared norms of projections onto an orthonormal extension sum to 1
    assert 0 <= overlap.norm() ** 2 <= 1 + 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_partial_inner_product_matches_reference(dim, arity, rng):
    joint = random_state(dim, arity, rng)
    for bra_arity in range(1, arity):
        bra = random_state(dim, bra_arity, rng)
        out = partial_inner_product(bra, joint)
        trailing = tuple(range(arity - bra_arity + 1, arity + 1))
        assert (out.dim, out.arity) == (dim, arity - bra_arity)
        assert max_abs_diff(out.amplitudes, reference_partial_inner_product(bra, joint, trailing)) < 1e-12


# Bra shapes for the nonzero span: zeroed leading and/or trailing blocks, a
# single nonzero at either end, all zero and dense.
BRA_KINDS = ("lead", "trail", "both", "first", "last", "zero", "dense")


@st.composite
def span_cases(draw):
    dim = draw(st.integers(2, 8))
    arity = draw(st.integers(2, 4 if dim <= 4 else 3))
    bra_arity = draw(st.integers(1, arity - 1))
    size = dim**bra_arity
    lo = draw(st.integers(0, size - 1))
    hi = draw(st.integers(lo + 1, size))
    return dim, arity, bra_arity, draw(st.sampled_from(BRA_KINDS)), lo, hi, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(span_cases())
@example((2, 2, 1, "first", 0, 1, 0))
@example((8, 3, 2, "last", 0, 64, 1))
@example((8, 3, 1, "zero", 0, 8, 2))
@example((3, 4, 3, "dense", 0, 27, 3))
def test_partial_inner_product_over_the_nonzero_span(case):
    dim, arity, bra_arity, kind, lo, hi, seed = case
    rng = np.random.default_rng(seed)
    size = dim**bra_arity
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    keep = {
        "lead": slice(lo, size),
        "trail": slice(0, hi),
        "both": slice(lo, hi),
        "first": slice(0, 1),
        "last": slice(size - 1, size),
        "zero": slice(0, 0),
        "dense": slice(0, size),
    }[kind]
    zeroed = np.zeros(size, dtype=complex)
    zeroed[keep] = amps[keep]
    bra = UnnormalizedVector(dim, bra_arity, zeroed)
    joint = random_state(dim, arity, rng)
    out = partial_inner_product(bra, joint)
    trailing = tuple(range(arity - bra_arity + 1, arity + 1))
    assert (out.dim, out.arity) == (dim, arity - bra_arity)
    assert max_abs_diff(out.amplitudes, reference_partial_inner_product(bra, joint, trailing)) < 1e-12
    if kind == "zero":
        assert not np.any(out.amplitudes)
    if kind == "dense":
        # a dense bra's span is every column: the same product, bit for bit
        rows = joint.amplitudes.reshape(-1, size)
        assert np.array_equal(out.amplitudes, rows @ bra.amplitudes.conj())


def test_partial_inner_product_rejects_dimension_mismatch(rng):
    with pytest.raises(ValueError, match="dimension mismatch"):
        partial_inner_product(random_state(2, 1, rng), random_state(3, 2, rng))


def test_partial_inner_product_must_leave_a_subsystem(rng):
    with pytest.raises(ValueError, match="at least one subsystem"):
        partial_inner_product(random_state(3, 2, rng), random_state(3, 2, rng))


def test_operator_derived_values_cannot_go_stale(rng):
    # an operator's expansion and Tr(A†A) are computed once and kept on the
    # value, which is sound only because its entries cannot change (see
    # `test_frozen_arrays_cannot_be_made_writable`)
    op = random_operator(5, rng)
    assert hs_expand(op) is hs_expand(op)
    for _ in range(2):
        assert op.gram_trace() == float(np.sum(np.abs(op.entries) ** 2))
    # a new value, even one made from the old, gets values of its own
    other = dataclasses.replace(op, entries=2 * op.entries)
    assert hs_expand(other) is not hs_expand(op)
    assert np.array_equal(hs_expand(other).coeffs, 2 * hs_expand(op).coeffs)
    assert other.gram_trace() == float(np.sum(np.abs(other.entries) ** 2))


def _run(dim, rng):
    return apply_processor(QuditShiftNetwork(dim), random_state(dim, 1, rng), random_state(dim, 2, rng))


def _post_selected(rng):
    # a program and a sparse bra after a post-selection of a deferred output
    program, bra = random_state(28, 2, rng), measurement_for_labels(28, [(1, 2)])
    partial_inner_product(bra, apply_processor(QuditShiftNetwork(28), random_state(28, 1, rng), program))
    return vars(program), vars(bra)


# Every array that a value exposes, keeps or shares, by how it was made; the
# qudit network defers its output at N = 28, and gathers at N = 3.
FROZEN = {
    "constructed": lambda rng: random_state(3, 2, rng).amplitudes,
    "tensor": lambda rng: tensor(random_state(3, 1, rng), random_state(3, 2, rng)).amplitudes,
    "conditional_shift": lambda rng: conditional_shift(random_state(3, 2, rng), 1, 2, ShiftDirection.FORWARD).amplitudes,
    "apply_processor-gather": lambda rng: _run(3, rng).amplitudes,
    # a deferred output, read
    "apply_processor-strided": lambda rng: _run(28, rng).amplitudes,
    "operator-entries": lambda rng: random_operator(3, rng).entries,
    "expansion-coeffs": lambda rng: hs_expand(random_operator(3, rng)).coeffs,
    "difference-index": lambda rng: _difference_index(5),
    "measurement_full": lambda rng: measurement_full(5).amplitudes,
    "compiled-index": lambda rng: processor._compiled(QuditShiftNetwork(3)),
    "success-map": lambda rng: _post_selected(rng)[0]["_success_map"][2],
    # the P index of the bra's one chunk
    "label-index": lambda rng: _post_selected(rng)[1][QUDIT_NETWORK_INDEX][0][1],
    "deep-copied": lambda rng: copy.deepcopy(random_operator(3, rng)).entries,
    "unpickled": lambda rng: pickle.loads(pickle.dumps(random_state(3, 2, rng))).amplitudes,
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_arrays_cannot_be_made_writable(name, rng):
    # the array that owns the data is locked too, so what `_kept` derived from
    # a value cannot go stale and a shared array cannot change
    amps = FROZEN[name](rng)
    with pytest.raises(ValueError):
        amps.setflags(write=True)
    with pytest.raises(ValueError):
        amps[0] = 0


def test_racing_threads_read_equal_derived_values(rng):
    # `_kept` takes no lock: threads that race on a fresh operator may each
    # compute its values, but every one must read values equal to a fresh
    # computation, and the value kept afterwards must not change
    ops = [random_operator(8, rng) for _ in range(50)]
    fresh = [(hs_expand(dataclasses.replace(op)).coeffs, float(np.sum(np.abs(op.entries) ** 2))) for op in ops]
    seen = [[] for _ in ops]

    def read_all():
        for op, out in zip(ops, seen):
            out.append((hs_expand(op), op.gram_trace()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_all) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for op, out, (coeffs, gram) in zip(ops, seen, fresh):
        assert len(out) == len(threads)
        assert all(np.array_equal(exp.coeffs, coeffs) and g == gram for exp, g in out)
        assert hs_expand(op) is hs_expand(op)


def test_racing_first_reads_of_a_deferred_output_agree(rng):
    # a deferred network output is made on its first read, through `_kept`:
    # threads that race there, or on a post-selection of the unread output,
    # may each make it, but every read must equal the gather's, and the
    # amplitudes kept afterwards must not change. A post-selection that ran
    # before the first read is the program's success map applied to ψ, one
    # after it the contraction of the read output: each has the bits of its
    # path, and the two agree to 1e-14
    dim = 28
    spec = QuditShiftNetwork(dim)
    source = processor._compiled(QuditShiftNetwork(dim))
    inputs = [(random_state(dim, 1, rng), random_state(dim, 2, rng)) for _ in range(20)]
    bra = random_state(dim, 2, rng)
    fresh = [tensor(data, prog).amplitudes[source] for data, prog in inputs]
    outs = [apply_processor(spec, data, prog) for data, prog in inputs]
    seen = [[] for _ in outs]

    def read_all(first_projects):
        for out, got in zip(outs, seen):
            if first_projects:
                got.append(partial_inner_product(bra, out).amplitudes)
            got.append(out.amplitudes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_all, args=(i % 2,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (data, prog), out, got, amps in zip(inputs, outs, seen, fresh):
        read = amps.reshape(dim, -1) @ bra.amplitudes.conj()
        unread = partial_inner_product(bra, apply_processor(spec, data, prog)).amplitudes
        assert max_abs_diff(unread, read) <= 1e-14 * np.max(np.abs(read))
        overlaps = [a for a in got if a.size == dim]
        assert len(got) == 6 and len(overlaps) == 2
        assert all(np.array_equal(a, amps) for a in got if a.size == amps.size)
        assert all(np.array_equal(a, unread) or np.array_equal(a, read) for a in overlaps)
        assert out.amplitudes is out.amplitudes and not out.amplitudes.flags.writeable
