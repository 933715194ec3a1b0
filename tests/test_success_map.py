"""The success map K that post-selects a deferred network output in one N x N matvec.

A successful measurement of M on the program register leaves the data acted
on by K = (1 ⊗ <M|) U (1 ⊗ |P>). `processor` builds K from the network's
G^-1, P's amplitudes and M's nonzero labels and keeps it on the program; these
tests hold it to two references that share no code with it: `k_bell`, the
paper's Bell-diagonal form of the qudit network, and the contraction of the
read output. They also bound its memory, check that it reads no program
amplitude the bra does not select, and that its build imports no `numpy.ma`.
"""

import copy
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quditproc import (
    GateArray,
    QuditRegisterState,
    QuditShiftNetwork,
    ShiftDirection,
    UnnormalizedVector,
    apply_processor,
    basis_state,
    example2_operator,
    family_operator,
    hs_expand,
    measurement_for_labels,
    measurement_full,
    measurement_restricted,
    oracle_apply,
    partial_inner_product,
    post_select,
    program_from_expansion,
    random_operator,
    random_state,
    random_unitary,
    run_experiment,
    u_mn,
)
from quditproc.registers import _adopt

from conftest import assert_close, k_bell, reference_partial_inner_product

SRC = str(Path(__file__).resolve().parent.parent / "src")
_F, _B = ShiftDirection.FORWARD, ShiftDirection.BACKWARD
# G^-1 = ((0, 0, -1), (0, 1, 0), (1, 0, 1)): a width-1 array that is not the
# qudit network, so that K is checked on a second G^-1.
NEGATIVE_ROW_GATES = ((3, 1, _F), (1, 3, _B))
# The qudit network's G^-1 in the paper: output (d, a, b) reads ψ[d + a - b]
# and P[b - d, 2 b - a - d] (mod N).
QUDIT_INVERSE = np.array(((1, 1, -1), (-1, 0, 1), (-1, -1, 2)))

NETWORKS = {"qudit": QuditShiftNetwork, "negative-row": lambda dim: GateArray(dim, 1, NEGATIVE_ROW_GATES)}
# The support measurements of the paper's dimension-independent examples, by
# name: the operator and the dims it exists at.
SUPPORT_OPERATORS = {
    "example2": (lambda dim: example2_operator(0.7, dim), lambda dim: dim % 2 == 0),
    "family": (lambda dim: family_operator(dim.bit_length() - 1, 0.4), lambda dim: dim & (dim - 1) == 0),
    "u_mn": (lambda dim: u_mn(dim, (1, 2)), lambda dim: True),
}


def support_bra(name: str, dim: int) -> QuditRegisterState:
    return measurement_restricted(hs_expand(SUPPORT_OPERATORS[name][0](dim)))


def bras(dim: int, rng) -> dict:
    """Every kind of bra a program register is post-selected against, by name."""
    found = {"full": measurement_full(dim)}
    found.update((name, support_bra(name, dim)) for name, (_, exists) in SUPPORT_OPERATORS.items() if exists(dim))
    mask = rng.random((dim, dim)) < 0.5
    found["dense-mask"] = measurement_for_labels(dim, np.argwhere(mask).tolist())
    found["all-zero"] = UnnormalizedVector(dim, 2, np.zeros(dim * dim))
    return found


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("dim", [9, 16, 28, 64, 127, 128, 129])
def test_success_map_equals_the_bell_diagonal_form_and_the_read_output(dim, network, rng):
    spec = NETWORKS[network](dim)
    program, psi = random_state(dim, 2, rng), random_state(dim, 1, rng)
    read = apply_processor(spec, psi, program).amplitudes
    found = bras(dim, rng)
    assert np.count_nonzero(found["dense-mask"].amplitudes) > 2 * dim  # built in chunks, not kept
    for name, bra in found.items():
        overlap = partial_inner_product(bra, apply_processor(spec, psi, program)).amplitudes
        k = vars(program)["_success_map"][2]
        assert np.array_equal(overlap, k @ psi.amplitudes), name
        assert_close(overlap, reference_partial_inner_product(bra, QuditRegisterState(dim, 3, read), (2, 3)))
        if name == "all-zero":
            assert not np.any(k)
        elif network == "qudit":
            assert_close(k, k_bell(program, bra))
        elif dim <= 28:
            # K's column e is the overlap of the read output for ψ = |e>
            columns = [
                reference_partial_inner_product(bra, apply_processor(spec, basis_state(dim, 1, [e]), program), (2, 3))
                for e in range(dim)
            ]
            assert_close(k, np.array(columns).T)


@pytest.mark.parametrize("draw", [random_unitary, random_operator], ids=["haar", "ginibre"])
@pytest.mark.parametrize("dim", [9, 64, 256])
def test_a_run_under_the_full_measurement_keeps_k_equal_to_the_scaled_operator(dim, draw, rng):
    # The paper's claim in operator form: post-selecting the program of A onto
    # every Bell state applies K = A / sqrt(N Tr(A†A)), with no extra phase.
    op = draw(dim, rng)
    outcome = run_experiment(QuditShiftNetwork(dim), op, random_state(dim, 1, rng), "full")
    assert outcome.oracle_fidelity > 1 - 1e-12
    k = vars(program_from_expansion(hs_expand(op)).state)["_success_map"][2]
    assert_close(k, op.entries / np.sqrt(dim * op.gram_trace()))


def test_a_program_keeps_one_success_map_for_its_last_network_and_bra(rng):
    # One slot: an equal network and the same bra object reuse K, any other
    # pair replaces it, and an equal bra that is another object is another bra.
    dim = 28
    program, psi = random_state(dim, 2, rng), random_state(dim, 1, rng)
    qudit, negative = QuditShiftNetwork(dim), NETWORKS["negative-row"](dim)
    full, support = measurement_full(dim), measurement_for_labels(dim, [(1, 2)])

    def slot(spec, bra):
        post_select(apply_processor(spec, psi, program), bra)
        assert [name for name in vars(program) if name.startswith("_")] == ["_success_map"]
        return vars(program)["_success_map"]

    first = slot(qudit, full)
    assert first[0] is qudit and first[1] is full and first[2].shape == (dim, dim)
    assert slot(QuditShiftNetwork(dim), full) is first
    second = slot(qudit, support)
    assert second[1] is support and not np.array_equal(second[2], first[2])
    third = slot(negative, support)
    assert third[0] is negative and not np.array_equal(third[2], second[2])
    fourth = slot(negative, copy.copy(support))
    assert fourth[2] is not third[2] and np.array_equal(fourth[2], third[2])
    assert np.array_equal(slot(qudit, full)[2], first[2])


MEMORY_CASES = [
    pytest.param(name, dim, id=f"{name}-{dim}")
    for name, (_, exists) in SUPPORT_OPERATORS.items()
    for dim in (127, 128, 129, 256)
    if exists(dim)
]


@pytest.mark.parametrize("name, dim", MEMORY_CASES)
def test_a_support_post_selection_peaks_at_order_n_squared_and_a_reused_one_at_order_n(name, dim, rng):
    # The first post-selection of a fresh program against a fresh support bra
    # of at most 2 N nonzeros makes the bra's index, N labels at a time, and
    # K: both O(N^2), 96 N^2 B at most (6 MiB at N = 256). Contracting the
    # bra's span would make up to N^3 products (265 MiB at N = 256). A reused
    # post-selection is one matvec and the outcome, O(N).
    slack = 16 * 1024  # Python objects made along the way
    op = SUPPORT_OPERATORS[name][0](dim)
    expansion = hs_expand(op)
    program, meas = program_from_expansion(expansion).state, measurement_restricted(expansion)
    spec, psi = QuditShiftNetwork(dim), random_state(dim, 1, rng)
    oracle = oracle_apply(op, psi)
    assert np.count_nonzero(meas.amplitudes) <= 2 * dim
    tracemalloc.start()
    try:
        first = post_select(apply_processor(spec, psi, program), meas, oracle)
        _, first_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        again = post_select(apply_processor(spec, psi, program), meas, oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_peak < 96 * dim**2 + slack
    assert peak - before < 16 * 4 * dim + slack
    assert again == first and first.oracle_fidelity >= 1 - 1e-12


@pytest.mark.parametrize("name, dim", [("example2", 28), ("example2", 64), ("family", 64), ("u_mn", 29)])
def test_the_success_map_reads_only_the_program_amplitudes_its_bra_selects(name, dim, rng):
    # Every program amplitude that no (output digit, nonzero bra label) reads
    # is NaN, which would spread through 0 * NaN if K's build read it. The
    # read ones are P[b - d, 2 b - a - d] for label (a, b), from G^-1.
    meas = support_bra(name, dim)
    program = random_state(dim, 2, rng)
    a, b = np.divmod(np.flatnonzero(meas.amplitudes), dim)
    d = np.arange(dim)[:, None]
    rows, cols = ((g[0] * d + g[1] * a + g[2] * b) % dim for g in QUDIT_INVERSE[1:])
    amps = np.full(dim * dim, np.nan, dtype=complex)
    read = (rows * dim + cols).reshape(-1)
    amps[read] = program.amplitudes[read]
    assert np.isnan(amps).sum() >= dim * (dim - 2)  # at most 2 N nonzero labels read one amplitude per d
    poisoned = _adopt(QuditRegisterState, dim, 2, amps)
    spec, psi = QuditShiftNetwork(dim), random_state(dim, 1, rng)
    clean = post_select(apply_processor(spec, psi, program), meas)
    dirty = post_select(apply_processor(spec, psi, poisoned), meas)
    assert np.isfinite(dirty.probability) and dirty.data_state is not None
    assert dirty == clean


def test_runs_import_no_numpy_ma():
    # `np.unique` imports numpy.ma, which raises every workload's peak RSS;
    # no run path may reach it
    code = "\n".join(
        [
            "import sys, tempfile, os",
            "import numpy as np",
            "from quditproc import QuditShiftNetwork, example2_operator, random_state, random_unitary, run_experiment",
            "from quditproc.cli import main",
            "with tempfile.TemporaryDirectory() as tmp:",
            "    assert main(['run', '--config', 'paper-claims', '--out', os.path.join(tmp, 'r.json')]) == 0",
            "rng = np.random.default_rng(0)",
            "spec, psi = QuditShiftNetwork(64), random_state(64, 1, rng)",
            "assert run_experiment(spec, random_unitary(64, rng), psi, 'full').data_state is not None",
            "assert run_experiment(spec, example2_operator(0.7, 64), psi, 'support').data_state is not None",
            "print('numpy.ma' in sys.modules)",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
