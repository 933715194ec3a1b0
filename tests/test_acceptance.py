"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import itertools
import json

import numpy as np
import pytest

from quditproc import (
    GeneralDiagonal,
    QubitCnotNetwork,
    QuditShiftNetwork,
    TensorQubitArray,
    apply_processor,
    basis_state,
    bell_state,
    example1_operator,
    example2_operator,
    exchange_operator,
    family_operator,
    hs_expand,
    measurement_for_labels,
    oracle_apply,
    pauli_s,
    post_select,
    prepare_exchange_program,
    prepare_reflection_program,
    predicted_probability,
    program_from_expansion,
    qubit_network_matches_shift_network,
    random_operator,
    random_state,
    random_unitary,
    reflection_operator,
    reflection_program_factored,
    run_experiment,
    tensor,
    u_mn,
    TRACELESS_QUBIT_LABELS,
)
from quditproc.cli import main as cli_main

from conftest import reconstruct


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_c01_basis_action_table():
    worst = 0.0
    for dim in (2, 3, 4, 5):
        proc = QuditShiftNetwork(dim)
        for n, m, k in itertools.product(range(dim), repeat=3):
            out = apply_processor(proc, basis_state(dim, 1, [n]), basis_state(dim, 2, [m, k]))
            expected = basis_state(
                dim, 3, [(n - m + k) % dim, (m + n) % dim, (k + n) % dim]
            )
            worst = max(worst, float(np.max(np.abs(out.amplitudes - expected.amplitudes))))
    _report(1, "basis triples map to (n-m+k, m+n, k+n) mod N", worst <= 1e-12, f"max err {worst:.2e}")


def test_c02_bell_programs_apply_basis_operators():
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 3, 4, 5):
        proc = QuditShiftNetwork(dim)
        states = [random_state(dim, 1, rng) for _ in range(20)]
        for m in range(dim):
            for n in range(dim):
                bell = bell_state(dim, (m, n))
                op = u_mn(dim, (m, n))
                for psi in states:
                    out = apply_processor(proc, psi, bell)
                    expected = np.kron(op.entries @ psi.amplitudes, bell.amplitudes)
                    worst = max(worst, float(np.max(np.abs(out.amplitudes - expected))))
    _report(2, "Bell programs apply their basis operator exactly", worst <= 1e-12, f"max err {worst:.2e}")


def test_c03_qubit_bell_table_and_network_agreement():
    rng = np.random.default_rng(102)
    worst = 0.0
    proc = QubitCnotNetwork()
    for _ in range(10):
        psi = random_state(2, 1, rng)
        for j, k in itertools.product((0, 1), repeat=2):
            out = apply_processor(proc, psi, bell_state(2, (j, k)))
            expected = np.kron(pauli_s(j, k).entries @ psi.amplitudes, bell_state(2, (j, k)).amplitudes)
            worst = max(worst, float(np.max(np.abs(out.amplitudes - expected))))
    agree = qubit_network_matches_shift_network(2)
    _report(
        3,
        "qubit Bell table holds and both networks coincide at dim 2",
        worst <= 1e-12 and agree,
        f"max err {worst:.2e}",
    )


def test_c04_qubit_reflection_and_exchange_one_third():
    rng = np.random.default_rng(103)
    meas = measurement_for_labels(2, TRACELESS_QUBIT_LABELS)
    proc = QubitCnotNetwork()
    worst_p, worst_f = 0.0, 1.0
    for _ in range(50):
        phi = random_state(2, 1, rng)
        psi = random_state(2, 1, rng)
        for program, op in (
            (prepare_reflection_program(phi), reflection_operator(phi)),
            (prepare_exchange_program(phi), exchange_operator(phi)),
        ):
            joint = apply_processor(proc, psi, program)
            outcome = post_select(joint, meas, oracle_apply(op, psi))
            worst_p = max(worst_p, abs(outcome.probability - 1 / 3))
            worst_f = min(worst_f, outcome.oracle_fidelity)
    _report(
        4,
        "reflection and exchange programs succeed with probability 1/3",
        worst_p <= 1e-10 and worst_f >= 1 - 1e-10,
        f"max |p-1/3| {worst_p:.2e}, min fidelity {worst_f:.12f}",
    )


def test_c05_general_unitary_probability():
    rng = np.random.default_rng(104)
    worst_p, worst_spread, worst_f = 0.0, 0.0, 1.0
    for dim in (2, 3, 4, 5):
        proc = QuditShiftNetwork(dim)
        for _ in range(100):
            u = random_unitary(dim, rng)
            outcome = run_experiment(proc, u, random_state(dim, 1, rng), "full")
            worst_p = max(worst_p, abs(outcome.probability - 1 / dim**2))
            worst_f = min(worst_f, outcome.oracle_fidelity)
        probe = random_unitary(dim, rng)
        probs = [
            run_experiment(proc, probe, random_state(dim, 1, rng), "full").probability
            for _ in range(20)
        ]
        worst_spread = max(worst_spread, max(probs) - min(probs))
    _report(
        5,
        "random unitaries succeed with probability 1/N^2, independent of the data",
        worst_p <= 1e-10 and worst_spread < 1e-10 and worst_f >= 1 - 1e-10,
        f"max |p-1/N^2| {worst_p:.2e}, max spread {worst_spread:.2e}",
    )


def test_c06_restricted_probability_is_inverse_support_size():
    rng = np.random.default_rng(105)
    from quditproc import DenseOperator

    catalog = []
    catalog.append((3, DenseOperator(3, np.eye(3), label="identity")))
    catalog.append((3, u_mn(3, (1, 2))))
    for dim in (2, 3, 4):
        catalog.append((dim, reflection_operator(random_state(dim, 1, rng))))
    catalog.append((2, exchange_operator(random_state(2, 1, rng))))
    catalog.append((4, example1_operator(0.7)))
    for l in (1, 2, 3):
        catalog.append((2**l, family_operator(l, 0.43)))
    for dim in (2, 4, 6, 8):
        catalog.append((dim, example2_operator(0.3, dim)))
    worst = 0.0
    for dim, op in catalog:
        support_size = len(hs_expand(op).support())
        outcome = run_experiment(QuditShiftNetwork(dim), op, random_state(dim, 1, rng), "support")
        worst = max(worst, abs(outcome.probability - 1 / support_size))
    _report(
        6,
        "catalog unitaries succeed with probability 1/support under restricted measurement",
        worst <= 1e-10,
        f"max |p-1/S| {worst:.2e}",
    )


def test_c07_one_parameter_family_at_dim_four():
    rng = np.random.default_rng(106)
    worst_p = 0.0
    for phi in np.linspace(0.05, 1.5, 20):
        outcome = run_experiment(
            QuditShiftNetwork(4), example1_operator(phi), random_state(4, 1, rng), "support"
        )
        worst_p = max(worst_p, abs(outcome.probability - 1 / 3))
    bracket = (1 + 1j) / 2 * u_mn(4, (1, 0)).entries + (1 - 1j) / 2 * u_mn(4, (3, 0)).entries
    bracket_err = float(np.max(np.abs(bracket - np.kron(np.diag([1, -1]), np.eye(2)))))
    _report(
        7,
        "dim-4 family succeeds with probability 1/3; its generator is sigma_z on the leading qubit",
        worst_p <= 1e-10 and bracket_err <= 1e-12,
        f"max |p-1/3| {worst_p:.2e}, bracket err {bracket_err:.2e}",
    )


def test_c08_family_probability_follows_support_growth():
    rng = np.random.default_rng(107)
    worst = 0.0
    for l in (1, 2, 3):
        expected = 2 / (2**l + 2)
        outcome = run_experiment(
            QuditShiftNetwork(2**l), family_operator(l, 0.43), random_state(2**l, 1, rng), "support"
        )
        worst = max(worst, abs(outcome.probability - expected))
    _report(8, "l-qubit family succeeds with probability 2/(2^l+2)", worst <= 1e-10, f"max err {worst:.2e}")


def test_c09_two_term_rotation_probability_half():
    rng = np.random.default_rng(108)
    worst_p, worst_u = 0.0, 0.0
    for dim in (2, 4, 6, 8):
        for theta in np.linspace(0.1, 1.4, 10):
            op = example2_operator(theta, dim)
            delta = op.entries.conj().T @ op.entries - np.eye(dim)
            worst_u = max(worst_u, float(np.max(np.abs(delta))))
            outcome = run_experiment(QuditShiftNetwork(dim), op, random_state(dim, 1, rng), "support")
            worst_p = max(worst_p, abs(outcome.probability - 0.5))
    _report(
        9,
        "two-term rotation succeeds with probability 1/2 at every even dimension",
        worst_p <= 1e-10 and worst_u <= 1e-12,
        f"max |p-1/2| {worst_p:.2e}, max unitarity err {worst_u:.2e}",
    )


def test_c10_expansion_round_trip_parseval_orthogonality():
    rng = np.random.default_rng(109)
    worst_rt, worst_pv, worst_orth = 0.0, 0.0, 0.0
    for dim in (2, 3, 4, 5):
        for _ in range(200):
            op = random_operator(dim, rng)
            exp = hs_expand(op)
            worst_rt = max(worst_rt, float(np.max(np.abs(reconstruct(exp) - op.entries))))
            worst_pv = max(worst_pv, abs(exp.gram_norm - op.gram_trace() / dim))
        ops = [u_mn(dim, (m, n)).entries for m in range(dim) for n in range(dim)]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                tr = np.trace(a.conj().T @ b)
                expected = dim if i == j else 0.0
                worst_orth = max(worst_orth, abs(tr - expected))
    _report(
        10,
        "expansion round-trips, satisfies Parseval, and the basis is trace-orthogonal",
        worst_rt <= 1e-10 and worst_pv <= 1e-10 and worst_orth <= 1e-12,
        f"round-trip {worst_rt:.2e}, Parseval {worst_pv:.2e}, orthogonality {worst_orth:.2e}",
    )


def test_c11_factored_reflection_program():
    rng = np.random.default_rng(110)
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(20):
            phi = random_state(dim, 1, rng)
            a = reflection_program_factored(phi).amplitudes
            b = program_from_expansion(hs_expand(reflection_operator(phi))).state.amplitudes
            worst = max(worst, float(np.max(np.abs(a - b))))
    _report(
        11,
        "circuit-factored reflection program equals the synthesized one",
        worst <= 1e-10,
        f"max err {worst:.2e}",
    )


def test_c12_non_unitary_transformations():
    rng = np.random.default_rng(111)
    worst_dev, worst_f = 0.0, 1.0
    checked = 0
    for dim in (2, 3):
        proc = QuditShiftNetwork(dim)
        for _ in range(50):
            op = random_operator(dim, rng)
            psi = random_state(dim, 1, rng)
            for kind in ("full", "support"):
                outcome = run_experiment(proc, op, psi, kind)
                worst_dev = max(
                    worst_dev, abs(outcome.probability - predicted_probability(op, psi, kind))
                )
                if outcome.probability > 1e-14:
                    worst_f = min(worst_f, outcome.oracle_fidelity)
                    checked += 1
    _report(
        12,
        "non-unitary operators match the oracle and the derived probability formula",
        worst_dev <= 1e-10 and worst_f >= 1 - 1e-10 and checked > 0,
        f"max |p-formula| {worst_dev:.2e}, min fidelity {worst_f:.12f}",
    )


def test_c13_tensor_array_and_general_diagonal():
    rng = np.random.default_rng(112)
    worst_arr = 0.0
    for j1, k1, j2, k2 in itertools.product((0, 1), repeat=4):
        data = random_state(2, 2, rng)
        p1, p2 = bell_state(2, (j1, k1)), bell_state(2, (j2, k2))
        out = apply_processor(TensorQubitArray(2), data, tensor(p1, p2))
        u_jk = np.kron(u_mn(2, (j1, k1)).entries, u_mn(2, (j2, k2)).entries)
        expected = np.kron(np.kron(u_jk @ data.amplitudes, p1.amplitudes), p2.amplitudes)
        worst_arr = max(worst_arr, float(np.max(np.abs(out.amplitudes - expected))))
    worst_gd = 0.0
    for dim in (2, 3):
        ops = tuple(u_mn(dim, (m, n)) for m in range(dim) for n in range(dim))
        ys = tuple(bell_state(dim, (m, n)) for m in range(dim) for n in range(dim))
        spec = GeneralDiagonal(ops, ys)
        shift = QuditShiftNetwork(dim)
        for _ in range(100):
            data = random_state(dim, 1, rng)
            prog = random_state(dim, 2, rng)
            a = apply_processor(spec, data, prog)
            b = apply_processor(shift, data, prog)
            worst_gd = max(worst_gd, float(np.max(np.abs(a.amplitudes - b.amplitudes))))
    _report(
        13,
        "tensor Bell programs implement the product operators; the diagonal form matches the network",
        worst_arr <= 1e-12 and worst_gd <= 1e-10,
        f"array err {worst_arr:.2e}, diagonal err {worst_gd:.2e}",
    )


def test_c14_cli_paper_claims_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = cli_main(["run", "--config", "paper-claims", "--out", str(out1), "--seed", "2024"])
    code2 = cli_main(["run", "--config", "paper-claims", "--out", str(out2), "--seed", "2024"])
    identical = out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    _report(
        14,
        "bundled paper-claims config exits 0 with byte-identical reports per seed",
        code1 == 0 and code2 == 0 and identical and doc["all_passed"],
        f"exit codes {code1}/{code2}",
    )
