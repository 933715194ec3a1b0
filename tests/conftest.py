import json

import numpy as np
import pytest

from quditproc import HsExpansion, predicted_probability, random_state, run_experiment, u_mn
from quditproc.harness import ReportRow, build_operator
from quditproc.postselect import ZERO_PROBABILITY_CUTOFF


@pytest.fixture
def rng():
    return np.random.default_rng(271828)


def strict_json(text: str):
    """json.loads that refuses NaN and ±Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def assert_close(got, want, rel: float = 1e-14) -> None:
    """Entrywise |got - want| at most `rel` times the largest |want|; exact when `want` is all zero."""
    want = np.asarray(want)
    assert max_abs_diff(got, want) <= rel * float(np.max(np.abs(want), initial=0.0))


def assert_outcomes_close(got, want, rel: float = 1e-14) -> None:
    """Two post-selection outcomes of one run agree to `rel`: probability, data state, fidelity and phase."""
    assert abs(got.probability - want.probability) <= rel * want.probability
    assert (got.data_state is None) == (want.data_state is None)
    if want.data_state is not None:
        assert_close(got.data_state.amplitudes, want.data_state.amplitudes, rel)
    assert abs(got.oracle_fidelity - want.oracle_fidelity) <= rel
    assert (got.global_phase is None) == (want.global_phase is None)
    if want.global_phase is not None:
        assert abs(got.global_phase - want.global_phase) <= rel


def index_to_digits(index: int, dim: int, arity: int) -> tuple[int, ...]:
    """Big-endian base-`dim` digits of a flat index, `arity` digits long."""
    digits = []
    for _ in range(arity):
        index, d = divmod(index, dim)
        digits.append(d)
    return tuple(reversed(digits))


def reconstruct(expansion) -> np.ndarray:
    """Inverse of hs_expand in its FFT form: sum_mn q_mn u(m,n) = A with
    A[(s - n) mod N, s] = fft(q, axis=0)[s, n], one FFT and one scatter."""
    dim = expansion.dim
    s = np.arange(dim)[:, None]
    out = np.empty((dim, dim), dtype=complex)
    out[(s - s.T) % dim, s] = np.fft.fft(expansion.coeffs, axis=0)
    return out


def reconstruct_reference(expansion) -> np.ndarray:
    """Reference for `reconstruct`: sum_mn q_mn u(m,n), one basis operator at a time."""
    dim = expansion.dim
    total = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            total += expansion.coeffs[m, n] * u_mn(dim, (m, n)).entries
    return total


def bell_coefficients(state) -> np.ndarray:
    """<Xi_mn|state> of a two-qudit state as an N x N table [m, n]: the inverse of
    bell_basis_matrix, one gather and one FFT."""
    dim = state.dim
    k = np.arange(dim)
    # bell_basis_matrix puts column n of row k at amplitude (k, (k - n) mod N)
    cols = state.amplitudes.reshape(dim, dim)[k[:, None], (k[:, None] - k) % dim]
    return np.fft.fft(cols, axis=0) / np.sqrt(dim)


def k_bell(program, meas) -> np.ndarray:
    """Reference success-branch operator from the paper's Bell-diagonal form of
    the network, U = sum_mn u(m,n) ⊗ |Xi_mn><Xi_mn|: projecting U(psi ⊗ P) onto
    M leaves K psi with K = sum_mn conj<Xi_mn|M> <Xi_mn|P> u(m,n), summed as
    `reconstruct` sums an expansion. It reads no gate."""
    weights = bell_coefficients(meas).conj() * bell_coefficients(program)
    return reconstruct(HsExpansion(program.dim, weights))


def reference_shift(amplitudes, dim: int, arity: int, control: int, target: int, sign: int) -> np.ndarray:
    """Reference conditional shift as one gather: output digit m on the target
    reads input digit (m - sign*k) mod N, k the control digit (1-based subsystems)."""
    digits = np.arange(dim)
    ctrl = digits.reshape([dim if ax == control - 1 else 1 for ax in range(arity)])
    tgt = digits.reshape([dim if ax == target - 1 else 1 for ax in range(arity)])
    cube = np.take_along_axis(
        np.asarray(amplitudes).reshape((dim,) * arity), (tgt - sign * ctrl) % dim, axis=target - 1
    )
    return cube.reshape(-1)


def reference_partial_inner_product(bra, joint, subsystems) -> np.ndarray:
    """Reference partial inner product as one general tensordot: <bra| contracted
    against `joint`'s 1-based `subsystems`, in the order of `bra`'s subsystems;
    the amplitudes left on the other subsystems, in their original order."""
    n = joint.dim
    cube = joint.amplitudes.reshape((n,) * joint.arity)
    bra_cube = bra.amplitudes.conj().reshape((n,) * bra.arity)
    axes = [s - 1 for s in subsystems]
    return np.tensordot(cube, bra_cube, axes=(axes, list(range(bra.arity)))).reshape(-1)


def reference_row(scn, global_seed: int, index: int) -> ReportRow:
    """Reference of harness.run_scenario: one trial per run_experiment call,
    each trial building its operator and then drawing its data state. Wall
    time reads 0."""
    rng = np.random.default_rng(scn.seed if scn.seed is not None else [global_seed, index])
    sims, preds, fids = [], [], []
    for _ in range(scn.trials):
        op = build_operator(scn.operator_name, scn.operator_params, scn.dim, rng)
        psi = random_state(scn.dim, 1, rng) if isinstance(scn.data_state, str) else scn.data_state
        outcome = run_experiment(scn.processor, op, psi, scn.measurement)
        sims.append(outcome.probability)
        preds.append(predicted_probability(op, psi, scn.measurement))
        if outcome.probability > ZERO_PROBABILITY_CUTOFF:
            fids.append(outcome.oracle_fidelity)
    devs = [abs(sim - pred) for sim, pred in zip(sims, preds)]
    sim_mean = float(np.mean(sims))
    min_fid = min(fids) if fids else None
    passed = max(devs) <= scn.tolerance
    if scn.expected_probability is not None:
        passed = passed and abs(sim_mean - scn.expected_probability) <= scn.tolerance
    if min_fid is not None:
        passed = passed and min_fid >= 1.0 - scn.tolerance
    return ReportRow(
        id=scn.id,
        dim=scn.dim,
        operator=scn.operator_name,
        measurement=scn.measurement,
        trials=scn.trials,
        predicted_probability=float(np.mean(preds)),
        simulated_probability_mean=sim_mean,
        max_probability_deviation=float(max(devs)),
        min_oracle_fidelity=min_fid,
        expected_probability=scn.expected_probability,
        tolerance=scn.tolerance,
        passed=bool(passed),
        wall_time_ms=0.0,
    )
