"""Program-register post-selection and the brute-force oracle it is checked against.

Measurement is modeled as a deterministic rank-one projection followed by
renormalization; success probability is the squared norm of the projected
component. Post-selected states are compared to the oracle by fidelity, with
the relating global phase reported for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processor import ProcessorSpec, QubitCnotNetwork, QuditShiftNetwork, apply_processor
from .programs import hs_expand, measurement_full, measurement_restricted, program_from_expansion
from .registers import (
    DenseOperator,
    QuditRegisterState,
    _adopt_checked,
    _locked,
    _norm,
    _Value,
    inner_product,
    partial_inner_product,
)

# Probabilities below this count as "the measurement can never succeed" rather
# than numerical dust.
ZERO_PROBABILITY_CUTOFF = 1e-14
# The program-register measurements: onto all N^2 Bell states, or onto the
# operator's support only.
MEASUREMENT_KINDS = ("full", "support")


class StateAnnihilatedError(ValueError):
    """The operator maps this state to (numerically) zero; no oracle state exists."""


@dataclass(frozen=True, eq=False)
class PostSelectionOutcome(_Value):
    """Result of one post-selected run.

    data_state is absent when the success probability falls below the cutoff;
    oracle_fidelity is |<oracle|data>|^2 and global_phase the unit scalar with
    data = phase * oracle (both zero/None when either side is missing).
    """

    probability: float
    data_state: QuditRegisterState | None
    oracle_fidelity: float
    global_phase: complex | None


def post_select(
    joint, meas: QuditRegisterState, oracle_state: QuditRegisterState | None = None
) -> PostSelectionOutcome:
    """Project the trailing subsystems of `joint` onto the measurement vector.

    The measurement lives on the program register (the last subsystems of the
    joint state); whatever leads it is the data register. The overlap is
    `partial_inner_product`'s, and its norm is taken once, by
    `np.linalg.norm`'s arithmetic: its square is the success probability, and
    the overlap divided by it is the data state, a fresh vector that takes the
    constructor's checks without its copy (`registers._adopt_checked`). A
    probability at or below ZERO_PROBABILITY_CUTOFF leaves no data state; it
    is reported, not raised.
    """
    overlap = partial_inner_product(meas, joint).amplitudes
    norm = _norm(overlap)
    probability = norm**2
    data_state = None
    if probability > ZERO_PROBABILITY_CUTOFF:
        data_state = _adopt_checked(QuditRegisterState, joint.dim, joint.arity - meas.arity, overlap / norm)
    fidelity = 0.0
    phase: complex | None = None
    if data_state is not None and oracle_state is not None:
        ip = inner_product(oracle_state, data_state)
        fidelity = abs(ip) ** 2
        if abs(ip) > 0.0:
            phase = complex(ip / abs(ip))
    return PostSelectionOutcome(probability, data_state, float(fidelity), phase)


def oracle_apply(op: DenseOperator, psi: QuditRegisterState) -> QuditRegisterState:
    """Ground truth: |psi> -> A|psi> / ||A psi||, by direct matrix application.

    A psi is made once per (operator, state) and shared with
    `predicted_probability`. The scale ||A psi|| is `np.linalg.norm`'s
    arithmetic, and the state takes the constructor's checks without its copy
    (`registers._adopt_checked`).
    """
    if op.dim != psi.amplitudes.size:
        raise ValueError(
            f"operator dimension {op.dim} does not match register size {psi.amplitudes.size}"
        )
    image = _image(op, psi)
    norm = _norm(image)
    # Relative to the operator's scale: ||A psi|| <= sqrt(Tr(A†A)) for a unit psi.
    if norm <= 1e-14 * math.sqrt(op.gram_trace()):
        raise StateAnnihilatedError("operator annihilates this state")
    return _adopt_checked(QuditRegisterState, psi.dim, psi.arity, image / norm)


def _image(op: DenseOperator, psi: QuditRegisterState) -> np.ndarray:
    """A psi, kept on the operator in one slot for the last state it was applied to.

    The oracle and the closed form of one run read the same product, so the
    run makes it once. The slot holds psi, so its identity cannot be taken by
    another value; racing threads may each make the product, to the same bits.
    """
    slot = vars(op).get("_image")
    if slot is None or slot[0] is not psi:
        slot = (psi, _locked(op.entries @ psi.amplitudes))
        vars(op)["_image"] = slot
    return slot[1]


def predicted_probability(op: DenseOperator, psi: QuditRegisterState, meas_kind: str = "full") -> float:
    """Closed-form success probability for the program-register measurement.

    full:    ||A psi||^2 / (N Tr(A†A))      -> 1/N^2 when A is unitary
    support: N ||A psi||^2 / (S Tr(A†A))    -> 1/S  when A is unitary,
    with S the number of expansion coefficients above the support threshold.
    The non-unitary form is a derivation from the expansion of the processor
    output; tests validate it against full simulation.
    """
    if op.dim != psi.amplitudes.size:
        raise ValueError("operator and state dimensions do not match")
    image = _image(op, psi)
    image_sq = float(np.vdot(image, image).real)
    gram = op.gram_trace()
    if meas_kind == "full":
        return image_sq / (op.dim * gram)
    if meas_kind == "support":
        s = hs_expand(op).support_size()
        return op.dim * image_sq / (s * gram)
    raise ValueError(f"unknown measurement kind: {meas_kind!r}")


def run_experiment(
    proc: ProcessorSpec,
    op: DenseOperator,
    psi: QuditRegisterState,
    meas_kind: str = "full",
) -> PostSelectionOutcome:
    """Run one data state through the program for `op`, post-select it and compare it with the oracle.

    The program register encodes only the operator, so the program and the
    support measurement are kept on the operator's expansion: every call with
    the same `op` value reuses them, whatever the data state. Supports the
    single-data-qudit networks; the tensor array and the general diagonal
    processor need program encodings of their own. An operator or state whose
    dimension does not fit the network is a ValueError from `apply_processor`.
    """
    if not isinstance(proc, (QuditShiftNetwork, QubitCnotNetwork)):
        raise TypeError("run_experiment supports the shift and CNOT networks only")
    if meas_kind not in MEASUREMENT_KINDS:
        raise ValueError(f"unknown measurement kind: {meas_kind!r}")
    expansion = hs_expand(op)
    program = program_from_expansion(expansion).state
    meas = measurement_full(op.dim) if meas_kind == "full" else measurement_restricted(expansion)
    joint = apply_processor(proc, psi, program)
    try:
        oracle = oracle_apply(op, psi)
    except StateAnnihilatedError:
        oracle = None
    return post_select(joint, meas, oracle)
