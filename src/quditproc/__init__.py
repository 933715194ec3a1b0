"""Probabilistic programmable qudit processor, simulated with dense state vectors.

A fixed four-gate network of conditional shifts applies, to a single data
qudit, whatever operator is encoded in a two-qudit program register. Encoding
is exact for the phase-and-shift operator basis (Bell-state programs) and
probabilistic for everything else: the program register is measured after the
run and the result kept only on success. This package builds the program
states for arbitrary operators, runs the network, post-selects, and checks the
outcome and its probability against closed forms and a direct matrix oracle.
"""

from .gates import (
    BellLabel,
    ShiftDirection,
    bell_basis_matrix,
    bell_state,
    conditional_shift,
    conjugate_vector,
    negation_w,
    pauli_s,
    u_init,
    u_mn,
)
from .postselect import (
    PostSelectionOutcome,
    StateAnnihilatedError,
    oracle_apply,
    post_select,
    predicted_probability,
    run_experiment,
)
from .processor import (
    GateArray,
    GeneralDiagonal,
    ProcessorSpec,
    QubitCnotNetwork,
    QuditShiftNetwork,
    TensorQubitArray,
    apply_processor,
    processor_matrix,
    qubit_network_matches_shift_network,
)
from .programs import (
    SUPPORT_THRESHOLD,
    TRACELESS_QUBIT_LABELS,
    HsExpansion,
    ProgramVector,
    example1_operator,
    example2_operator,
    exchange_operator,
    family_operator,
    hs_expand,
    measurement_for_labels,
    measurement_full,
    measurement_restricted,
    orthogonal_qubit_state,
    prepare_exchange_program,
    prepare_reflection_program,
    program_from_expansion,
    reflection_operator,
    reflection_program_factored,
)
from .registers import (
    DenseOperator,
    QuditRegisterState,
    UnnormalizedVector,
    apply_to_register,
    apply_to_subsystem,
    basis_state,
    digits_to_index,
    inner_product,
    partial_inner_product,
    tensor,
)
from .sampling import random_operator, random_state, random_unitary

__version__ = "0.1.0"
