"""Self-verifying simulator of the three-qubit quantum switch.

The switch is a controlled swap: with the control qubit in |1> it
exchanges two data qubits, with a closed-form time evolution generated by
a single coupling between |011> and |101>. This package evolves states
under that dynamics, applies Kraus decoherence channels, computes
entanglement/entropy/fidelity diagnostics numerically, and cross-checks
every number against independent closed-form expressions.
"""

from .channels import (
    CHANNEL_KINDS,
    KrausChannel,
    apply_channel,
    average_fidelity_closed,
    average_fidelity_monte_carlo,
    average_fidelity_numeric,
    lift,
    make_channel,
)
from .entanglement import (
    SchmidtPair,
    concurrence,
    concurrence_closed,
    entropy_symmetry_check,
    fidelity_closed,
    iconcurrence,
    iconcurrence_closed,
    iconcurrence_noisy_closed,
    noisy_pair_density,
    ppt_closed,
    ppt_spectrum,
    reduced_entropy_closed,
    schmidt_closed,
    schmidt_coefficients,
    von_neumann_entropy,
)
from .linalg import EigenSystem, hermitian_eigensystem, is_hermitian, is_unitary, kron, psd_sqrt
from .states import (
    DensityMatrix,
    PureState,
    make_qubit,
    partial_trace,
    partial_transpose,
    project_control,
    qubit_from_angle,
    tensor,
    to_density,
)
from .sweep import (
    MEASURES,
    ChannelSpec,
    Measure,
    SweepConfig,
    SweepRow,
    VerifyCheck,
    diff_sweep,
    emit,
    run_sweep,
    verify,
)
from .switch import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SwitchOperator,
    circuit_unitary,
    evolve,
    fidelity,
    switch_fidelity,
    switch_hamiltonian,
    switch_unitary,
    switch_unitary_oracle,
    switched_pair,
)

__version__ = "0.1.0"
