"""Self-verifying simulator of the three-qubit quantum switch.

The switch is a controlled exchange: with the control qubit in |1> it
exchanges two data qubits, iSWAP-type (with a phase -i on |01> and |10>),
with a closed-form time evolution generated by a single coupling between
|011> and |101>. This package evolves states
under that dynamics, applies Kraus decoherence channels, computes
entanglement/entropy/fidelity diagnostics numerically, and cross-checks
every number against independent closed-form expressions.

Names are imported from their modules (``from switchsim import sweep``);
the package itself defines only ``__version__``.
"""

__version__ = "0.1.0"
