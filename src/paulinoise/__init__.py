"""Closest Pauli channel extraction for approximate quantum gates.

Given a gate implementation (dense unitary, dense superoperator, or weighted
unitary ensemble) and its intended target, this package expands the residual
error in the Pauli-string basis, reads off the stochastic Pauli channel that
is provably closest in the normalized Frobenius metric, quantifies the
coherent weight that no stochastic model can reproduce, accounts for leakage
outside the computational subspace, and exports the model to
stochastic-noise simulators as a chain of correlated-error instructions.
"""

__version__ = "0.1.0"

from .channels import (
    channel_distance,
    hermiticity_defect,
    lift_unitary,
    trace_preservation_defect,
)
from .errors import (
    DimensionError,
    ModelFormatError,
    PauliNoiseError,
    PhysicalityError,
    SizeLimitError,
)
from .extraction import (
    ExtractionChecks,
    ExtractionResult,
    LeakageSpec,
    ModelDiagnostics,
    PauliNoiseModel,
    coefficient_matrix,
    error_channel,
    error_unitary,
    extract_from_channel,
    extract_from_ensemble,
    extract_from_unitary,
    leakage_project,
    leakage_project_channel,
    nearest_pauli_channel,
    pauli_coefficients,
)
from .generators import (
    EnsembleMember,
    average_channel,
    overrotated_cz,
    pauli_channel,
    random_unitary,
    z_rotation,
)
from .model_io import (
    MatrixDocument,
    chain_to_probabilities,
    export_stim_chain,
    read_coefficient_file,
    read_ensemble_file,
    read_matrix_file,
    read_model,
    write_coefficient_file,
    write_ensemble_file,
    write_matrix_file,
    write_model,
)
from .paulis import (
    index_to_label,
    label_to_index,
    pauli_basis,
    pauli_labels,
    pauli_matrix,
    qubit_count,
    unitarity_defect,
    validate_label,
)

__all__ = [
    "DimensionError",
    "EnsembleMember",
    "ExtractionChecks",
    "ExtractionResult",
    "LeakageSpec",
    "MatrixDocument",
    "ModelDiagnostics",
    "ModelFormatError",
    "PauliNoiseError",
    "PauliNoiseModel",
    "PhysicalityError",
    "SizeLimitError",
    "__version__",
    "average_channel",
    "chain_to_probabilities",
    "channel_distance",
    "coefficient_matrix",
    "error_channel",
    "error_unitary",
    "export_stim_chain",
    "extract_from_channel",
    "extract_from_ensemble",
    "extract_from_unitary",
    "hermiticity_defect",
    "index_to_label",
    "label_to_index",
    "leakage_project",
    "leakage_project_channel",
    "lift_unitary",
    "nearest_pauli_channel",
    "overrotated_cz",
    "pauli_basis",
    "pauli_channel",
    "pauli_coefficients",
    "pauli_labels",
    "pauli_matrix",
    "qubit_count",
    "random_unitary",
    "read_coefficient_file",
    "read_ensemble_file",
    "read_matrix_file",
    "read_model",
    "trace_preservation_defect",
    "unitarity_defect",
    "validate_label",
    "write_coefficient_file",
    "write_ensemble_file",
    "write_matrix_file",
    "write_model",
    "z_rotation",
]
