"""
Modeling an over-rotated CZ and exporting it to a stochastic simulator
======================================================================

A CZ whose controlled phase overshoots by theta leaves the error unitary
diag(1, 1, 1, e^{-i*theta}). The extracted two-qubit model spreads weight
over IZ, ZI, and ZZ; the export renders it as a chain of correlated-error
instructions whose conditional probabilities reproduce the model exactly.
"""

import numpy as np

from paulinoise import (
    chain_to_probabilities,
    export_stim_chain,
    extract_from_unitary,
    overrotated_cz,
    pauli_labels,
)

theta = 0.2
model = extract_from_unitary(overrotated_cz(theta), overrotated_cz(0.0)).model
labels = pauli_labels(np.arange(16), 2)

print(f"theta = {theta}")
print("model probabilities:")
for label in labels:
    p = model.probability(label)
    if p > 1e-15:
        print(f"  {label}: {p:.12f}")
print(f"identity probability  |3 + e^(-i theta)|^2 / 16 = "
      f"{abs((3 + np.exp(-1j * theta)) / 4)**2:.12f}")
print(f"coherent residual^2 = {model.diagnostics.coherent_residual_sq:.6e}")
print()

chain = export_stim_chain(model)
print("simulator chain (identity line omitted on purpose):")
print(chain)

# Parsing the chain back recovers the unconditional probabilities.
recovered = chain_to_probabilities(chain, 2)
worst = max(
    abs(recovered.get(label, 0.0) - model.probability(label))
    for label in labels
    if label != "II"
)
print(f"round-trip error across all Pauli strings: {worst:.2e}")
