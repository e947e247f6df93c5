"""
Extracting a noise model from a coherent Z over-rotation
========================================================

A gate that should be the identity but applies exp(-i*eps*Z) has a purely
coherent error. Its closest stochastic Pauli channel keeps the identity with
probability cos(eps)^2 and applies Z with probability sin(eps)^2.
"""

import numpy as np

from paulinoise import extract_from_unitary, label_to_index, z_rotation

for eps in (0.02, 0.05, 0.1, 0.3):
    result = extract_from_unitary(z_rotation(eps))
    model = result.model
    amps = result.amplitudes[0]

    print(f"eps = {eps}")
    print(f"  amplitude on I: {amps[label_to_index('I')]:.12f}   (cos eps  = {np.cos(eps):.12f})")
    print(f"  amplitude on Z: {amps[label_to_index('Z')]:.12f}   (-i sin eps)")
    print(f"  model I: {model.probability('I'):.12f}   (cos^2 = {np.cos(eps)**2:.12f})")
    print(f"  model Z: {model.probability('Z'):.12f}   (sin^2 = {np.sin(eps)**2:.12f})")

    # The off-diagonal coefficient weight is what no Pauli channel can copy.
    residual = model.diagnostics.coherent_residual_sq
    print(f"  coherent residual^2: {residual:.12e}   (2 cos^2 sin^2 = "
          f"{2 * (np.cos(eps) * np.sin(eps))**2:.12e})")
    print(f"  distance to the model: {model.diagnostics.distance_to_source:.12e}")
    print()

print("The model reproduces the Pauli weights exactly, but the distance floor")
print("stays at sqrt(2)*cos*sin: that part of the error is coherent, not")
print("stochastic, and only echo/averaging techniques can remove it.")
