"""
Why the noise model's Pauli type matters less than you'd expect
===============================================================

Take the coherent Z error exp(-i*eps*Z) and two candidate stochastic models
with the same identity probability cos(eps)^2: one applies Z with sin(eps)^2,
one applies X. Both have the same entanglement fidelity. The distances tell
them apart, but only at fourth order in eps.
"""

import numpy as np

from paulinoise import (
    channel_distance,
    extract_from_unitary,
    lift_unitary,
    pauli_channel,
    z_rotation,
)

eps = 0.1
coherent = lift_unitary(z_rotation(eps))
model = extract_from_unitary(z_rotation(eps)).model

nearest_z = pauli_channel(model.probabilities)
same_fidelity_x = pauli_channel({"I": model.probability("I"), "X": model.probability("Z")})

leg_z = channel_distance(coherent, nearest_z)
leg_x = channel_distance(coherent, same_fidelity_x)
base = channel_distance(nearest_z, same_fidelity_x)

print(f"eps = {eps}")
print(f"d(coherent, Z model) = {leg_z:.12f}")
print(f"d(coherent, X model) = {leg_x:.12f}")
print(f"d(Z model,  X model) = {base:.12f}")
print()

# Both legs are ~ sqrt(2)*eps; the gap between the models is ~ sqrt(2)*eps^2.
print(f"legs ~ sqrt(2)*eps   = {np.sqrt(2) * eps:.12f}")
print(f"base ~ sqrt(2)*eps^2 = {np.sqrt(2) * eps**2:.12f}")
print()

print(f"leg_x^2 - leg_z^2 = {leg_x**2 - leg_z**2:.12e}")
print(f"base^2            = {base**2:.12e}")
print(f"2*sin(eps)^4      = {2 * np.sin(eps)**4:.12e}")
print()
print("Picking the wrong Pauli type for the model costs only O(eps^4) in")
print("distance while the coherent mismatch itself is O(eps^2): fidelity")
print("alone cannot distinguish the two models at all.")
