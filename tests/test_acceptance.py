"""Acceptance criteria for the package, one test per criterion.

Each test prints one ``[PASS]``/``[FAIL]`` line; the lines are repeated in an
``acceptance criteria`` section at the end of the pytest run so they stay
visible under output capture. Tolerances are stated inline; oracles are
independent of the code paths they check (explicit entrywise loops, dense
quadratic forms, hand computations).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from conftest import random_mixture, record_criterion
from oracles import off_diagonal_weight, pauli_coefficient_via_bitstrings, pauli_pair_diagonal

from paulinoise import (
    EnsembleMember,
    average_channel,
    channel_distance,
    coefficient_matrix,
    extract_from_channel,
    extract_from_unitary,
    label_to_index,
    lift_unitary,
    nearest_pauli_channel,
    pauli_basis,
    pauli_channel,
    pauli_coefficients,
    pauli_matrix,
    random_unitary,
    read_model,
    write_model,
    z_rotation,
    LeakageSpec,
    chain_to_probabilities,
    export_stim_chain,
)


def _report(request, number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    record_criterion(request.config, line)
    assert passed, line


def _entrywise_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Brute-force metric: explicit loops over entries, no shortcuts."""
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            diff = complex(a[i, j]) - complex(b[i, j])
            total += diff.real**2 + diff.imag**2
    return math.sqrt(total / a.shape[0])


def _lifted_pauli_stack(n: int) -> np.ndarray:
    labels = pauli_basis(n)
    return np.stack(
        [np.kron(pauli_matrix(lab), pauli_matrix(lab).conj()) for lab in labels]
    )


def test_criterion_1_dephasing_worked_example(request):
    start = time.perf_counter()
    worst = 0.0
    for eps in (0.05, 0.1, 0.3):
        result = extract_from_unitary(z_rotation(eps))
        amps = result.amplitudes[0]
        model = result.model
        worst = max(
            worst,
            abs(amps[label_to_index("I")] - np.cos(eps)),
            abs(amps[label_to_index("Z")] - (-1j) * np.sin(eps)),
            abs(amps[label_to_index("X")]),
            abs(amps[label_to_index("Y")]),
            abs(model.probability("I") - np.cos(eps) ** 2),
            abs(model.probability("Z") - np.sin(eps) ** 2),
            model.probability("X"),
            model.probability("Y"),
        )
    elapsed = time.perf_counter() - start
    _report(
        request,
        1,
        "dephasing amplitudes and model match closed forms within 1e-12, < 1 s",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.3e}, runtime {elapsed:.3f} s",
    )


def test_criterion_2_triangle_geometry(request):
    worst_base = 0.0
    worst_leg_diff = 0.0
    worst_oracle = 0.0
    for eps in (0.05, 0.1, 0.3):
        c2, s2 = np.cos(eps) ** 2, np.sin(eps) ** 2
        coherent = lift_unitary(z_rotation(eps))
        pauli_z = pauli_channel({"I": c2, "Z": s2})
        pauli_x = pauli_channel({"I": c2, "X": s2})
        base_sq = channel_distance(pauli_x, pauli_z) ** 2
        leg_x = channel_distance(pauli_x, coherent)
        leg_z = channel_distance(pauli_z, coherent)
        expected = 2.0 * np.sin(eps) ** 4
        worst_base = max(worst_base, abs(base_sq - expected))
        worst_leg_diff = max(worst_leg_diff, abs(leg_x**2 - leg_z**2 - expected))
        worst_oracle = max(
            worst_oracle,
            abs(leg_x - _entrywise_distance(pauli_x, coherent)),
            abs(leg_z - _entrywise_distance(pauli_z, coherent)),
            abs(math.sqrt(base_sq) - _entrywise_distance(pauli_x, pauli_z)),
        )
    _report(
        request,
        2,
        "Pauli-Pauli distance squared is 2*sin(eps)^4 and the squared leg"
        " difference matches, within 1e-12; legs agree with the entrywise oracle",
        worst_base <= 1e-12 and worst_leg_diff <= 1e-12 and worst_oracle <= 1e-12,
        f"base {worst_base:.3e}, legs {worst_leg_diff:.3e}, oracle {worst_oracle:.3e}",
    )


def test_criterion_3_amplitude_normalization(request):
    worst = 0.0
    for n in (1, 2, 3):
        for seed in range(50):
            u = random_unitary(n, 1000 * n + seed)
            total = sum(abs(v) ** 2 for v in pauli_coefficients(u).values())
            worst = max(worst, abs(total - 1.0))
    _report(
        request,
        3,
        "Pauli amplitude weights of 50 seeded unitaries per n in {1,2,3} sum"
        " to 1 within 1e-10",
        worst <= 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_4_route_equivalence(request):
    worst_amplitude = 0.0
    for n in (1, 2, 3):
        u = random_unitary(n, 40 + n)
        coeffs = pauli_coefficients(u)
        for label in pauli_basis(n):
            via_states = pauli_coefficient_via_bitstrings(label, lambda s: u @ s)
            worst_amplitude = max(worst_amplitude, abs(via_states - coeffs[label]))
    worst_diagonal = 0.0
    for n in (1, 2):
        for seed in range(3):
            s = random_mixture(n, 4000 + 10 * n + seed)
            w = coefficient_matrix(s)
            via_fidelity = pauli_pair_diagonal(s)
            worst_diagonal = max(
                worst_diagonal, float(np.max(np.abs(np.diagonal(w) - via_fidelity)))
            )
    _report(
        request,
        4,
        "bitstring coefficients equal inner-product coefficients within 1e-12"
        " (all P, n <= 3); fidelity diagonal equals matrix diagonal within"
        " 1e-10 (n <= 2)",
        worst_amplitude <= 1e-12 and worst_diagonal <= 1e-10,
        f"amplitudes {worst_amplitude:.3e}, diagonal {worst_diagonal:.3e}",
    )


def test_criterion_5_minimality_oracle(request):
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    samples = 100_000
    delta = 1e-3
    beaten = False
    worst_margin = np.inf
    worst_cross = 0.0
    for n in (1, 2):
        size = 4**n
        dim_sq = float(4**n)
        lifted = _lifted_pauli_stack(n)
        gram = (
            np.einsum("pij,qij->pq", lifted.conj(), lifted) / dim_sq
        )
        assert np.max(np.abs(gram - np.eye(size))) <= 1e-12
        for seed in range(10):
            s = random_mixture(n, 9000 + 100 * n + seed)
            c0 = float(np.sum(np.abs(s) ** 2).real) / dim_sq
            t = np.einsum("pij,ij->p", lifted.conj(), s) / dim_sq
            t_real = t.real
            model = nearest_pauli_channel(coefficient_matrix(s))
            e_star = model.as_array()
            base_sq = c0 - 2.0 * float(e_star @ t_real) + float(e_star @ e_star)
            base = math.sqrt(max(base_sq, 0.0))

            points = rng.dirichlet(np.ones(size), size=samples)
            values_sq = c0 - 2.0 * (points @ t_real) + np.sum(points * points, axis=1)
            values = np.sqrt(np.maximum(values_sq, 0.0))
            margin = float(np.min(values) - base)
            worst_margin = min(worst_margin, margin)
            if margin < -1e-12:
                beaten = True

            # The quadratic form must agree with the entrywise metric.
            labels = pauli_basis(n)
            for idx in rng.integers(0, samples, size=3):
                candidate = pauli_channel(dict(zip(labels, points[idx])))
                direct = channel_distance(s, candidate)
                worst_cross = max(worst_cross, abs(direct - values[idx]))

            for coord in range(size):
                for sign in (+delta, -delta):
                    shifted = e_star[coord] + sign
                    if shifted < 0.0 or shifted > 1.0:
                        continue
                    perturbed = e_star.copy()
                    perturbed[coord] = shifted
                    alt_sq = (
                        c0
                        - 2.0 * float(perturbed @ t_real)
                        + float(perturbed @ perturbed)
                    )
                    alt = math.sqrt(max(alt_sq, 0.0))
                    if alt - base < -1e-12:
                        beaten = True
                    worst_margin = min(worst_margin, alt - base)
    elapsed = time.perf_counter() - start
    _report(
        request,
        5,
        "no simplex sample out of 1e5 nor any +/-1e-3 single-coordinate"
        " feasible perturbation beats the extracted model, 20 channels, < 60 s",
        (not beaten) and worst_cross <= 1e-12 and elapsed < 60.0,
        f"worst margin {worst_margin:.3e}, form-vs-entrywise {worst_cross:.3e},"
        f" runtime {elapsed:.1f} s",
    )


def test_criterion_6_fidelity_identity(request):
    worst = 0.0
    pair_count = 0
    for n in (1, 2):
        for seed in range(25):
            phi = random_mixture(n, 7000 + 50 * n + seed)
            chi = random_mixture(n, 8000 + 50 * n + seed)
            # w_II = Tr(S) / D^2 of a mixed-unitary channel, never clamped.
            model = extract_from_channel(phi.conj().T @ chi).model
            lhs = model.diagnostics.identity_prob
            # Tr(Phi^dag chi) / D^2; phi is D^2 x D^2.
            rhs = np.vdot(phi, chi).real / phi.shape[0]
            worst = max(worst, abs(lhs - rhs))
            pair_count += 1
    _report(
        request,
        6,
        "the channel route's identity weight of adjoint(Phi) o chi equals the"
        " normalized inner product <Phi, chi> within 1e-10 for 50 pairs, n <= 2",
        worst <= 1e-10 and pair_count == 50,
        f"max deviation {worst:.3e}",
    )


def test_criterion_7_decomposition_identity(request):
    worst = 0.0
    for n in (1, 2):
        for seed in range(10):
            s = random_mixture(n, 9000 + 100 * n + seed)
            w = coefficient_matrix(s)
            model = nearest_pauli_channel(w)
            lhs = channel_distance(s, pauli_channel(model.probabilities)) ** 2
            rhs = off_diagonal_weight(w) + float(
                np.sum(np.abs(np.diagonal(w) - model.as_array()) ** 2)
            )
            worst = max(worst, abs(lhs - rhs))
    _report(
        request,
        7,
        "squared distance to the model equals off-diagonal weight plus"
        " diagonal mismatch within 1e-10 on the same 20 channels",
        worst <= 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_8_ensemble_decoherence(request):
    worst_prob = 0.0
    worst_residual = 0.0
    for eps in (0.1, 0.3):
        averaged = average_channel(
            [
                EnsembleMember(0.5, z_rotation(eps)),
                EnsembleMember(0.5, z_rotation(-eps)),
            ]
        )
        result = extract_from_channel(averaged)
        model = result.model
        worst_residual = max(
            worst_residual, model.diagnostics.coherent_residual_sq
        )
        worst_prob = max(
            worst_prob,
            abs(model.probability("I") - np.cos(eps) ** 2),
            abs(model.probability("Z") - np.sin(eps) ** 2),
            model.probability("X"),
            model.probability("Y"),
        )
    _report(
        request,
        8,
        "the +/-eps averaged dephasing channel has coherent residual <= 1e-12"
        " and model {I: cos^2, Z: sin^2} within 1e-12",
        worst_residual <= 1e-12 and worst_prob <= 1e-12,
        f"residual {worst_residual:.3e}, model deviation {worst_prob:.3e}",
    )


def test_criterion_9_leakage(request):
    swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    result = extract_from_unitary(
        swap, np.eye(3), leakage=LeakageSpec(3, (0, 1))
    )
    model = result.model
    worst = max(
        abs(model.leakage_weight - 0.5),
        abs(model.probability("I") - 0.25),
        abs(model.probability("Z") - 0.25),
        model.probability("X"),
        model.probability("Y"),
    )
    _report(
        request,
        9,
        "3-level 1<->2 swap with comp={0,1} gives leakage 0.5 and"
        " e_I = e_Z = 0.25 within 1e-12",
        worst <= 1e-12,
        f"max deviation {worst:.3e}",
    )


def test_criterion_10_export_integrity(request, tmp_path):
    rng = np.random.default_rng(31415)
    worst_chain = 0.0
    point_count = 0
    for n in (1, 2):
        labels = pauli_basis(n)
        for _ in range(50):
            point = rng.dirichlet(np.ones(4**n))
            model = nearest_pauli_channel(point)
            recovered = chain_to_probabilities(export_stim_chain(model), n)
            for label, expected in zip(labels[1:], point[1:]):
                worst_chain = max(
                    worst_chain, abs(recovered.get(label, 0.0) - expected)
                )
            implied_identity = 1.0 - sum(recovered.values())
            worst_chain = max(worst_chain, abs(implied_identity - point[0]))
            point_count += 1

    worst_codec = 0.0
    for seed in range(5):
        point = rng.dirichlet(np.ones(16))
        model = nearest_pauli_channel(point)
        path = tmp_path / f"model_{seed}.json"
        write_model(path, model, floor=0.0)
        loaded = read_model(path)
        for label in pauli_basis(2):
            worst_codec = max(
                worst_codec,
                abs(loaded.probabilities.get(label, 0.0) - model.probability(label)),
            )
    _report(
        request,
        10,
        "chain reconstruction recovers 100 random simplex points (n <= 2)"
        " within 1e-12 and the model codec round-trips to 1e-15",
        worst_chain <= 1e-12 and worst_codec <= 1e-15 and point_count == 100,
        f"chain {worst_chain:.3e}, codec {worst_codec:.3e}",
    )
