"""The qubit caps: defined in ``paulinoise.paulis`` and checked once, where a
size enters, so that no input asks for more memory than its route can hold.

The amplifier cases use sizes whose dense result would be far beyond any
machine (16 TiB, 64 GiB), so a missing cap fails fast with MemoryError
instead of being granted.
"""

from __future__ import annotations

import numpy as np
import pytest

import paulinoise.extraction
import paulinoise.generators
from paulinoise import (
    DimensionError,
    EnsembleMember,
    LeakageSpec,
    PhysicalityError,
    SizeLimitError,
    average_channel,
    extract_from_channel,
    extract_from_ensemble,
    extract_from_unitary,
    lift_unitary,
    nearest_pauli_channel,
    pauli_channel,
    random_unitary,
    read_model,
    write_ensemble_file,
    write_matrix_file,
)
from paulinoise.cli import run_cli
from paulinoise.model_io import KIND_OPERATOR
from paulinoise.paulis import (
    DEFAULT_SUPEROP_MAX_QUBITS,
    MAX_MODEL_QUBITS,
    check_levels,
)

SWAP_12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)


def test_check_levels_allows_non_power_of_two_spaces():
    check_levels(3, 2)
    check_levels(4, 2)
    with pytest.raises(SizeLimitError, match="4 levels"):
        check_levels(5, 2)


def test_pauli_channel_takes_the_channel_route_cap():
    with pytest.raises(SizeLimitError, match=f"\\[1, {DEFAULT_SUPEROP_MAX_QUBITS}\\]"):
        pauli_channel({"I" * 10: 1.0})


@pytest.mark.parametrize(
    "build, noun, cap",
    [
        (pauli_channel, "probability", DEFAULT_SUPEROP_MAX_QUBITS),
        (nearest_pauli_channel, "weight", MAX_MODEL_QUBITS),
    ],
    ids=["pauli_channel", "nearest_pauli_channel"],
)
def test_label_mappings_are_checked_alike(build, noun, cap):
    with pytest.raises(DimensionError, match=f"^{noun} mapping is empty$"):
        build({})
    with pytest.raises(DimensionError, match=f"^{noun} mapping mixes labels of different lengths$"):
        build({"I": 0.5, "XX": 0.5})
    with pytest.raises(SizeLimitError, match=rf"\[1, {cap}\]"):
        build({"I" * (cap + 1): 1.0})


def test_lift_unitary_takes_half_the_model_cap():
    assert MAX_MODEL_QUBITS // 2 == 6
    with pytest.raises(SizeLimitError, match="6 qubits"):
        lift_unitary(np.eye(256))


def test_gen_pauli_channel_past_the_cap_exits_2(capsys):
    assert run_cli(["gen", "pauli-channel", "--probs", "IIIIIIIIII:1"]) == 2
    assert f"[1, {DEFAULT_SUPEROP_MAX_QUBITS}]" in capsys.readouterr().err


def test_distance_past_the_lift_cap_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix_file(a, np.eye(256), KIND_OPERATOR)
    write_matrix_file(b, np.eye(256), KIND_OPERATOR)
    assert run_cli(["distance", str(a), str(b)]) == 2
    assert "6 qubits" in capsys.readouterr().err


def test_avg_extract_seven_qubits_needs_no_flag(tmp_path, capsys):
    ens = tmp_path / "ensemble.json"
    write_ensemble_file(
        ens,
        [EnsembleMember(0.5, random_unitary(7, seed)) for seed in (1, 2)],
    )
    model_path = tmp_path / "model.json"
    assert run_cli(["avg-extract", "--weights", str(ens), "-o", str(model_path)]) == 0
    model = read_model(model_path, strict=True)
    assert model.n == 7
    assert abs(model.total_weight() - 1.0) < 1e-12
    capsys.readouterr()


def test_extraction_help_has_no_max_qubits(capsys):
    for argv in (["extract"], ["extract-channel"], ["avg-extract"], ["gen", "random-unitary"]):
        assert run_cli(argv + ["--help"]) == 0
        assert "--max-qubits" not in capsys.readouterr().out


def test_channel_cap_is_checked_before_compose_and_physicality(monkeypatch):
    monkeypatch.setattr(paulinoise.extraction, "DEFAULT_SUPEROP_MAX_QUBITS", 1)
    # Not trace preserving, and with a target to compose: a cap checked late
    # would report the physicality error first.
    with pytest.raises(SizeLimitError):
        extract_from_channel(0.99 * np.eye(16), np.eye(4))
    # With leakage only the one-qubit block is expanded, so a 3-level
    # space passes a one-qubit cap.
    spec = LeakageSpec(full_dim=3, comp_indices=(0, 1))
    model = extract_from_channel(lift_unitary(SWAP_12), leakage=spec).model
    assert model.n == 1 and model.leakage_weight == pytest.approx(0.5)
    with pytest.raises(PhysicalityError):
        extract_from_channel(0.99 * np.eye(9), leakage=spec)


def test_amplitude_cap_is_checked_before_compose_and_unitarity(monkeypatch):
    monkeypatch.setattr(paulinoise.extraction, "MAX_MODEL_QUBITS", 1)
    # Not unitary, and with a target to compose: a cap checked late would
    # report the unitarity error first.
    with pytest.raises(SizeLimitError, match="exceeds the supported 2 levels"):
        extract_from_unitary(0.99 * np.eye(4), np.eye(4))
    with pytest.raises(SizeLimitError, match="exceeds the supported 2 levels"):
        extract_from_ensemble([EnsembleMember(1.0, 0.99 * np.eye(4))], np.eye(4))
    # With leakage only the one-qubit block is expanded, so a 3-level space
    # passes a one-qubit cap and reaches the unitarity check.
    spec = LeakageSpec(full_dim=3, comp_indices=(0, 1))
    with pytest.raises(PhysicalityError):
        extract_from_unitary(0.99 * np.eye(3), leakage=spec)
    with pytest.raises(PhysicalityError):
        extract_from_ensemble([EnsembleMember(1.0, 0.99 * np.eye(3))], leakage=spec)


def test_average_channel_takes_the_channel_route_cap(monkeypatch):
    monkeypatch.setattr(paulinoise.generators, "DEFAULT_SUPEROP_MAX_QUBITS", 1)
    with pytest.raises(SizeLimitError, match="exceeds the supported 2 levels"):
        average_channel([EnsembleMember(1.0, np.eye(4))])
    # The cap comes before the members' unitarity checks.
    with pytest.raises(SizeLimitError):
        average_channel([EnsembleMember(1.0, 0.99 * np.eye(4))])
    assert average_channel([EnsembleMember(1.0, np.eye(2))]).shape == (4, 4)


def test_unitary_and_ensemble_routes_share_the_model_cap(monkeypatch):
    monkeypatch.setattr(paulinoise.extraction, "MAX_MODEL_QUBITS", 1)
    u = random_unitary(2, 3)
    with pytest.raises(SizeLimitError):
        extract_from_unitary(u)
    with pytest.raises(SizeLimitError):
        extract_from_ensemble([EnsembleMember(1.0, u)])
    spec = LeakageSpec(full_dim=3, comp_indices=(0, 1))
    single = extract_from_unitary(SWAP_12, leakage=spec)
    mixed = extract_from_ensemble([EnsembleMember(1.0, SWAP_12)], leakage=spec)
    assert single.model == mixed.model
    assert single.model.leakage_weight == pytest.approx(0.5)
