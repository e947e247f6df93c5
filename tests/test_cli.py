"""End-to-end command-line flows, exit codes, and output determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from paulinoise import (
    chain_to_probabilities,
    coefficient_matrix,
    lift_unitary,
    read_coefficient_file,
    read_model,
    write_ensemble_file,
    write_matrix_file,
    z_rotation,
    EnsembleMember,
)
from paulinoise.cli import run_cli
from paulinoise.model_io import KIND_OPERATOR, KIND_SUPEROPERATOR

SWAP_12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)


def test_gen_extract_flow(tmp_path, capsys):
    eps = 0.1
    ez = tmp_path / "ez.json"
    model_path = tmp_path / "model.json"
    chain_path = tmp_path / "chain.stim"
    coeff_path = tmp_path / "w.json"
    assert run_cli(["gen", "ez", "--epsilon", repr(eps), "-o", str(ez)]) == 0
    assert (
        run_cli(
            [
                "extract",
                "--unitary",
                str(ez),
                "-o",
                str(model_path),
                "--stim",
                str(chain_path),
                "--full-coeffs",
                str(coeff_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"wrote {model_path}" in out
    assert "identity_prob=" in out

    model = read_model(model_path)
    assert abs(model.probability("Z") - np.sin(eps) ** 2) < 1e-12
    assert abs(model.diagnostics.identity_prob - np.cos(eps) ** 2) < 1e-12
    assert model.leakage_weight == 0.0

    recovered = chain_to_probabilities(chain_path.read_text(), 1)
    assert abs(recovered["Z"] - np.sin(eps) ** 2) < 1e-12

    w = read_coefficient_file(coeff_path)
    np.testing.assert_allclose(
        w, coefficient_matrix(lift_unitary(z_rotation(eps))), atol=1e-14
    )


def test_model_provenance_records_invocation(tmp_path):
    ez = tmp_path / "ez.json"
    model_path = tmp_path / "model.json"
    run_cli(["gen", "ez", "--epsilon", "0.1", "-o", str(ez)])
    run_cli(["extract", "--unitary", str(ez), "-o", str(model_path)])
    doc = json.loads(model_path.read_text())
    assert doc["provenance"]["tool"] == "paulinoise"
    assert doc["provenance"]["command"] == "extract"
    assert doc["provenance"]["inputs"]["unitary"] == str(ez)


def test_cli_outputs_are_byte_deterministic(tmp_path):
    ez = tmp_path / "ez.json"
    run_cli(["gen", "ez", "--epsilon", "0.3", "-o", str(ez)])
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    run_cli(["extract", "--unitary", str(ez), "-o", str(first)])
    run_cli(["extract", "--unitary", str(ez), "-o", str(second)])
    assert first.read_bytes() == second.read_bytes()

    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli(["gen", "random-unitary", "--n", "2", "--seed", "5", "-o", str(r1)])
    run_cli(["gen", "random-unitary", "--n", "2", "--seed", "5", "-o", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_extract_channel_flow(tmp_path):
    chan = tmp_path / "chan.json"
    model_path = tmp_path / "model.json"
    assert (
        run_cli(["gen", "pauli-channel", "--probs", "I:0.9,X:0.1", "-o", str(chan)])
        == 0
    )
    assert run_cli(["extract-channel", "--channel", str(chan), "-o", str(model_path)]) == 0
    model = read_model(model_path)
    assert abs(model.probability("X") - 0.1) < 1e-12
    assert model.diagnostics.coherent_residual_sq < 1e-12


def test_extract_channel_with_target(tmp_path):
    eps = 0.2
    chan = tmp_path / "chan.json"
    target = tmp_path / "target.json"
    model_path = tmp_path / "model.json"
    write_matrix_file(chan, lift_unitary(z_rotation(eps)), KIND_SUPEROPERATOR)
    run_cli(["gen", "ez", "--epsilon", repr(eps), "-o", str(target)])
    assert (
        run_cli(
            [
                "extract-channel",
                "--channel",
                str(chan),
                "--target",
                str(target),
                "-o",
                str(model_path),
            ]
        )
        == 0
    )
    model = read_model(model_path)
    assert abs(model.probability("I") - 1.0) < 1e-12


def test_avg_extract_flow(tmp_path):
    eps = 0.2
    ens = tmp_path / "ensemble.json"
    model_path = tmp_path / "model.json"
    write_ensemble_file(
        ens,
        [
            EnsembleMember(0.5, z_rotation(eps)),
            EnsembleMember(0.5, z_rotation(-eps)),
        ],
    )
    assert run_cli(["avg-extract", "--weights", str(ens), "-o", str(model_path)]) == 0
    model = read_model(model_path)
    assert abs(model.probability("I") - np.cos(eps) ** 2) < 1e-12
    assert abs(model.probability("Z") - np.sin(eps) ** 2) < 1e-12
    assert model.diagnostics.coherent_residual_sq < 1e-12


def test_distance_command(tmp_path, capsys):
    eps = 0.1
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["gen", "ez", "--epsilon", repr(eps), "-o", str(a)])
    run_cli(["gen", "ez", "--epsilon", "0.0", "-o", str(b)])
    capsys.readouterr()
    assert run_cli(["distance", str(a), str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "metrics"
    assert abs(doc["distance"] - np.sqrt(2.0) * np.sin(eps)) < 1e-12

    out_path = tmp_path / "metrics.json"
    assert run_cli(["distance", str(a), str(b), "-o", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["distance"] == doc["distance"]
    assert f"wrote {out_path}" in capsys.readouterr().out


def test_demo_triangle_output(capsys):
    eps = 0.2
    assert run_cli(["demo", "triangle", "--epsilon", repr(eps)]) == 0
    out = capsys.readouterr().out
    base_line = next(
        line for line in out.splitlines() if line.startswith("d(nearest-Pauli-Z")
    )
    base_sq = float(base_line.rsplit("squared = ", 1)[1])
    assert abs(base_sq - 2.0 * np.sin(eps) ** 4) < 1e-12
    leg_line = next(
        line for line in out.splitlines() if "squared leg difference" in line
    )
    leg_diff = float(leg_line.split("=", 1)[1].split("(", 1)[0])
    assert abs(leg_diff - 2.0 * np.sin(eps) ** 4) < 1e-12


def test_leakage_flow(tmp_path):
    swap = tmp_path / "swap.json"
    target = tmp_path / "id3.json"
    model_path = tmp_path / "model.json"
    write_matrix_file(swap, SWAP_12, KIND_OPERATOR)
    write_matrix_file(target, np.eye(3, dtype=complex), KIND_OPERATOR)
    assert (
        run_cli(
            [
                "extract",
                "--unitary",
                str(swap),
                "--target",
                str(target),
                "--leakage",
                "0,1",
                "-o",
                str(model_path),
            ]
        )
        == 0
    )
    model = read_model(model_path)
    assert model.leakage_weight == 0.5
    assert abs(model.probability("I") - 0.25) < 1e-12
    assert abs(model.probability("Z") - 0.25) < 1e-12


def test_gen_without_output_prints_document(capsys):
    assert run_cli(["gen", "ez", "--epsilon", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == KIND_OPERATOR
    assert doc["dim"] == 2


def test_extract_without_output_prints_model(tmp_path, capsys):
    ez = tmp_path / "ez.json"
    run_cli(["gen", "ez", "--epsilon", "0.1", "-o", str(ez)])
    capsys.readouterr()
    assert run_cli(["extract", "--unitary", str(ez)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "pauli_noise_model"


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = run_cli(["extract", "--unitary", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_arguments_exit_2(capsys):
    assert run_cli(["extract"]) == 2
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()


def test_nonunitary_operator_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    model_path = tmp_path / "model.json"
    write_matrix_file(bad, np.eye(2, dtype=complex) * 1.01, KIND_OPERATOR)
    assert run_cli(["extract", "--unitary", str(bad), "-o", str(model_path)]) == 3
    assert "error:" in capsys.readouterr().err
    assert (
        run_cli(
            [
                "extract",
                "--unitary",
                str(bad),
                "--allow-nonphysical",
                "-o",
                str(model_path),
            ]
        )
        == 0
    )


def test_nonphysical_channel_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_matrix_file(bad, np.eye(4, dtype=complex) * 0.99, KIND_SUPEROPERATOR)
    assert run_cli(["extract-channel", "--channel", str(bad)]) == 3
    capsys.readouterr()


def test_wrong_document_kind_exits_2(tmp_path, capsys):
    chan = tmp_path / "chan.json"
    write_matrix_file(chan, lift_unitary(z_rotation(0.1)), KIND_SUPEROPERATOR)
    assert run_cli(["extract", "--unitary", str(chan)]) == 2
    assert "operator" in capsys.readouterr().err


def test_invalid_generator_probs_exit_2(tmp_path, capsys):
    assert run_cli(["gen", "pauli-channel", "--probs", "I:0.5"]) == 2
    assert run_cli(["gen", "pauli-channel", "--probs", "garbage"]) == 2
    capsys.readouterr()


def test_invalid_leakage_spec_exits_2(tmp_path, capsys):
    swap = tmp_path / "swap.json"
    write_matrix_file(swap, SWAP_12, KIND_OPERATOR)
    assert run_cli(["extract", "--unitary", str(swap), "--leakage", "a,b"]) == 2
    assert run_cli(["extract", "--unitary", str(swap), "--leakage", "0,9"]) == 2
    capsys.readouterr()


def test_version_flag_exits_0(capsys):
    assert run_cli(["--version"]) == 0
    assert "paulinoise" in capsys.readouterr().out


def test_seven_qubit_model_reads_back(tmp_path):
    unitary = tmp_path / "u7.json"
    model_path = tmp_path / "model7.json"
    chain_path = tmp_path / "chain7.stim"
    assert run_cli(
        ["gen", "random-unitary", "--n", "7", "--seed", "5", "--max-qubits", "7", "-o", str(unitary)]
    ) == 0
    assert run_cli(
        [
            "extract",
            "--unitary",
            str(unitary),
            "--max-qubits",
            "7",
            "-o",
            str(model_path),
            "--stim",
            str(chain_path),
        ]
    ) == 0
    model = read_model(model_path, strict=True)
    assert model.n == 7
    recovered = chain_to_probabilities(chain_path.read_text(), 7)
    assert len(recovered) == len(model.probabilities) - 1
    for label, prob in recovered.items():
        assert abs(prob - model.probability(label)) < 1e-12
