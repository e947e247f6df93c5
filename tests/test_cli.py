"""End-to-end command-line flows, exit codes, and output determinism."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paulinoise
import paulinoise.cli
import paulinoise.extraction
import paulinoise.paulis
from paulinoise import (
    average_channel,
    chain_to_probabilities,
    coefficient_matrix,
    lift_unitary,
    overrotated_cz,
    random_unitary,
    read_coefficient_file,
    read_ensemble_file,
    read_matrix_file,
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

    cz = tmp_path / "cz.json"
    assert run_cli(["gen", "overrotated-cz", "--theta", "0.05", "-o", str(cz)]) == 0
    assert capsys.readouterr() == (f"wrote {cz}\n", "")
    document = read_matrix_file(cz)
    np.testing.assert_array_equal(document.matrix, overrotated_cz(0.05))
    assert document.meta == {"generator": "overrotated-cz", "theta": "0.05"}

    # A blank --probs part is skipped: the same channel, the same bytes.
    channels = [tmp_path / "s.json", tmp_path / "s_blank.json"]
    for probs, path in zip(["II:0.9,ZZ:0.1", "II:0.9, ,ZZ:0.1,"], channels):
        assert run_cli(["gen", "pauli-channel", "--probs", probs, "-o", str(path)]) == 0
    capsys.readouterr()
    assert channels[0].read_bytes() == channels[1].read_bytes()


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


def test_build_parser_returns_a_new_parser_each_call():
    first = paulinoise.cli.build_parser()

    def broken(*args, **kwargs):
        raise AssertionError("a rebinding reached the shared parser")

    first.parse_args = broken
    try:
        second = paulinoise.cli.build_parser()
        assert second is not first
        assert second.parse_args(["demo", "triangle"]).epsilon == 0.1
    finally:
        del first.parse_args


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # One parser serves every call in a process; an earlier call's options,
    # or a usage error, must not reach a later call's output.
    ez = tmp_path / "ez.json"
    assert run_cli(["gen", "ez", "--epsilon", "0.1", "-o", str(ez)]) == 0
    extract = ["extract", "--unitary", str(ez)]
    loose = tmp_path / "loose.json"
    assert run_cli(extract + ["--tol", "1e-3", "--allow-nonphysical", "-o", str(loose)]) == 0
    assert run_cli(extract + ["--tol", "-1"]) == 2
    plain = tmp_path / "plain.json"
    assert run_cli(extract + ["-o", str(plain)]) == 0
    provenance = json.loads(plain.read_text())["provenance"]
    assert provenance["tol"] == 1e-9
    assert provenance["allow_nonphysical"] is False

    fresh = tmp_path / "fresh.json"
    env = dict(os.environ)
    src = str(Path(paulinoise.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    main = "from paulinoise.cli import main; main()"
    proc = subprocess.run(
        [sys.executable, "-c", main, *extract, "-o", str(fresh)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert plain.read_bytes() == fresh.read_bytes()
    capsys.readouterr()


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


@pytest.mark.parametrize("eps", [1e300, -1e300])
def test_demo_triangle_takes_a_huge_epsilon(capsys, eps):
    # sqrt(2) * eps^2 overflows double precision: the line reads inf, and no
    # OverflowError or numpy warning (an error in this suite) escapes.
    assert run_cli(["demo", "triangle", f"--epsilon={eps!r}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == (
        f"leading order: legs ~ sqrt(2)*eps = {float(np.sqrt(2.0) * eps)!r}, "
        "base ~ sqrt(2)*eps^2 = inf"
    )


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


def test_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "u.json"
    write_matrix_file(path, np.eye(2), KIND_OPERATOR)
    path.write_bytes(path.read_bytes() + b"\xff")
    assert run_cli(["extract", "--unitary", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid UTF-8")


@pytest.mark.parametrize(
    "argv", [["extract", "--unitary"], ["extract-channel", "--channel"], ["avg-extract", "--weights"]]
)
def test_deeply_nested_input_exits_2_naming_the_file(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert run_cli([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON (")


def test_bad_arguments_exit_2(capsys):
    assert run_cli(["extract"]) == 2
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()


def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys):
    # A NaN tolerance would pass the unitarity check of a projector (every
    # comparison with NaN is false), and a negative one fails exact inputs.
    proj = tmp_path / "proj.json"
    write_matrix_file(proj, np.diag([np.sqrt(2.0), 0.0]), KIND_OPERATOR)
    ez = tmp_path / "ez.json"
    assert run_cli(["gen", "ez", "--epsilon", "0", "-o", str(ez)]) == 0
    capsys.readouterr()
    for tol in ("nan", "-1", "inf", "abc"):
        for argv in (
            ["extract", "--unitary", str(proj)],
            ["extract", "--unitary", str(ez)],
            ["extract-channel", "--channel", str(ez)],
            ["avg-extract", "--weights", str(ez)],
            ["distance", str(ez), str(ez)],
        ):
            assert run_cli(argv + ["--tol", tol]) == 2
            assert "--tol" in capsys.readouterr().err
    # --floor takes the same type and is refused when parsed, before the
    # input (here a file that does not exist) is read.
    missing = str(tmp_path / "missing.json")
    for floor in ("nan", "inf", "-1"):
        for argv in (
            ["extract", "--unitary", missing],
            ["extract-channel", "--channel", missing],
            ["avg-extract", "--weights", missing],
        ):
            assert run_cli(argv + ["--floor", floor]) == 2
            err = capsys.readouterr().err
            assert "--floor" in err and "missing.json" not in err
    assert run_cli(["extract", "--unitary", str(ez), "--tol", "0"]) == 0
    assert run_cli(["distance", str(ez), str(ez), "--tol", "0"]) == 0
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
    for probs, message in [
        ("Z:0.5,Z:0.5", "--probs lists label 'Z' twice"),
        (",", "--probs lists no probabilities"),
    ]:
        assert run_cli(["gen", "pauli-channel", "--probs", probs]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_invalid_leakage_spec_exits_2(tmp_path, capsys):
    swap = tmp_path / "swap.json"
    write_matrix_file(swap, SWAP_12, KIND_OPERATOR)
    assert run_cli(["extract", "--unitary", str(swap), "--leakage", "a,b"]) == 2
    assert run_cli(["extract", "--unitary", str(swap), "--leakage", "0,9"]) == 2
    capsys.readouterr()
    assert run_cli(["extract", "--unitary", str(swap), "--leakage", ","]) == 2
    assert capsys.readouterr() == ("", "error: --leakage lists no indices\n")


def test_version_flag_exits_0(capsys):
    assert run_cli(["--version"]) == 0
    assert "paulinoise" in capsys.readouterr().out


def test_seven_qubit_model_reads_back(tmp_path):
    unitary = tmp_path / "u7.json"
    model_path = tmp_path / "model7.json"
    chain_path = tmp_path / "chain7.stim"
    assert run_cli(
        ["gen", "random-unitary", "--n", "7", "--seed", "5", "-o", str(unitary)]
    ) == 0
    assert run_cli(
        [
            "extract",
            "--unitary",
            str(unitary),
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


HUGE = "9" * 401


def test_huge_integer_in_operator_data_exits_2(tmp_path, capsys):
    path = tmp_path / "u.json"
    text = write_matrix_file(path, np.eye(2), KIND_OPERATOR)
    path.write_text(text.replace("1.0", HUGE, 1))
    assert run_cli(["extract", "--unitary", str(path)]) == 2
    assert "data[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, argv",
    [(KIND_OPERATOR, ["extract", "--unitary"]), (KIND_SUPEROPERATOR, ["extract-channel", "--channel"])],
)
def test_huge_dim_field_exits_2_naming_it(tmp_path, capsys, kind, argv):
    # The expected entry count of a 1201-digit 'dim' has 2400 or 4800 digits;
    # it must be neither printed nor sent through int-to-string conversion.
    path = tmp_path / "m.json"
    write_matrix_file(path, np.eye(2 if kind == KIND_OPERATOR else 4), kind)
    path.write_text(path.read_text().replace('"dim": 2', '"dim": 1' + "0" * 1200))
    assert run_cli([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert "far fewer than 'dim' declares" in err and len(err) < 300


def test_huge_integer_ensemble_weight_exits_2(tmp_path, capsys):
    path = tmp_path / "ensemble.json"
    write_ensemble_file(path, [EnsembleMember(1.0, np.eye(2))])
    path.write_text(path.read_text().replace('"weight": 1.0', f'"weight": {HUGE}'))
    assert run_cli(["avg-extract", "--weights", str(path)]) == 2
    assert "weight" in capsys.readouterr().err


def _write_ensemble(path, n, k, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    weights = weights / weights.sum()
    write_ensemble_file(
        path,
        [
            EnsembleMember(float(w), random_unitary(n, int(rng.integers(1, 2**31))))
            for w in weights
        ],
    )
    return path


def test_avg_extract_six_qubits_within_default_caps(tmp_path, capsys):
    ens = _write_ensemble(tmp_path / "ensemble.json", 6, 2, 61)
    model_path = tmp_path / "model.json"
    # The full coefficient matrix keeps the superoperator cap, and nothing
    # is written when it is exceeded.
    argv = ["avg-extract", "--weights", str(ens), "-o", str(model_path)]
    assert run_cli(argv + ["--full-coeffs", str(tmp_path / "w.json")]) == 2
    assert "--full-coeffs" in capsys.readouterr().err
    assert not model_path.exists()
    assert run_cli(argv) == 0
    model = read_model(model_path, strict=True)
    assert model.n == 6
    capsys.readouterr()


def test_avg_extract_rejects_bad_ensembles(tmp_path, capsys):
    bad_member = tmp_path / "nonunitary.json"
    write_ensemble_file(
        bad_member,
        [EnsembleMember(0.5, np.eye(2)), EnsembleMember(0.5, np.eye(2) * 1.01)],
    )
    assert run_cli(["avg-extract", "--weights", str(bad_member)]) == 3
    bad_sum = tmp_path / "sum.json"
    write_ensemble_file(
        bad_sum,
        [EnsembleMember(0.51, np.eye(2)), EnsembleMember(0.5, z_rotation(0.1))],
    )
    assert run_cli(["avg-extract", "--weights", str(bad_sum)]) == 2
    assert "sum" in capsys.readouterr().err


def test_avg_extract_builds_no_superoperator(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("avg-extract must not build a superoperator")

    monkeypatch.setattr(paulinoise.cli, "average_channel", forbidden)
    monkeypatch.setattr(paulinoise.cli, "extract_from_channel", forbidden)
    monkeypatch.setattr(paulinoise.extraction, "coefficient_matrix", forbidden)
    ens = _write_ensemble(tmp_path / "ensemble.json", 2, 3, 7)
    argv = ["avg-extract", "--weights", str(ens), "--full-coeffs", str(tmp_path / "w.json")]
    assert run_cli(argv) == 0
    capsys.readouterr()


def test_extract_channel_builds_no_coefficient_matrix(tmp_path, monkeypatch, capsys):
    # The channel route needs only the diagonal and the total weight; the
    # 16**n matrix is built for --full-coeffs alone.
    def forbidden(*args, **kwargs):
        raise AssertionError("extract-channel must not build the coefficient matrix")

    monkeypatch.setattr(paulinoise.extraction, "coefficient_matrix", forbidden)
    ens = read_ensemble_file(_write_ensemble(tmp_path / "ensemble.json", 2, 3, 10))
    chan = tmp_path / "chan.json"
    write_matrix_file(chan, average_channel(ens), KIND_SUPEROPERATOR)
    target = tmp_path / "target.json"
    write_matrix_file(target, random_unitary(2, 11), KIND_OPERATOR)
    argv = ["extract-channel", "--channel", str(chan), "--target", str(target),
            "-o", str(tmp_path / "m.json"), "--stim", str(tmp_path / "c.stim")]
    assert run_cli(argv) == 0
    with pytest.raises(AssertionError, match="must not build"):
        run_cli(argv + ["--full-coeffs", str(tmp_path / "w.json")])
    capsys.readouterr()


def test_extract_routes_enumerate_no_labels(tmp_path, monkeypatch, capsys):
    # Models are vectors: only the labels of written entries are made, through
    # pauli_labels, so no route needs the full label list.
    def forbidden(*args, **kwargs):
        raise AssertionError("an extract op must not enumerate all labels")

    modules = [paulinoise] + [
        importlib.import_module(f"paulinoise.{info.name}")
        for info in pkgutil.iter_modules(paulinoise.__path__)
    ]
    bound = [module for module in modules if hasattr(module, "pauli_basis")]
    assert paulinoise.paulis in bound and paulinoise.extraction in bound
    for module in bound:
        monkeypatch.setattr(module, "pauli_basis", forbidden)
    unitary = tmp_path / "u.json"
    write_matrix_file(unitary, random_unitary(3, 4), KIND_OPERATOR)
    chan = tmp_path / "chan.json"
    write_matrix_file(chan, lift_unitary(random_unitary(2, 5)), KIND_SUPEROPERATOR)
    ens = _write_ensemble(tmp_path / "ensemble.json", 3, 2, 6)
    for n, source in ((3, ["extract", "--unitary", str(unitary)]),
                      (2, ["extract-channel", "--channel", str(chan)]),
                      (3, ["avg-extract", "--weights", str(ens)])):
        model_path, chain_path = tmp_path / "m.json", tmp_path / "c.stim"
        argv = source + ["-o", str(model_path), "--stim", str(chain_path)]
        assert run_cli(argv) == 0
        model = read_model(model_path, strict=True)
        recovered = chain_to_probabilities(chain_path.read_text(), n)
        assert model.n == n and len(recovered) == len(model.probabilities) - 1
    capsys.readouterr()


def test_avg_extract_full_coeffs_match_extract_channel(tmp_path, capsys):
    ens = _write_ensemble(tmp_path / "ensemble.json", 2, 3, 8)
    target = tmp_path / "target.json"
    write_matrix_file(target, random_unitary(2, 9), KIND_OPERATOR)
    chan = tmp_path / "chan.json"
    write_matrix_file(chan, average_channel(read_ensemble_file(ens)), KIND_SUPEROPERATOR)
    w_avg = tmp_path / "w_avg.json"
    w_chan = tmp_path / "w_chan.json"
    common = ["--target", str(target), "-o", str(tmp_path / "m.json")]
    assert run_cli(["avg-extract", "--weights", str(ens), "--full-coeffs", str(w_avg), *common]) == 0
    assert run_cli(["extract-channel", "--channel", str(chan), "--full-coeffs", str(w_chan), *common]) == 0
    np.testing.assert_allclose(
        read_coefficient_file(w_avg), read_coefficient_file(w_chan), rtol=0, atol=1e-15
    )
    capsys.readouterr()


def test_avg_extract_leakage_with_allow_nonphysical(tmp_path, capsys):
    ens = tmp_path / "ensemble.json"
    write_ensemble_file(
        ens, [EnsembleMember(0.5, SWAP_12), EnsembleMember(0.5, np.eye(3, dtype=complex))]
    )
    model_path = tmp_path / "model.json"
    argv = ["avg-extract", "--weights", str(ens), "--leakage", "0,1", "-o", str(model_path)]
    assert run_cli(argv + ["--allow-nonphysical"]) == 0
    model = read_model(model_path, strict=False)
    assert model.leakage_weight == 0.25
    assert abs(model.probability("I") - 0.625) < 1e-12
    assert abs(model.probability("Z") - 0.125) < 1e-12
    capsys.readouterr()


def test_leakage_range_follows_tol(tmp_path, capsys):
    # Blocks that keep slightly more than all of their weight have leakage
    # just below 0 (-2e-7 here): outside [0, 1] by more than the default
    # tolerance, inside it under --tol 1e-6.
    scaled = tmp_path / "scaled.json"
    write_matrix_file(scaled, np.eye(3, dtype=complex) * (1 + 1e-7), KIND_OPERATOR)
    chan = tmp_path / "chan.json"
    write_matrix_file(chan, np.eye(9, dtype=complex) * (1 + 2e-7), KIND_SUPEROPERATOR)
    model_path = tmp_path / "m.json"
    for argv in (
        ["extract", "--unitary", str(scaled)],
        ["extract-channel", "--channel", str(chan)],
    ):
        argv = argv + ["--leakage", "0,1", "--allow-nonphysical", "-o", str(model_path)]
        assert run_cli(argv) == 3
        assert "leakage weight" in capsys.readouterr().err
        assert run_cli(argv + ["--tol", "1e-6"]) == 0
        assert read_model(model_path, strict=False).leakage_weight == 0.0
    capsys.readouterr()


def test_clamp_band_follows_tol(tmp_path, capsys):
    # A trace-preserving Pauli map with X weight -1e-7: refused under the
    # default tolerance, clamped to the identity under --tol 1e-6.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    chan = tmp_path / "dip.json"
    write_matrix_file(
        chan, (1 + 1e-7) * np.eye(4) - 1e-7 * np.kron(x, x.conj()), KIND_SUPEROPERATOR
    )
    model_path = tmp_path / "m.json"
    argv = ["extract-channel", "--channel", str(chan), "-o", str(model_path)]
    assert run_cli(argv) == 3
    assert "for X " in capsys.readouterr().err
    assert run_cli(argv + ["--tol", "1e-6"]) == 0
    assert read_model(model_path).probability("I") == 1.0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, kind, matrix",
    [
        (["extract", "--unitary"], KIND_OPERATOR, np.array([[1e150, 1e150], [0.0, 1.0]])),
        (["extract-channel", "--channel"], KIND_SUPEROPERATOR, 1e200 * np.eye(4)),
    ],
    ids=["unitary", "channel"],
)
def test_overflowing_weights_exit_2_and_write_nothing(tmp_path, capsys, argv, kind, matrix):
    # Every squared weight overflows. No numpy warning may escape (the suite
    # turns warnings into errors), and the error must not blame an output.
    source = tmp_path / "in.json"
    write_matrix_file(source, matrix, kind)
    outputs = [tmp_path / name for name in ("m.json", "m.stim", "w.json")]
    code = run_cli(
        argv
        + [str(source), "--allow-nonphysical", "-o", str(outputs[0])]
        + ["--stim", str(outputs[1]), "--full-coeffs", str(outputs[2])]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: the input's Pauli weights are not finite: they overflow double "
        "precision, or the input holds a non-finite number\n"
    )
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["extract", "extract-channel", "avg-extract"])
@pytest.mark.parametrize(
    "first, second", [("-o", "--stim"), ("-o", "--full-coeffs"), ("--stim", "--full-coeffs")]
)
def test_two_outputs_naming_one_file_exit_2_and_write_nothing(
    tmp_path, monkeypatch, capsys, command, first, second
):
    # The second option spells the first one's path another way; the later
    # writer would otherwise overwrite the earlier file.
    monkeypatch.chdir(tmp_path)
    write_matrix_file("u.json", z_rotation(0.1), KIND_OPERATOR)
    write_matrix_file("s.json", lift_unitary(z_rotation(0.1)), KIND_SUPEROPERATOR)
    write_ensemble_file("e.json", [EnsembleMember(1.0, z_rotation(0.1))])
    source = {
        "extract": ["--unitary", "u.json"],
        "extract-channel": ["--channel", "s.json"],
        "avg-extract": ["--weights", "e.json"],
    }
    argv = [command] + source[command]
    before = sorted(os.listdir(tmp_path))
    alias = str(tmp_path / "sub" / ".." / "m.json")
    assert run_cli(argv + [first, "m.json", second, alias]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {first} and {second} name the same file {alias!r}; "
        "each output needs a file of its own\n"
    )
    assert sorted(os.listdir(tmp_path)) == before


def test_model_written_with_a_high_floor_reads_back(tmp_path, capsys):
    # A floor above every probability drops all of them into the truncated
    # weight; rounding puts that sum just over 1 for this seed.
    u = tmp_path / "u.json"
    model_path = tmp_path / "m.json"
    assert run_cli(["gen", "random-unitary", "--n", "2", "--seed", "2", "-o", str(u)]) == 0
    argv = ["extract", "--unitary", str(u), "--floor", "2", "-o", str(model_path)]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert json.loads(model_path.read_text())["truncated_weight"] > 1.0
    model = read_model(model_path)
    assert model.truncated_weight > 1.0 and not model.probabilities


#: Message of a channel distance that overflows double precision.
_DISTANCE_OVERFLOW = (
    "error: channel distance is not finite: the squared differences overflow "
    "double precision, or an input holds a non-finite number\n"
)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["extract", "--unitary", "{big}"], 3,
         "error: implementation is not unitary within tolerance 1e-09 (defect inf)\n"),
        (["extract", "--unitary", "{eye}", "--target", "{big}"], 3,
         "error: target is not unitary within tolerance 1e-09 (defect inf)\n"),
        (["avg-extract", "--weights", "{ensemble}"], 3,
         "error: ensemble member is not unitary within tolerance 1e-09 (defect inf)\n"),
        (["distance", "{big_channel}", "{eye_channel}"], 2, _DISTANCE_OVERFLOW),
        (["distance", "{big}", "{eye}", "--allow-nonphysical"], 2, _DISTANCE_OVERFLOW),
        (["extract-channel", "--channel", "{huge_channel}", "--target", "{hadamard}",
          "--allow-nonphysical"], 2,
         "error: the input's Pauli weights are not finite: they overflow double "
         "precision, or the input holds a non-finite number\n"),
        # Stripping the target leaves NaN, which no preservation check admits.
        (["extract-channel", "--channel", "{huge_channel}", "--target", "{hadamard}"], 3,
         "error: channel is not trace preserving (defect nan); pass allow_nonphysical "
         "to extract diagnostics anyway\n"),
    ],
    ids=[
        "unitary",
        "target",
        "ensemble",
        "distance-channels",
        "distance-operators-nonphysical",
        "channel-target-nonphysical",
        "channel-target",
    ],
)
def test_overflowing_inputs_warn_nothing_and_write_nothing(tmp_path, capsys, argv, code, err):
    # The suite turns warnings into errors, so any numpy overflow warning on
    # the way fails the test; the error must name the input, not the output.
    files = {
        "big": (np.diag([1e200, 1.0]), KIND_OPERATOR),
        "eye": (np.eye(2), KIND_OPERATOR),
        "big_channel": (1e200 * np.eye(4), KIND_SUPEROPERATOR),
        "eye_channel": (np.eye(4), KIND_SUPEROPERATOR),
        # Stripping the target overflows: sums of entries near the largest double.
        "huge_channel": (1.5e308 * np.ones((4, 4)), KIND_SUPEROPERATOR),
        "hadamard": (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), KIND_OPERATOR),
    }
    paths = {}
    for name, (matrix, kind) in files.items():
        paths[name] = tmp_path / f"{name}.json"
        write_matrix_file(paths[name], matrix, kind)
    paths["ensemble"] = tmp_path / "ensemble.json"
    write_ensemble_file(paths["ensemble"], [EnsembleMember(1.0, files["big"][0])])
    output = tmp_path / "out.json"
    assert run_cli([arg.format(**paths) for arg in argv] + ["-o", str(output)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert not output.exists()
