"""The traced benchmark run rebinds library names; this keeps them present.

``bench/tracing.py`` binds span-opening wrappers to module-level names of
``paulinoise.cli``, ``paulinoise.extraction`` and ``paulinoise.model_io``
(``extraction.pauli_basis``, ``model_io.pauli_basis``, ``cli.average_channel``
and others). Building its ``Instrument`` looks every one of them up, so a
library change that drops such a name fails here instead of in a benchmark
run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from paulinoise import EnsembleMember, write_ensemble_file, write_matrix_file
from paulinoise.cli import run_cli
from paulinoise.model_io import KIND_OPERATOR, KIND_SUPEROPERATOR

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_binds_every_traced_name(tmp_path, capsys):
    tracing = _load_tracing()
    instrument = tracing.Instrument(tracing.Tracer())
    before = [(module, name, getattr(module, name)) for module, name, _ in tracing.WRAPPED]
    unitary, channel, ensemble = tmp_path / "u.json", tmp_path / "s.json", tmp_path / "e.json"
    write_matrix_file(unitary, np.eye(2, dtype=complex), KIND_OPERATOR)
    write_matrix_file(channel, np.eye(4, dtype=complex), KIND_SUPEROPERATOR)
    write_ensemble_file(ensemble, [EnsembleMember(1.0, np.eye(2))])
    outputs = ["-o", str(tmp_path / "m.json"), "--stim", str(tmp_path / "m.stim")]
    outputs += ["--full-coeffs", str(tmp_path / "w.json")]
    # The trace wraps each reader as reader(path): every route, target
    # included, must call it with the path alone.
    routes = [
        ["extract", "--unitary", str(unitary)],
        ["extract-channel", "--channel", str(channel), "--target", str(unitary)],
        ["avg-extract", "--weights", str(ensemble), "--target", str(unitary)],
    ]
    for route in routes:
        with instrument.bound():
            assert run_cli(route + outputs) == 0, route
    for module, name, real in before:
        assert getattr(module, name) is real, name
    # Each writer is reached through the name the trace rebinds, so its time
    # lands in its own layer.
    names = [span[0] for span in instrument.tracer.spans]
    assert names.count("model_io.read_input") == 5
    assert {
        "cli.parse",
        "model_io.read_input",
        "extraction.extract",
        "model_io.write_model",
        "model_io.export_stim",
        "model_io.write_coeffs",
    } <= set(names)
    capsys.readouterr()
