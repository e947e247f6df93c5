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

from paulinoise import write_matrix_file
from paulinoise.cli import run_cli
from paulinoise.model_io import KIND_OPERATOR

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
    unitary = tmp_path / "u.json"
    write_matrix_file(unitary, np.eye(2, dtype=complex), KIND_OPERATOR)
    argv = ["extract", "--unitary", str(unitary), "-o", str(tmp_path / "m.json")]
    argv += ["--stim", str(tmp_path / "m.stim"), "--full-coeffs", str(tmp_path / "w.json")]
    with instrument.bound():
        assert run_cli(argv) == 0
    for module, name, real in before:
        assert getattr(module, name) is real, name
    # Each writer is reached through the name the trace rebinds, so its time
    # lands in its own layer.
    names = {span[0] for span in instrument.tracer.spans}
    assert {
        "cli.parse",
        "model_io.read_input",
        "extraction.extract",
        "model_io.write_model",
        "model_io.export_stim",
        "model_io.write_coeffs",
    } <= names
    capsys.readouterr()
