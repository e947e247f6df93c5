"""Traced CLI ops, with spans named after the library's modules.

A traced op is the same ``paulinoise.cli.run_cli(argv)`` call as an untraced
one. For the length of the call, the module-level names through which the
library reaches each layer are bound to wrappers that open a span around the
real function, and bound back afterwards:

* in ``paulinoise.cli``: ``build_parser`` and its parser's ``parse_args``,
  the input readers, ``average_channel``, ``extract_from_*``,
  ``write_model``, ``export_stim_chain`` and ``write_coefficient_file``;
* in ``paulinoise.extraction``: the sub-steps that ``extract_from_*`` is
  built from, and ``pauli_basis``;
* in ``paulinoise.model_io``: ``pauli_basis``.

The library's code is not changed, and every call an op makes is timed, as
often as the op makes it. A span nested in another is subtracted from its
parent's self time, so the layers' self times do not overlap. Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import paulinoise.cli
import paulinoise.extraction
import paulinoise.model_io

#: (module, name bound in it, layer) of every wrapped call but ``build_parser``.
WRAPPED = (
    (paulinoise.cli, "read_matrix_file", "model_io.read_input"),
    (paulinoise.cli, "read_ensemble_file", "model_io.read_input"),
    (paulinoise.cli, "average_channel", "generators.average_channel"),
    (paulinoise.cli, "extract_from_unitary", "extraction.extract"),
    (paulinoise.cli, "extract_from_channel", "extraction.extract"),
    (paulinoise.cli, "write_model", "model_io.write_model"),
    (paulinoise.cli, "export_stim_chain", "model_io.export_stim"),
    (paulinoise.cli, "write_coefficient_file", "model_io.write_coeffs"),
    (paulinoise.extraction, "error_unitary", "extraction.error"),
    (paulinoise.extraction, "error_channel", "extraction.error"),
    (paulinoise.extraction, "leakage_project", "extraction.leakage"),
    (paulinoise.extraction, "leakage_project_channel", "extraction.leakage"),
    (paulinoise.extraction, "trace_preservation_defect", "channels.physicality"),
    (paulinoise.extraction, "hermiticity_defect", "channels.physicality"),
    (paulinoise.extraction, "pauli_coefficients", "extraction.pauli_coefficients"),
    (paulinoise.extraction, "coefficient_matrix", "extraction.coefficient_matrix"),
    (paulinoise.extraction, "pauli_basis", "paulis.pauli_basis"),
    (paulinoise.model_io, "pauli_basis", "paulis.pauli_basis"),
)
READERS = ("read_matrix_file", "read_ensemble_file")
TRANSFORMS = ("pauli_coefficients", "coefficient_matrix")

#: Layers reported as time totals, in ms and as a share of op time. Each is
#: the layer's self time, except ``extraction.extract``, which includes its
#: sub-steps; its self time is reported as ``extraction.extract_self``.
LAYERS = (
    "cli.parse",
    "model_io.read_input",
    "generators.average_channel",
    "extraction.extract",
    "extraction.error",
    "extraction.leakage",
    "channels.physicality",
    "paulis.pauli_basis",
    "extraction.pauli_coefficients",
    "extraction.coefficient_matrix",
    "model_io.write_model",
    "model_io.export_stim",
    "model_io.write_coeffs",
    "model_io.read_model",
    "model_io.chain_parse",
)


class Tracer:
    """In-memory spans: (name, start, end, parent span index, op id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counters: dict[str, float] = {}
        self.op_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, op_id)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds spent in each span name, with and without nested spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for (name, start, end, _, _), nested in zip(self.spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - nested)
        return total, own

    def write(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counters": self.counters}) + "\n")


class Instrument:
    """The span-opening wrappers, bound into the library for one op at a time."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.transform_peak_bytes = 0
        self._measured: set[tuple[str, tuple[int, ...]]] = set()
        self._pending: list[tuple[Callable, np.ndarray, dict]] = []
        self._bindings = [
            (paulinoise.cli, "build_parser", self._parser(paulinoise.cli.build_parser))
        ]
        for module, name, layer in WRAPPED:
            real = getattr(module, name)
            if name in READERS:
                wrapper = self._reader(real)
            elif name in TRANSFORMS:
                wrapper = self._transform(layer, real)
            else:
                wrapper = self._span(layer, real)
            self._bindings.append((module, name, wrapper))

    def _span(self, layer: str, fn: Callable) -> Callable:
        begin, end = self.tracer.begin, self.tracer.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    def _parser(self, build: Callable) -> Callable:
        traced_build = self._span("cli.parse", build)

        @functools.wraps(build)
        def build_parser():
            parser = traced_build()
            parser.parse_args = self._span("cli.parse", parser.parse_args)
            return parser

        return build_parser

    def _reader(self, read: Callable) -> Callable:
        traced_read = self._span("model_io.read_input", read)

        @functools.wraps(read)
        def reader(path):
            result = traced_read(path)
            self.tracer.count("model_io.read_input_bytes", Path(path).stat().st_size)
            return result

        return reader

    def _transform(self, layer: str, fn: Callable) -> Callable:
        """Also keeps the first input of each shape for :meth:`measure_peaks`."""
        traced_fn = self._span(layer, fn)

        @functools.wraps(fn)
        def transform(matrix, **kwargs):
            key = (layer, np.shape(matrix))
            if key not in self._measured:
                self._measured.add(key)
                self._pending.append((fn, matrix, kwargs))
            return traced_fn(matrix, **kwargs)

        return transform

    @contextlib.contextmanager
    def bound(self) -> Iterator[None]:
        """Bind the wrappers into the library, and the real functions back after."""
        saved = [(module, name, getattr(module, name)) for module, name, _ in self._bindings]
        for module, name, wrapper in self._bindings:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, real in saved:
                setattr(module, name, real)

    def measure_peaks(self) -> None:
        """tracemalloc peak of each transform, once per input shape, on the
        first input of that shape an op gave it; untimed, after the op."""
        for fn, matrix, kwargs in self._pending:
            tracemalloc.start()
            try:
                fn(matrix, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.transform_peak_bytes = max(self.transform_peak_bytes, peak)
        self._pending.clear()
