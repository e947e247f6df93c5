"""Correctness oracle for one op, run outside the timed region.

The checks use the library only to read its own outputs back
(``read_model``, ``chain_to_probabilities``, ``read_coefficient_file``);
the numbers they are compared with come from plain numpy in
``workloads.py`` and from ``json`` here, never from the library's Pauli
expansion code.
"""

from __future__ import annotations

import contextlib
import json
from typing import Callable, ContextManager

from paulinoise import chain_to_probabilities, read_coefficient_file, read_model

from workloads import Op

#: Identity probability agreement with the plain-numpy reference.
REF_TOL = 1e-9
#: Budget closure of a written model.
BUDGET_TOL = 1e-9


def no_span(name: str) -> ContextManager[None]:
    return contextlib.nullcontext()


def check(op: Op, code: object, span: Callable[[str], ContextManager[None]] = no_span) -> str | None:
    """Return why ``op`` failed, or ``None`` when its outputs are correct.

    ``code`` is the exit code the op returned, or the exception it raised.
    ``span`` wraps the read-back steps when the run is traced.
    """
    if code != op.expect:
        return f"exit code {code!r}, expected {op.expect}"
    if op.expect != 0:
        return None
    with span("model_io.read_model"):
        model = read_model(op.model, strict=True)
    doc = json.loads(op.model.read_text())
    if model.n != op.n:
        return f"model has n={model.n}, expected {op.n}"
    budget = (
        sum(e["probability"] for e in doc["entries"])
        + doc["truncated_weight"]
        + doc["leakage_weight"]
    )
    if abs(budget - 1.0) > BUDGET_TOL:
        return f"probabilities, truncated and leakage weight sum to {budget!r}"
    identity = model.diagnostics.identity_prob
    if abs(identity - op.ref_identity) > REF_TOL:
        return f"identity_prob {identity!r} differs from the reference {op.ref_identity!r}"
    with span("model_io.chain_parse"):
        chain = chain_to_probabilities(op.stim.read_text(), model.n)
    identity_label = "I" * model.n
    for label in set(chain) | set(model.probabilities):
        if label == identity_label:
            continue
        want = model.probabilities.get(label, 0.0)
        got = chain.get(label, 0.0)
        # Entries under the model's floor are truncated from the file but
        # still exported, so an absolute slack of 1e-12 is allowed.
        if abs(got - want) > 1e-12 + 1e-9 * want:
            return f"stim chain gives {label}={got!r}, model has {want!r}"
    if op.coeffs is not None:
        w = read_coefficient_file(op.coeffs)
        if w.shape != (4**op.n, 4**op.n) or abs(w[0, 0].real - op.ref_identity) > REF_TOL:
            return "coefficient file disagrees with the reference identity weight"
    return None
