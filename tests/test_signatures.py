"""One tolerance keyword and one admission flag across the public API."""

from __future__ import annotations

import inspect

import paulinoise
from paulinoise.paulis import DEFAULT_TOL

ROUTES = (
    paulinoise.extract_from_unitary,
    paulinoise.extract_from_ensemble,
    paulinoise.extract_from_channel,
)


def _public_callables():
    """Every callable in ``paulinoise.__all__``, and the public methods of
    its classes."""
    for name in paulinoise.__all__:
        obj = getattr(paulinoise, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_extraction_routes_share_one_signature():
    for route in ROUTES:
        params = list(inspect.signature(route).parameters.values())
        assert [p.name for p in params[1:2]] == ["target"], route.__name__
        keyword_only = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
        assert keyword_only == ["leakage", "tol", "allow_nonphysical"], route.__name__


def test_no_public_callable_takes_an_old_tolerance_or_cap_keyword():
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # the exception classes have no signature
            continue
        for param in params.values():
            assert param.name not in ("allow_nonunitary", "max_qubits"), (name, param.name)
            assert not param.name.endswith("_tol"), (name, param.name)
            if param.name == "tol":
                assert param.default == DEFAULT_TOL, name
