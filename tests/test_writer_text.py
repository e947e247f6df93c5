"""The writers' number text against ``repr``: ``_float_texts`` on every kind
of finite double, and the stim chain against the ``%r`` template of
``oracles.stim_chain_text``.

``_float_texts`` takes orjson's digits and lays them out as ``repr`` does.
These tests pin that layout, so that an orjson that writes some double
differently fails here rather than changing output bytes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import stim_chain_text

from paulinoise import ModelFormatError, PauliNoiseModel, export_stim_chain
from paulinoise.model_io import _float_texts

SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST = 1.7976931348623157e308


def reprs(values: np.ndarray) -> list[str]:
    return list(map(float.__repr__, np.ravel(values).tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_float_texts_equal_repr_on_drawn_floats(values):
    array = np.array(values, dtype=float)
    assert _float_texts(array) == reprs(array)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
def test_float_texts_equal_repr_on_drawn_bit_patterns(patterns):
    array = np.array(patterns, dtype=np.uint64).view(float)
    array = array[np.isfinite(array)]
    assert _float_texts(array) == reprs(array)


def test_float_texts_equal_repr_on_every_decade():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    positive = np.concatenate(
        [
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            [0.0, 5e-324, SMALLEST_NORMAL, LARGEST],
        ]
    )
    values = np.concatenate([positive, -positive])
    texts = _float_texts(values)
    assert texts == reprs(values)
    assert "-0.0" in texts and "5e-324" in texts and "1.7976931348623157e+308" in texts


@pytest.mark.parametrize(
    "values",
    [[], [0.0], [-0.0], [1.5e-5], [-1e-5], [1e-7], [1e16], [-1.5e300], [0.1]],
)
def test_float_texts_of_short_arrays(values):
    array = np.array(values, dtype=float)
    assert _float_texts(array) == reprs(array)


def test_float_texts_of_the_pair_slices_the_matrix_writer_passes():
    # _pair_texts formats rows of the side x side x 2 view of a complex
    # matrix.
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-12, 0, size=(16, 16))
    matrix = scale * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    matrix[3, 4] = complex(-0.0, 1e16)
    parts = np.ascontiguousarray(matrix).view(float).reshape(16, 16, 2)
    for start in range(0, 16, 5):
        rows = parts[start : start + 5]
        assert rows.ndim == 3
        assert _float_texts(rows) == reprs(rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_texts_refuse_non_finite_values(bad):
    with pytest.raises(ModelFormatError, match="^matrix contains non-finite entries$"):
        _float_texts(np.array([0.5, bad, 0.25]))


def probabilities(size: int) -> st.SearchStrategy[float]:
    """A non-identity probability of a model with ``size`` strings, at most
    ``1 / size``: none, one of the whole decade range of written
    probabilities, one of the band orjson writes positionally, or one below
    1e-9."""
    return st.one_of(
        st.just(0.0),
        st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e / size),
        st.floats(min_value=1e-5, max_value=1e-4, exclude_max=True),
        st.floats(min_value=1e-12, max_value=1e-9, exclude_max=True),
    )


@st.composite
def chain_models(draw) -> PauliNoiseModel:
    """A model on 1-3 qubits with drawn non-identity probabilities, which
    sum to less than 1. A fully stochastic model puts the rest of the budget
    on one drawn entry and none on the identity; any other gives the rest
    to the identity."""
    n = draw(st.integers(min_value=1, max_value=3))
    size = 4**n
    entries = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=size - 1), probabilities(size), min_size=1
        )
    )
    probs = np.zeros(size)
    probs[list(entries)] = list(entries.values())
    rest = 1.0 - math.fsum(probs.tolist())
    if draw(st.booleans()):
        probs[draw(st.sampled_from(sorted(entries)))] += rest
    else:
        probs[0] = rest
    return PauliNoiseModel(n, probs)


@settings(max_examples=300, deadline=None)
@given(chain_models())
@example(PauliNoiseModel(1, np.array([0.0, 1.0, 0.0, 0.0])))
@example(PauliNoiseModel(2, np.eye(16)[9] * 2.5e-5 + np.eye(16)[0] * (1.0 - 2.5e-5)))
@example(PauliNoiseModel(3, np.eye(64)[63]))
def test_chain_text_equals_the_repr_template(model):
    assert export_stim_chain(model) == stim_chain_text(model)


def test_chain_text_of_a_fully_stochastic_budget_ends_in_one():
    model = PauliNoiseModel(2, np.array([0.0] + [3e-5] * 14 + [1.0 - 14 * 3e-5]))
    text = export_stim_chain(model)
    assert text == stim_chain_text(model)
    assert text.startswith("CORRELATED_ERROR(3e-05) X1\n")
    assert text.endswith("ELSE_CORRELATED_ERROR(1.0) Z0 Z1\n")
