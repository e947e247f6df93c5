"""The extraction commands on mutated input files.

Each example edits one valid input document with the editors of
``test_decoders`` and feeds it to one extraction command. Whatever the
edit, the command must exit 0, 2 (bad input) or 3 (physicality), print no
traceback and raise no warning (the suite's filter turns any warning into
an error), and a model that it writes must read back, strictly unless
``--allow-nonphysical`` admitted it.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from paulinoise import read_model
from paulinoise.cli import run_cli
from test_decoders import _DELETE, _PLACES, _VALUES, _byte_edit, _document, _edit, _text

#: Each command, the kind of document it reads from the edited file, and
#: its arguments with ``{edited}`` and ``{valid}`` (a valid operator file).
COMMANDS = {
    "extract --unitary": ("operator", ["extract", "--unitary", "{edited}"]),
    "extract --target": (
        "operator", ["extract", "--unitary", "{valid}", "--target", "{edited}"],
    ),
    "extract-channel --channel": ("superoperator", ["extract-channel", "--channel", "{edited}"]),
    "avg-extract --weights": ("ensemble", ["avg-extract", "--weights", "{edited}"]),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    workdir = tmp_path_factory.mktemp("cli-mutations")
    (workdir / "valid.json").write_text(_text(_document("operator"), "indent"))
    return workdir


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    # Plain numbers are drawn more often than the decoders' tests draw them,
    # so that more edits reach the physicality checks.
    edits=st.lists(
        st.tuples(st.sampled_from(_PLACES), _VALUES | st.just(_DELETE) | st.floats(-2.0, 2.0)),
        max_size=3,
    ),
    layout=st.sampled_from(["indent", "compact"]),
    byte_edit=st.sampled_from(
        ["none"] * 5 + ["bom", "invalid-utf8", "truncated", "duplicate-first", "duplicate-last"]
    ),
    at=st.floats(0.0, 1.0),
    allow_nonphysical=st.booleans(),
)
def test_commands_exit_cleanly_on_mutated_inputs(
    workdir, command, edits, layout, byte_edit, at, allow_nonphysical
):
    kind, template = COMMANDS[command]
    document = _document(kind)
    for place, value in edits:
        _edit(document, place, value)
    edited, model = workdir / "edited.json", workdir / "model.json"
    edited.write_bytes(_byte_edit(_text(document, layout).encode("utf-8"), byte_edit, at))
    model.unlink(missing_ok=True)
    argv = [arg.format(edited=edited, valid=workdir / "valid.json") for arg in template]
    argv += ["-o", str(model)] + ["--allow-nonphysical"] * allow_nonphysical
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    event(f"{command}: exit {code}")
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert model.exists() == (code == 0)
    if code == 0:
        read_model(model, strict=not allow_nonphysical)
    else:
        assert err.getvalue().startswith("error: ")
