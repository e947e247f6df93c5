"""The suite's own pytest settings: warnings are errors, yet a failing
hypothesis test is reported like any other failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Reporting a failed @given test imports modules that emit a
    # DeprecationWarning; under "error" alone it would end the session with
    # an INTERNALERROR, and the tests after it would never run. The probe
    # runs in tmp_path, so hypothesis keeps its example database there.
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
