"""Smoke test of the benchmark: each workload at its smallest size.

Run with ``python3 -m pytest bench``. It checks that every metric named in
``BENCHMARK.json`` is printed with its unit, and that no op fails; it does
not judge any timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def _check_result(line: str, declared: list[dict]) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], float), metric["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    lines = _run(workload, trace=1)
    _check_result(lines[-1], SPEC["per_layer"])
    text = "\n".join(lines[:-1])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}(?:\s|$)"
        assert re.search(pattern, text, re.MULTILINE), metric["name"]
    fail_ratio = re.search(r"^\s+fail_ratio\s+(\S+)\s+ratio\b", text, re.MULTILINE)
    assert fail_ratio and float(fail_ratio.group(1)) == 0.0
    assert "largest shares of op time:" in text and "tracing overhead:" in text

    _check_result(_run(workload, trace=0)[-1], SPEC["end_to_end"])
