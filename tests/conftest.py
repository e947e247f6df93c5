"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from paulinoise import EnsembleMember, average_channel, random_unitary


def random_mixture(n: int, seed: int, members: int = 3) -> np.ndarray:
    """Random trace-preserving channel: a weighted mixture of Haar unitaries.

    Deterministic for a fixed seed. Mixtures of more than one unitary are
    generically not unitary lifts, so they exercise the full coefficient
    matrix (nonzero diagonal and off-diagonal weights).
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(members))
    weights = weights / weights.sum()
    ensemble = [
        EnsembleMember(float(w), random_unitary(n, int(rng.integers(1, 2**31))))
        for w in weights
    ]
    return average_channel(ensemble)


def record_criterion(config, line: str) -> None:
    """Collect an acceptance line for the end-of-run summary."""
    lines = getattr(config, "_criterion_lines", None)
    if lines is None:
        lines = []
        config._criterion_lines = lines
    lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
