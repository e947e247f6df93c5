"""Seeded inputs and op lists for the three benchmark workloads.

Every input file is written here with plain numpy and ``json``, never with
the library's own writers, so the program under test sees only generated
files. Each op also carries the reference identity probability that the
correctness oracle compares against, computed here from the generated
matrices with plain numpy (``|Tr(U U0^dag)/D|^2`` for unitaries,
``sum_k p_k |Tr(U_k U0^dag)/D|^2`` for ensembles, ``Tr(S_err)/D^2`` for
superoperators, on the computational block when an op declares leakage).

The seed changes only the random values. The kinds of op, their qubit
counts, ensemble sizes and order are fixed, so the cost of one pass over a
workload's op list does not depend on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
class Op:
    """One CLI invocation and what the oracle expects of it."""

    name: str
    argv: list[str]
    n: int
    expect: int = 0
    ref_identity: float | None = None
    model: Path | None = None
    stim: Path | None = None
    coeffs: Path | None = None

    def outputs(self) -> list[Path]:
        return [p for p in (self.model, self.stim, self.coeffs) if p is not None]


# ---------------------------------------------------------------------------
# matrices


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def near_identity(dim: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """``exp(i eps H)`` for a random Hermitian ``H`` with unit-scale entries."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def pauli(label: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in label:
        out = np.kron(out, _PAULI[ch])
    return out


def lift(u: np.ndarray) -> np.ndarray:
    return np.kron(u, u.conj())


def mixture(weights: np.ndarray, unitaries: list[np.ndarray]) -> np.ndarray:
    return sum(w * lift(u) for w, u in zip(weights, unitaries))


# ---------------------------------------------------------------------------
# reference identity probabilities (the oracle's independent numbers)


def _comp(m: np.ndarray, comp: tuple[int, ...] | None) -> np.ndarray:
    return m if comp is None else m[np.ix_(comp, comp)]


def ref_unitary(u, target, comp=None) -> float:
    err = _comp(u @ target.conj().T, comp)
    return float(abs(np.trace(err) / err.shape[0]) ** 2)


def ref_ensemble(weights, unitaries, target) -> float:
    dim = target.shape[0]
    return float(
        sum(w * abs(np.trace(u @ target.conj().T) / dim) ** 2 for w, u in zip(weights, unitaries))
    )


def ref_superop(s, target, comp=None) -> float:
    err = s if target is None else s @ lift(target.conj().T)
    if comp is not None:
        dim = int(round(np.sqrt(s.shape[0])))
        pairs = [a * dim + b for a in comp for b in comp]
        err = err[np.ix_(pairs, pairs)]
    d2 = err.shape[0]
    return float(np.clip(np.trace(err).real / d2, 0.0, 1.0))


# ---------------------------------------------------------------------------
# file writers (the library's document format, written without the library)


def _pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _dump(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_operator(path: Path, u: np.ndarray) -> Path:
    doc = {"format_version": 1, "kind": "operator", "dim": u.shape[0], "data": _pairs(u), "meta": {}}
    return _dump(path, doc)


def write_superop(path: Path, s: np.ndarray) -> Path:
    dim = int(round(np.sqrt(s.shape[0])))
    doc = {"format_version": 1, "kind": "superoperator", "dim": dim, "data": _pairs(s), "meta": {}}
    return _dump(path, doc)


def write_ensemble(path: Path, weights, unitaries) -> Path:
    doc = {
        "format_version": 1,
        "kind": "unitary_ensemble",
        "dim": unitaries[0].shape[0],
        "members": [{"weight": float(w), "data": _pairs(u)} for w, u in zip(weights, unitaries)],
        "meta": {},
    }
    return _dump(path, doc)


# ---------------------------------------------------------------------------
# op construction


class _Builder:
    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        self._files = 0

    def _path(self, stem: str) -> Path:
        self._files += 1
        return self.work / f"in{self._files:04d}-{stem}.json"

    def add(
        self,
        name: str,
        command: str,
        flag: str,
        source: Path,
        n: int,
        *,
        ref: float | None,
        target: Path | None = None,
        leakage: str | None = None,
        coeffs: bool = False,
        expect: int = 0,
    ) -> None:
        i = len(self.ops)
        model = self.work / f"{i:04d}-model.json"
        stim = self.work / f"{i:04d}-chain.stim"
        argv = [command, flag, str(source)] if flag else [command]
        if target is not None:
            argv += ["--target", str(target)]
        if leakage is not None:
            argv += ["--leakage", leakage]
        argv += ["-o", str(model), "--stim", str(stim)]
        coeff_path = None
        if coeffs:
            coeff_path = self.work / f"{i:04d}-coeffs.json"
            argv += ["--full-coeffs", str(coeff_path)]
        self.ops.append(
            Op(
                name=name,
                argv=argv,
                n=n,
                expect=expect,
                ref_identity=ref,
                model=model,
                stim=stim,
                coeffs=coeff_path,
            )
        )

    def unitary(self, name, u, target=None, *, n, comp=None, coeffs=False):
        src = write_operator(self._path("u"), u)
        tgt_path = write_operator(self._path("target"), target) if target is not None else None
        tgt = np.eye(u.shape[0], dtype=complex) if target is None else target
        leakage = None if comp is None else ",".join(map(str, comp))
        self.add(
            name, "extract", "--unitary", src, n,
            ref=ref_unitary(u, tgt, comp), target=tgt_path, leakage=leakage, coeffs=coeffs,
        )

    def channel(self, name, s, target=None, *, n, comp=None, coeffs=False):
        src = write_superop(self._path("s"), s)
        tgt_path = write_operator(self._path("target"), target) if target is not None else None
        leakage = None if comp is None else ",".join(map(str, comp))
        self.add(
            name, "extract-channel", "--channel", src, n,
            ref=ref_superop(s, target, comp), target=tgt_path, leakage=leakage, coeffs=coeffs,
        )

    def ensemble(self, name, k, n, *, with_target=True):
        dim = 2**n
        weights = self.rng.dirichlet(np.ones(k))
        weights = weights / weights.sum()
        target = haar(dim, self.rng) if with_target else np.eye(dim, dtype=complex)
        # Members are small coherent errors around the target.
        members = [near_identity(dim, 0.05, self.rng) @ target for _ in range(k)]
        src = write_ensemble(self._path("ensemble"), weights, members)
        tgt_path = write_operator(self._path("target"), target) if with_target else None
        self.add(
            name, "avg-extract", "--weights", src, n,
            ref=ref_ensemble(weights, members, target), target=tgt_path,
        )

    def pauli_channel(self, n, terms):
        labels = ["I" * n] + [
            "".join("IXYZ"[d] for d in self.rng.integers(0, 4, n)) for _ in range(terms)
        ]
        probs = self.rng.dirichlet(np.ones(len(labels)))
        probs[0] += 4.0
        probs = probs / probs.sum()
        return sum(p * lift(pauli(lab)) for p, lab in zip(probs, labels))

    def random_mixture(self, dim, k, eps=None):
        weights = self.rng.dirichlet(np.ones(k))
        weights = weights / weights.sum()
        if eps is None:
            members = [haar(dim, self.rng) for _ in range(k)]
        else:
            members = [near_identity(dim, eps, self.rng) for _ in range(k)]
        return mixture(weights, members)


def _interleave(ops: list[Op], seed: int = 0) -> list[Op]:
    """Fixed order, independent of the workload seed."""
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def _invalid_small_gates(b: _Builder) -> None:
    """Inputs the CLI must refuse with exit code 2 (input) or 3 (physicality)."""
    rng = b.rng
    u2 = haar(2, rng)
    u4 = haar(4, rng)
    good = write_operator(b._path("u"), u2)
    b.add("bad-nonunitary", "extract", "--unitary", write_operator(b._path("u"), 1.05 * u2), 1,
          ref=None, expect=3)
    b.add("bad-target-nonunitary", "extract", "--unitary", good, 1, ref=None,
          target=write_operator(b._path("target"), 0.9 * haar(2, rng)), expect=3)
    b.add("bad-target-dim", "extract", "--unitary", good, 1, ref=None,
          target=write_operator(b._path("target"), u4), expect=2)
    truncated = b._path("truncated")
    truncated.write_text(write_operator(b._path("u"), u2).read_text()[:-40])
    b.add("bad-json", "extract", "--unitary", truncated, 1, ref=None, expect=2)
    nan_doc = b._path("nan")
    nan_doc.write_text(
        '{"format_version": 1, "kind": "operator", "dim": 2, "meta": {},'
        ' "data": [[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}\n'
    )
    b.add("bad-nan", "extract", "--unitary", nan_doc, 1, ref=None, expect=2)
    superop = write_superop(b._path("s"), lift(u2))
    b.add("bad-kind", "extract", "--unitary", superop, 1, ref=None, expect=2)
    b.add("bad-missing-file", "extract", "--unitary", b.work / "does-not-exist.json", 1,
          ref=None, expect=2)
    qutrit = write_operator(b._path("u"), haar(3, rng))
    b.add("bad-odd-dim", "extract", "--unitary", qutrit, 1, ref=None, expect=2)
    b.add("bad-leakage-levels", "extract", "--unitary", qutrit, 1, ref=None, leakage="0,1,2",
          expect=2)
    b.add("bad-no-input", "extract", "", good, 1, ref=None, expect=2)


def small_gates(work: Path, seed: int, smoke: bool = False) -> list[Op]:
    """A calibration sweep: hundreds of 1-3 qubit extract ops, ~5% invalid."""
    b = _Builder(work, seed)
    rng = b.rng
    scale = 1 if smoke else 10
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for _ in range(4 * scale):
        eps = rng.uniform(1e-3, 0.2)
        b.unitary("z-rotation", np.diag([np.exp(-1j * eps), np.exp(1j * eps)]), n=1)
    for _ in range(3 * scale):
        theta = rng.uniform(1e-3, 0.2)
        b.unitary("overrotated-cz", np.diag([1, 1, 1, -np.exp(-1j * theta)]), cz, n=2)
    for n, count in ((1, 3), (2, 4), (3, 4)):
        for i in range(count * scale):
            dim = 2**n
            b.unitary(f"haar-{n}q", haar(dim, rng), haar(dim, rng), n=n,
                      coeffs=i < (1 if smoke else 2))
    qutrit_count = 1 if smoke else 6
    for _ in range(qutrit_count):
        target = haar(3, rng)
        b.unitary("qutrit-leakage", near_identity(3, 0.1, rng) @ target, target, n=1, comp=(0, 1))
    for _ in range(1 if smoke else 4):
        target = haar(9, rng)
        b.unitary("two-qutrit-leakage", near_identity(9, 0.1, rng) @ target, target, n=2,
                  comp=(0, 1, 3, 4))
    _invalid_small_gates(b)
    return _interleave(b.ops)


def wide_unitaries(work: Path, seed: int, smoke: bool = False) -> list[Op]:
    """Haar-random gates on 5 and 6 qubits against random targets.

    Two 5-qubit ops to every 6-qubit op put the median on n = 5 and, from
    six passes on, the tail percentile (10 samples above it) on n = 6.
    """
    b = _Builder(work, seed)
    pattern = (5, 5) if smoke else (5, 5, 6, 5, 5, 6)
    for n in pattern:
        dim = 2**n
        b.unitary(f"haar-{n}q", haar(dim, b.rng), haar(dim, b.rng), n=n)
    return b.ops


def channel_mix(work: Path, seed: int, smoke: bool = False) -> list[Op]:
    """Ensemble averages at n = 4-5 mixed with superoperator files at n = 2-4.

    Most of a pass is n = 5 ensembles, whose cost is mostly dense linear
    algebra: 11 of its 20 ops, so that the median and the tail percentile
    (10 samples above it) both fall among them. The JSON-bound n = 4 files
    vary most from run to run on a shared machine, so they stay below the
    median.
    """
    b = _Builder(work, seed)
    rng = b.rng
    if not smoke:
        for i in range(11):
            b.ensemble(f"ensemble-5q-k{(2, 4, 8)[i % 3]}", (2, 4, 8)[i % 3], 5, with_target=False)
        for i in range(3):
            target = haar(16, rng) if i == 0 else None
            b.channel("mixture-4q", b.random_mixture(16, 2 + i), target, n=4)
    b.ensemble("ensemble-4q-k16", 16, 4)
    b.channel("pauli-3q", b.pauli_channel(3, 8), n=3, coeffs=True)
    b.channel("mixture-2q", b.random_mixture(4, 4), n=2, coeffs=True)
    b.channel("pauli-2q-target", b.pauli_channel(2, 4), haar(4, rng), n=2)
    b.channel("qutrit-leakage", b.random_mixture(3, 3, eps=0.1), n=1, comp=(0, 1))
    b.channel("two-qutrit-leakage-target", b.random_mixture(9, 2, eps=0.1), haar(9, rng), n=2,
              comp=(0, 1, 3, 4))
    return _interleave(b.ops)


BUILDERS = {"small_gates": small_gates, "wide_unitaries": wide_unitaries, "channel_mix": channel_mix}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, work: Path, seed: int, smoke: bool = False) -> list[Op]:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](work, seed, smoke)
