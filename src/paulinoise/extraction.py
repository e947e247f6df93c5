"""Extraction of the closest Pauli channel from an approximate gate.

Given an implemented gate (a unitary matrix, a superoperator, or a weighted
unitary ensemble) and its intended target, the workflow is:

1. Form the residual error: ``U_err = U @ U0^dag`` for unitaries (one per
   member for an ensemble), or ``S_err = S @ lift_unitary(U0^dag)`` for
   channels.
2. Expand the error in the Pauli-string basis, as far as the model needs:
   the diagonal ``w_PP`` and the total weight ``sum_PQ |w_PQ|^2``. For a
   unitary the amplitudes ``u_P = <P, U_err>`` fully determine the channel
   coefficients through ``w_PQ = u_P u_Q^*``, and an ensemble with weights
   ``p_k`` has ``w = sum_k p_k a_k a_k^dag`` over its members' amplitudes
   ``a_k``; both numbers follow from the amplitudes. For a superoperator the
   diagonal is one per-qubit reduction of ``S_err`` and the total is
   ``||S_err||_F^2 / D^2`` (Parseval). The full matrix ``w`` is built only
   on request.
3. The diagonal weights ``w_PP``, clamped to probabilities, form the Pauli
   channel with the smallest Frobenius distance to the error channel. The
   off-diagonal weight that no Pauli channel can reproduce is reported as the
   squared coherent residual, and the squared distance to the source channel
   decomposes exactly as::

       distance^2 = sum_P |w_PP - e_P|^2 + sum_{P != Q} |w_PQ|^2

Systems with leakage outside the computational subspace are handled by
projecting the error onto the computational block first; the probability
that is lost to (and from) the leaked levels is reported separately as
``leakage_weight`` and no renormalization is applied.

Every route takes ``(input, target=None, *, leakage=None, tol=DEFAULT_TOL,
allow_nonphysical=False)``. The one ``tol`` bounds every check on the way:
unitarity, trace and hermiticity preservation, the leakage range, and the
band ``[-tol, 1 + tol]`` within which diagonal weights are clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .channels import (
    compose,
    hermiticity_defect,
    lift_unitary,
    superoperator_dims,
    trace_preservation_defect,
)
from .errors import DimensionError, PhysicalityError
from .generators import EnsembleMember, _ensemble_arrays
from .paulis import (
    DEFAULT_SUPEROP_MAX_QUBITS,
    DEFAULT_TOL,
    MAX_MODEL_QUBITS,
    _DIAG_MAP,
    _pauli_transform,
    check_levels,
    check_qubits,
    index_to_label,
    label_to_index,
    mapping_qubits,
    pauli_basis,
    pauli_labels,
    pauli_qubit_count,
    qubit_count,
    require_unitary,
    square_matrix,
)

@dataclass(frozen=True)
class ModelDiagnostics:
    """Secondary quantities recorded alongside the extracted probabilities.

    ``coherent_residual_sq`` and ``distance_to_source`` are ``None`` when the
    model was assembled from diagonal weights alone; they also require the
    total weight ``sum_PQ |w_PQ|^2`` of the source channel's coefficients.
    """

    identity_prob: float
    coherent_residual_sq: float | None = None
    distance_to_source: float | None = None


class _NonzeroProbabilities(Mapping[str, float]):
    """Read-only ``{label: probability}`` view of a model's nonzero entries.

    Lookups go through :func:`label_to_index` and iteration makes labels
    only for the nonzero entries, in basis index order; nothing is copied.
    """

    def __init__(self, probs: np.ndarray, n: int) -> None:
        self._probs = probs
        self._n = n

    def __getitem__(self, label: str) -> float:
        if isinstance(label, str) and len(label) == self._n:
            try:
                prob = float(self._probs[label_to_index(label)])
            except ValueError:
                prob = 0.0
            if prob != 0.0:
                return prob
        raise KeyError(label)

    def __iter__(self) -> Iterator[str]:
        return iter(pauli_labels(np.flatnonzero(self._probs), self._n))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._probs))


@dataclass(frozen=True, eq=False)
class PauliNoiseModel:
    """Stochastic Pauli noise model: one probability per Pauli string.

    ``probs`` is a read-only float64 vector of length ``4**n`` in basis index
    order; labels are made from it only where they are needed.
    ``leakage_weight`` is the probability mass outside the computational
    subspace, and ``truncated_weight`` the mass of entries a written model
    dropped below its floor (0 for a model that was never written). For
    physical inputs the three sum to 1, which :meth:`validate` checks.

    Construction holds each number to its range, the one rule for every
    caller and reader: probabilities and leakage in ``[0, 1]``, the truncated
    weight finite and ``>= 0`` (the budget bounds it). A ``ValueError``
    naming the first offender refuses any other model.
    """

    n: int
    probs: np.ndarray
    leakage_weight: float = 0.0
    truncated_weight: float = 0.0
    diagnostics: ModelDiagnostics = field(
        default_factory=lambda: ModelDiagnostics(identity_prob=0.0)
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_qubits(self.n, MAX_MODEL_QUBITS))
        probs = np.array(self.probs, dtype=np.float64)
        if probs.shape != (4**self.n,):
            raise DimensionError(
                f"a {self.n}-qubit model needs {4**self.n} probabilities in a "
                f"vector, got shape {probs.shape}"
            )
        # The first probability outside [0, 1], NaN included, is named first.
        index = int(np.argmin((probs >= 0.0) & (probs <= 1.0)))
        unit = (1.0, "outside [0, 1]")
        for name, value, (high, rule) in (
            (f"probability for {index_to_label(index, self.n)!r}", probs[index], unit),
            ("leakage_weight", self.leakage_weight, unit),
            ("truncated_weight", self.truncated_weight,
             (np.finfo(float).max, "not a finite number >= 0")),
        ):
            if not 0.0 <= value <= high:
                raise ValueError(f"{name} is {float(value)!r}, {rule}")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliNoiseModel):
            return NotImplemented
        return (
            (self.n, self.leakage_weight, self.truncated_weight, self.diagnostics)
            == (other.n, other.leakage_weight, other.truncated_weight, other.diagnostics)
            and np.array_equal(self.probs, other.probs)
        )

    @property
    def probabilities(self) -> Mapping[str, float]:
        """The nonzero probabilities by label, as a read-only view."""
        return _NonzeroProbabilities(self.probs, self.n)

    def probability(self, label: str) -> float:
        index = label_to_index(label)
        if len(label) != self.n:
            raise ValueError(f"label {label!r} does not have {self.n} characters")
        return float(self.probs[index])

    def as_array(self) -> np.ndarray:
        """Probabilities as a writable length ``4**n`` vector in basis index order."""
        return self.probs.copy()

    def total_weight(self) -> float:
        """Probabilities plus both weights, summed exactly and rounded once,
        so a model and the file it is written to, whose entries below the
        floor moved into ``truncated_weight``, have the same budget."""
        return math.fsum(self.probs.tolist() + [self.leakage_weight, self.truncated_weight])

    def validate(self, tol: float = DEFAULT_TOL) -> "PauliNoiseModel":
        """Check the probability budget, the one rule of the strict writer and
        the strict reader: probabilities, truncated weight and leakage sum to
        1 within ``tol``. Each number's range is held by construction.
        Raises :class:`PhysicalityError` on violation, returns self."""
        total = self.total_weight()
        if abs(total - 1.0) > tol:
            raise PhysicalityError(
                f"probabilities, truncated weight and leakage sum to {total!r}, "
                f"not 1 within {tol:g}"
            )
        return self


@dataclass(frozen=True)
class LeakageSpec:
    """Embedding of the computational subspace in a larger physical space.

    ``comp_indices`` are the physical levels spanning the computational
    subspace, strictly increasing, and their count must be a power of 2.
    """

    full_dim: int
    comp_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "comp_indices", tuple(int(i) for i in self.comp_indices))
        if self.full_dim < 2:
            raise DimensionError("full dimension must be at least 2")
        if len(self.comp_indices) < 2:
            raise DimensionError("the computational subspace needs at least 2 levels")
        if any(b <= a for a, b in zip(self.comp_indices, self.comp_indices[1:])):
            raise DimensionError("computational indices must be strictly increasing")
        if self.comp_indices[0] < 0 or self.comp_indices[-1] >= self.full_dim:
            raise DimensionError(
                f"computational indices must lie in [0, {self.full_dim})"
            )
        qubit_count(len(self.comp_indices))

    @property
    def comp_dim(self) -> int:
        return len(self.comp_indices)

    @property
    def n(self) -> int:
        return qubit_count(self.comp_dim)


@dataclass(frozen=True)
class ExtractionResult:
    """A model plus the expansion data it was derived from.

    The channel route records the error superoperator ``channel`` (the
    computational block with leakage). The unitary and ensemble routes record
    instead the error amplitudes of each member (one row per member, basis
    index order) and the member weights ``mixture``. :meth:`weight_matrix`
    builds the coefficient matrix from either on demand: ``coefficient_matrix
    (channel)``, or ``sum_k p_k a_k a_k^dag``.
    """

    model: PauliNoiseModel
    channel: np.ndarray | None = None
    amplitudes: np.ndarray | None = None
    mixture: np.ndarray | None = None

    def weight_matrix(self) -> np.ndarray:
        if self.channel is not None:
            return coefficient_matrix(self.channel)
        if self.amplitudes is None:
            raise ValueError("no expansion data recorded for this result")
        return (self.amplitudes.T * self.mixture) @ self.amplitudes.conj()


def error_unitary(
    u: np.ndarray,
    u0: np.ndarray,
    *,
    tol: float = DEFAULT_TOL,
    allow_nonphysical: bool = False,
) -> np.ndarray:
    """Residual rotation ``u @ u0^dag`` of an implementation against its target.

    Equals the identity exactly when the gate is perfect. Both inputs must be
    unitary within ``tol`` unless ``allow_nonphysical`` is set.
    """
    u = square_matrix(u, "implementation")
    u0_dag = _target_adjoint(u0, u.shape[0], tol, allow_nonphysical)
    if not allow_nonphysical:
        require_unitary(u, tol, name="implementation")
    return u @ u0_dag


def _target_adjoint(
    target: np.ndarray, dim: int, tol: float, allow_nonphysical: bool = False
) -> np.ndarray:
    """``target^dag``, for a target checked to be ``dim x dim`` and, unless
    ``allow_nonphysical`` is set, unitary within ``tol``: the one target
    check of every route."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (dim, dim):
        raise DimensionError(
            f"target shape {target.shape} does not match the input dimension {dim}"
        )
    if not allow_nonphysical:
        require_unitary(target, tol, name="target")
    return target.conj().T


def _amplitudes(m: np.ndarray, n: int) -> np.ndarray:
    """``Tr(P m) / 2**n`` for every ``n``-qubit string ``P``, in basis index order."""
    return _pauli_transform(m, [(q, n + q) for q in range(n)])


def pauli_coefficients(
    u_err: np.ndarray,
    *,
    norm_dim: int | None = None,
) -> dict[str, complex]:
    """Pauli amplitudes ``u_P = Tr(P u_err) / norm_dim`` for every string ``P``.

    For a unitary on the full space the squared magnitudes sum to 1
    (completeness of the basis). ``norm_dim`` defaults to the matrix
    dimension; blocks embedded in larger spaces keep their own dimension.
    The labels come from :func:`pauli_basis`, so its cap applies.
    """
    m = square_matrix(u_err)
    if norm_dim is not None and norm_dim < 1:
        raise ValueError("norm_dim must be a positive integer")
    n = qubit_count(m.shape[0])
    labels = pauli_basis(n)
    amp = _amplitudes(m, n)
    if norm_dim is not None and norm_dim != m.shape[0]:
        amp = amp * (m.shape[0] / norm_dim)
    return dict(zip(labels, amp.tolist()))


def error_channel(
    s: np.ndarray,
    u0: np.ndarray,
    *,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Residual channel of an implementation ``s`` against a unitary target:
    ``s`` composed after conjugation by ``u0^dag``."""
    s = np.asarray(s, dtype=complex)
    _, d = superoperator_dims(s)
    # The adjoint of a checked unitary needs no second check.
    return compose(s, lift_unitary(_target_adjoint(u0, d, tol), allow_nonphysical=True))


def coefficient_matrix(s: np.ndarray) -> np.ndarray:
    """Full Pauli-pair coefficient matrix ``w[P, Q] = <kron(P, Q.conj()), s>``.

    One per-qubit transform over the ``2n`` index pairs of ``s``, at cost
    ``O(n 16**n)`` instead of ``16**n`` traces. For the lift of a unitary with
    amplitudes ``u``, ``w = outer(u, u.conj())``. The result is the size of
    ``s``, so there is no cap beyond the input's own.
    """
    s = np.asarray(s, dtype=complex)
    _, d = superoperator_dims(s)
    n = qubit_count(d)
    # s[(i,k),(j,l)] pairs (i_q, j_q) for P. Q is Hermitian, so
    # Q[k,l] = conj(Q[l,k]) and pairing (l_q, k_q) lets the same conjugated
    # map serve Q as well.
    pairs = [(q, 2 * n + q) for q in range(n)] + [(3 * n + q, n + q) for q in range(n)]
    return _pauli_transform(s, pairs).reshape(4**n, 4**n)


def _channel_diagonal(s: np.ndarray, n: int) -> np.ndarray:
    """Diagonal ``w_PP`` of :func:`coefficient_matrix` on ``n`` qubits without
    the matrix: each qubit's index group ``(i_q, j_q, k_q, l_q)`` of
    ``s[(i,k),(j,l)]`` reduces 16 -> 4 with ``_DIAG_MAP``, ``O(16**n)`` in all."""
    groups = [(q, 2 * n + q, n + q, 3 * n + q) for q in range(n)]
    return _pauli_transform(s, groups, _DIAG_MAP)


def coherent_residual(w: np.ndarray) -> float:
    """Total squared off-diagonal weight ``sum_{P != Q} |w_PQ|^2``.

    This is the part of a channel's distance to Pauli-channel space that no
    choice of probabilities can remove; it vanishes iff the coefficient
    matrix is diagonal.
    """
    w = square_matrix(w, "coefficient matrix")
    return _off_diagonal_sq(float(np.sum(np.abs(w) ** 2)), np.diagonal(w))


def _off_diagonal_sq(total_sq: float, diag: np.ndarray) -> float:
    """``sum_{P != Q} |w_PQ|^2`` from the total weight and the diagonal."""
    # Guard against cancellation returning a tiny negative zero.
    return max(total_sq - float(np.sum(np.abs(diag) ** 2)), 0.0)


#: Why a route refuses weights or diagnostics that are not finite.
_NON_FINITE_WEIGHTS = (
    "the input's Pauli weights are not finite: they overflow double "
    "precision, or the input holds a non-finite number"
)


def _assemble_model(
    diag: np.ndarray,
    leakage_weight: float,
    total_sq: float | None,
    tol: float,
    allow_nonphysical: bool = False,
) -> PauliNoiseModel:
    """Clamp diagonal weights into probabilities and attach diagnostics.

    ``total_sq`` is the source channel's total weight ``sum_PQ |w_PQ|^2``;
    with it the coherent residual and the distance to the source are
    recorded, without it (``None``) both stay ``None``. Weights or
    diagnostics that are not finite raise ``ValueError``.

    Imaginary parts within ``tol`` are removed; larger ones are a
    physicality error. Real parts are clamped to ``[0, 1]``, but weights
    below ``-tol`` are never clamped silently, and neither are weights above
    ``1 + tol`` unless ``allow_nonphysical`` is set: a weight above 1 is what
    a trace-increasing input (a scaled unitary, a non-trace-preserving
    channel) produces, and that flag admits such inputs, while a negative
    weight marks a map that is not completely positive, which no flag admits.
    """
    diag = np.asarray(diag, dtype=complex).reshape(-1)
    n = pauli_qubit_count(diag.size)
    real = diag.real
    residual_sq = distance = None
    # Weights beyond double precision become inf or NaN here, silently, and
    # are refused before any check below reads them.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.clip(real, 0.0, 1.0)
        if total_sq is not None:
            residual_sq = _off_diagonal_sq(total_sq, diag)
            mismatch_sq = float(np.sum(np.abs(diag - probs) ** 2))
            distance = float(np.sqrt(residual_sq + mismatch_sq))
    if not (np.isfinite(diag).all() and (distance is None or math.isfinite(distance))):
        raise ValueError(_NON_FINITE_WEIGHTS)
    max_imag = float(np.max(np.abs(diag.imag)))
    if max_imag > tol:
        raise PhysicalityError(
            f"diagonal weights have imaginary parts up to {max_imag:.3e}, beyond "
            f"the clamping tolerance {tol:g}"
        )
    worst = int(np.argmin(real))
    if real[worst] < -tol:
        raise PhysicalityError(
            f"diagonal weight for {index_to_label(worst, n)} is {real[worst]:.6e}; "
            f"weights below -{tol:g} indicate a non-physical channel "
            "and are not clamped"
        )
    top = int(np.argmax(real))
    if real[top] > 1.0 + tol and not allow_nonphysical:
        raise PhysicalityError(
            f"diagonal weight for {index_to_label(top, n)} is {real[top]:.6e}; "
            f"weights above 1 + {tol:g} indicate a non-physical "
            "channel and are not clamped"
        )
    diagnostics = ModelDiagnostics(
        identity_prob=float(probs[0]),
        coherent_residual_sq=residual_sq,
        distance_to_source=distance,
    )
    return PauliNoiseModel(
        n=n,
        probs=probs,
        leakage_weight=float(leakage_weight),
        diagnostics=diagnostics,
    )


def _result_from_amplitudes(
    amplitudes: np.ndarray,
    mixture: np.ndarray,
    leakage_weight: float,
    tol: float,
    allow_nonphysical: bool,
) -> ExtractionResult:
    """Model of the channel ``w = sum_k p_k a_k a_k^dag`` from the rows ``a_k``
    of ``amplitudes`` and the weights ``p_k`` in ``mixture``.

    The diagonal is ``p @ |A|**2``. The total weight ``sum_PQ |w_PQ|^2`` is
    ``sum_kl p_k p_l |a_k^dag a_l|^2``, a ``K x K`` Gram matrix, so the
    coherent residual needs neither ``w`` nor a superoperator. The Gram
    diagonal is taken from ``sum_P |a_kP|^2``, so a single unitary
    (``K = 1``) gets exactly the closed form ``total**2 - sum_P w_PP**2``.
    """
    # An overflow here is refused by _assemble_model, which sees its inf.
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(amplitudes) ** 2
        diag = mixture @ power
        gram = np.abs(amplitudes.conj() @ amplitudes.T) ** 2
        np.fill_diagonal(gram, power.sum(axis=1) ** 2)
        total_sq = float(mixture @ gram @ mixture)
    model = _assemble_model(
        diag.astype(complex), leakage_weight, total_sq, tol, allow_nonphysical
    )
    return ExtractionResult(model=model, amplitudes=amplitudes, mixture=mixture)


def nearest_pauli_channel(
    weights: np.ndarray | Mapping[str, complex],
    leakage_weight: float = 0.0,
    *,
    tol: float = DEFAULT_TOL,
) -> PauliNoiseModel:
    """Project channel coefficients onto the closest Pauli channel.

    ``weights`` is either the full coefficient matrix (square, ``4**n`` on a
    side) or just its diagonal (a length ``4**n`` vector, or a mapping from
    labels to weights on at most ``MAX_MODEL_QUBITS`` qubits). The model's
    probabilities are the real parts of the diagonal, clamped to ``[0, 1]``
    within ``tol``; among all Pauli channels this choice minimizes the
    Frobenius distance to the source.

    With the full matrix available the diagnostics record the squared
    coherent residual and the exact distance to the source channel; with only
    the diagonal those fields are ``None``.
    """
    if isinstance(weights, Mapping):
        n = mapping_qubits(weights, MAX_MODEL_QUBITS, "weight")
        diag = np.zeros(4**n, dtype=complex)
        diag[[label_to_index(lab) for lab in weights]] = [
            complex(value) for value in weights.values()
        ]
        return _assemble_model(diag, leakage_weight, None, tol)
    arr = np.asarray(weights, dtype=complex)
    if arr.ndim == 2:
        arr = square_matrix(arr, "coefficient matrix")
        total_sq = float(np.sum(np.abs(arr) ** 2))
        return _assemble_model(np.diagonal(arr), leakage_weight, total_sq, tol)
    if arr.ndim == 1:
        return _assemble_model(arr, leakage_weight, None, tol)
    raise DimensionError(f"weights must be a matrix, vector, or mapping, got ndim={arr.ndim}")


def _leakage_in_range(leak: float, tol: float, source: str) -> float:
    """``leak`` clipped to ``[0, 1]``; beyond ``tol`` outside that range the
    input was not ``source`` on the full space. A non-finite ``leak`` is
    refused as non-finite weights are on every route."""
    if not math.isfinite(leak):
        raise ValueError(_NON_FINITE_WEIGHTS)
    if not -tol <= leak <= 1.0 + tol:
        raise PhysicalityError(
            f"leakage weight {leak!r} is outside [0, 1] by more than {tol:g}; the "
            f"input is not {source} on the full space"
        )
    return float(np.clip(leak, 0.0, 1.0))


def _require_preserving(defect: float, tol: float, what: str) -> None:
    """Raise unless an error channel's ``what``-preservation defect is within ``tol``."""
    if defect > tol:
        raise PhysicalityError(
            f"channel is not {what} preserving (defect {defect:.3e}); pass "
            "allow_nonphysical to extract diagnostics anyway"
        )


def leakage_project(
    u_full: np.ndarray,
    spec: LeakageSpec,
    *,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Restrict a unitary on the full physical space to the computational block.

    Returns the (generally non-unitary) block and the leakage weight
    ``1 - Tr(B^dag B) / comp_dim``, the probability that the error moves
    amplitude out of the computational subspace. The block's Pauli amplitudes
    (taken with ``norm_dim = comp_dim``) then satisfy
    ``sum_P |u_P|^2 = 1 - leakage_weight``. A leakage weight outside
    ``[-tol, 1 + tol]`` is an error; within that range it is clipped to
    ``[0, 1]``.
    """
    u = np.asarray(u_full, dtype=complex)
    if u.shape != (spec.full_dim, spec.full_dim):
        raise DimensionError(
            f"operator shape {u.shape} does not match the declared full dimension "
            f"{spec.full_dim}"
        )
    idx = np.array(spec.comp_indices)
    block = u[np.ix_(idx, idx)]
    with np.errstate(over="ignore"):
        retained = float(np.sum(np.abs(block) ** 2) / spec.comp_dim)
    return block, _leakage_in_range(1.0 - retained, tol, "a unitary")


def leakage_project_channel(
    s_full: np.ndarray,
    spec: LeakageSpec,
    *,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Channel analogue of :func:`leakage_project`.

    Keeps the superoperator rows and columns whose bra and ket indices both
    lie in the computational subspace, and reports the Pauli weight lost in
    the restriction as the leakage weight ``1 - sum_P w_PP(block)``. The
    retained weight's imaginary part must be within ``tol`` of 0 and the
    leakage weight within ``tol`` of ``[0, 1]``.
    """
    s = np.asarray(s_full, dtype=complex)
    if s.shape != (spec.full_dim**2, spec.full_dim**2):
        raise DimensionError(
            f"superoperator shape {s.shape} does not match the declared full "
            f"dimension {spec.full_dim}"
        )
    pairs = np.array([a * spec.full_dim + b for a in spec.comp_indices for b in spec.comp_indices])
    block = s[np.ix_(pairs, pairs)]
    d = spec.comp_dim
    # sum_P w_PP = (1/D) sum_{a,c} block[(c,c),(a,a)], a trace identity of the
    # Pauli-pair basis; no per-string loop needed.
    retained = complex(np.einsum("ccaa->", block.reshape(d, d, d, d))) / d
    if abs(retained.imag) > tol:
        raise PhysicalityError(
            f"retained weight has imaginary part {retained.imag:.3e}; the channel "
            "is not hermiticity preserving"
        )
    return block, _leakage_in_range(1.0 - retained.real, tol, "a trace-preserving channel")


def _extract_from_errors(
    errs: np.ndarray,
    weights: np.ndarray,
    leakage: LeakageSpec | None,
    tol: float,
    allow_nonphysical: bool,
) -> ExtractionResult:
    """Shared tail of the unitary and ensemble routes, from the members'
    errors ``errs`` (``K x D x D``) and their weights.

    Each error is projected onto the computational block when ``leakage`` is
    given (the leakage weight is ``sum_k p_k leak_k``) and expanded into
    amplitudes. Memory is ``O(K 4**n)``, no more than the input already
    holds, so the cap is that of the model: ``MAX_MODEL_QUBITS``.
    """
    leak = 0.0
    if leakage is not None:
        blocks, leaks = zip(*(leakage_project(e, leakage, tol=tol) for e in errs))
        errs = np.stack(blocks)
        leak = float(weights @ np.array(leaks))
    n = check_qubits(qubit_count(errs.shape[1]), MAX_MODEL_QUBITS)
    amplitudes = np.stack([_amplitudes(e, n) for e in errs])
    return _result_from_amplitudes(amplitudes, weights, leak, tol, allow_nonphysical)


def extract_from_unitary(
    u: np.ndarray,
    target: np.ndarray | None = None,
    *,
    leakage: LeakageSpec | None = None,
    tol: float = DEFAULT_TOL,
    allow_nonphysical: bool = False,
) -> ExtractionResult:
    """Extract the closest Pauli channel to the error of a unitary gate.

    ``target`` defaults to the identity, in which case ``u`` itself is the
    error. With a ``leakage`` spec both matrices live on the full physical
    space and the error is projected onto the computational block before
    expansion. The coefficient matrix of a lifted unitary is the outer
    product of its amplitudes, so the model and its diagnostics are computed
    from the amplitudes alone (the one-member case of
    :func:`extract_from_ensemble`); the full matrix is available from the
    result on demand. ``allow_nonphysical`` skips the unitarity checks.
    """
    u = square_matrix(u)
    if target is None:
        target = np.eye(u.shape[0], dtype=complex)
    err = error_unitary(u, target, tol=tol, allow_nonphysical=allow_nonphysical)
    return _extract_from_errors(err[None], np.ones(1), leakage, tol, allow_nonphysical)


def extract_from_ensemble(
    members: Sequence[EnsembleMember] | Iterable[EnsembleMember],
    target: np.ndarray | None = None,
    *,
    leakage: LeakageSpec | None = None,
    tol: float = DEFAULT_TOL,
    allow_nonphysical: bool = False,
) -> ExtractionResult:
    """Extract the closest Pauli channel to the error of a weighted unitary
    ensemble, without forming its superoperator.

    Gives the model of ``extract_from_channel(average_channel(members),
    target)``: each member's error ``E_k = U_k U0^dag`` is expanded into
    amplitudes ``a_k``, and the mixture's coefficient matrix
    ``sum_k p_k a_k a_k^dag`` is never built. Time is
    ``O(K n 4**n + K**2 4**n)`` and memory ``O(K 4**n)``, so the model cap
    applies, as on the unitary route. The members are validated as by
    :func:`average_channel`, and trace preservation of the mixture is
    enforced unless ``allow_nonphysical`` is set.
    """
    weights, unitaries = _ensemble_arrays(members, tol=tol)
    errs = unitaries
    if target is not None:
        errs = unitaries @ _target_adjoint(target, unitaries.shape[1], tol)
    if not allow_nonphysical:
        # trace_preservation_defect of sum_k p_k kron(E_k, E_k^*), without the
        # superoperator. A real-weighted mixture of conjugations preserves
        # hermiticity exactly, so that check has nothing to find here.
        kept = np.tensordot(weights, errs.conj().transpose(0, 2, 1) @ errs, axes=1)
        defect = float(np.max(np.abs(kept - np.eye(kept.shape[0]))))
        _require_preserving(defect, tol, "trace")
    return _extract_from_errors(errs, weights, leakage, tol, allow_nonphysical)


def extract_from_channel(
    s: np.ndarray,
    target: np.ndarray | None = None,
    *,
    leakage: LeakageSpec | None = None,
    tol: float = DEFAULT_TOL,
    allow_nonphysical: bool = False,
) -> ExtractionResult:
    """Extract the closest Pauli channel to the error of a channel ``s``.

    ``target`` (a unitary on the same space, identity when omitted) is
    inverted and composed into ``s`` first. Trace and hermiticity
    preservation of the error channel are enforced unless
    ``allow_nonphysical`` is set; those checks run on the full space, before
    any leakage projection. For a weighted unitary ensemble,
    :func:`extract_from_ensemble` gives the same model without the
    superoperator.
    """
    s = np.asarray(s, dtype=complex)
    _, d = superoperator_dims(s)
    # The cap is checked before the O(64**n) compose and the physicality
    # checks; with leakage, only the computational block is expanded.
    check_levels(d if leakage is None else leakage.comp_dim, DEFAULT_SUPEROP_MAX_QUBITS)
    err = s if target is None else error_channel(s, target, tol=tol)
    if not allow_nonphysical:
        _require_preserving(trace_preservation_defect(err), tol, "trace")
        _require_preserving(hermiticity_defect(err), tol, "hermiticity")
    leak = 0.0
    if leakage is not None:
        err, leak = leakage_project_channel(err, leakage, tol=tol)
    d2, d = superoperator_dims(err)
    total_sq = float(np.vdot(err, err).real) / d2
    model = _assemble_model(
        _channel_diagonal(err, qubit_count(d)), leak, total_sq, tol, allow_nonphysical
    )
    return ExtractionResult(model=model, channel=err)
