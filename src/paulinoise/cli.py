"""Command-line interface.

Subcommands:

* ``extract``: noise model from a unitary implementation and a target gate.
* ``extract-channel``: noise model from a superoperator implementation.
* ``avg-extract``: noise model from a weighted unitary ensemble.
* ``distance``: Frobenius channel distance between two stored channels.
* ``gen``: write reference inputs (ez, overrotated-cz, random-unitary,
  pauli-channel).
* ``demo``: built-in demonstrations (triangle).

Exit codes: 0 on success, 2 on validation or input errors, 3 on physicality
errors. Output files depend only on the resolved configuration (including
seeds), so identical invocations produce byte-identical files.

The argument parser is built once per process and shallow-copied for each
call. Building it costs a few milliseconds, more than parsing and most small
extractions, and ``run_cli`` is called many times in one process by library
callers and the benchmark. Argparse does not change a parser while it parses,
so the copies can share its actions and subparsers.
"""

from __future__ import annotations

import argparse
import copy
import functools
import os
import sys
from typing import Any, Callable

import numpy as np

from . import __version__
from .channels import channel_distance, lift_unitary, superoperator_dims
from .errors import (
    DimensionError,
    ModelFormatError,
    PhysicalityError,
    SizeLimitError,
)
from .extraction import (
    ExtractionResult,
    LeakageSpec,
    extract_from_channel,
    extract_from_ensemble,
    extract_from_unitary,
)
# average_channel is unused here but stays importable from this module,
# because the traced benchmark run (bench/tracing.py) rebinds
# cli.average_channel.
from .generators import (  # noqa: F401
    average_channel,
    overrotated_cz,
    pauli_channel,
    random_unitary,
    z_rotation,
)
from .model_io import (
    DEFAULT_PROBABILITY_FLOOR,
    FORMAT_VERSION,
    KIND_OPERATOR,
    KIND_SUPEROPERATOR,
    dump_json,
    export_stim_chain,
    read_ensemble_file,
    read_matrix_file,
    write_coefficient_file,
    write_matrix_file,
    write_model,
)
from .paulis import DEFAULT_SUPEROP_MAX_QUBITS, DEFAULT_TOL, validate_label

#: The part of ``--allow-nonphysical`` that all three extraction routes share;
#: a negative weight is admitted on none of them.
_ADMITS = "; also clamps weights above 1 and skips the written model's budget check"


def _nonnegative(text: str) -> float:
    """``--tol`` or ``--floor`` value: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_common_extract_options(parser: argparse.ArgumentParser, admits: str) -> None:
    parser.add_argument("--target", help="operator file with the intended gate (default: identity)")
    parser.add_argument(
        "--leakage",
        help="comma-separated physical levels spanning the computational subspace",
    )
    parser.add_argument(
        "--tol",
        type=_nonnegative,
        default=DEFAULT_TOL,
        help="unitarity/physicality/clamping tolerance (default %(default)g)",
    )
    parser.add_argument(
        "--floor",
        type=_nonnegative,
        default=DEFAULT_PROBABILITY_FLOOR,
        help="probabilities below this are dropped from the written model"
        " (default %(default)g)",
    )
    parser.add_argument("--allow-nonphysical", action="store_true", help=admits + _ADMITS)
    parser.add_argument("-o", "--output", help="model file to write (default: print)")
    parser.add_argument("--stim", help="also write the correlated-error chain here")
    parser.add_argument(
        "--full-coeffs", help="also write the full coefficient matrix here"
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser: a new shallow copy of the one parser that
    this process builds, so that an attribute set on the result (the traced
    benchmark run rebinds ``parse_args``) never reaches the shared one."""
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulinoise",
        description="Extract the closest stochastic Pauli channel to a gate error.",
    )
    parser.add_argument("--version", action="version", version=f"paulinoise {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser(
        "extract", help="extract a noise model from a unitary implementation"
    )
    p_extract.add_argument("--unitary", required=True, help="operator file with the implementation")
    _add_common_extract_options(
        p_extract, "admit a non-unitary implementation or target (no unitarity check)"
    )
    p_extract.set_defaults(handler=_cmd_extract)

    p_channel = sub.add_parser(
        "extract-channel", help="extract a noise model from a superoperator"
    )
    p_channel.add_argument("--channel", required=True, help="superoperator file with the implementation")
    _add_common_extract_options(
        p_channel,
        "admit a channel that is not trace or hermiticity preserving; the"
        " target must still be unitary",
    )
    p_channel.set_defaults(handler=_cmd_extract_channel)

    p_avg = sub.add_parser(
        "avg-extract", help="extract a noise model from a weighted unitary ensemble"
    )
    p_avg.add_argument("--weights", required=True, help="unitary ensemble file")
    _add_common_extract_options(
        p_avg,
        "skip the mixture's trace-preservation check; members and target must"
        " still be unitary",
    )
    p_avg.set_defaults(handler=_cmd_avg_extract)

    p_distance = sub.add_parser(
        "distance", help="Frobenius channel distance between two stored channels"
    )
    p_distance.add_argument("file_a", help="operator or superoperator file")
    p_distance.add_argument("file_b", help="operator or superoperator file")
    p_distance.add_argument(
        "--tol",
        type=_nonnegative,
        default=DEFAULT_TOL,
        help="unitarity tolerance for operator inputs (default %(default)g)",
    )
    p_distance.add_argument(
        "--allow-nonphysical",
        action="store_true",
        help="lift non-unitary operators without complaint",
    )
    p_distance.add_argument("-o", "--output", help="metrics file to write (default: print)")
    p_distance.set_defaults(handler=_cmd_distance)

    p_gen = sub.add_parser("gen", help="write reference inputs")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    g_ez = gen_sub.add_parser("ez", help="coherent Z rotation exp(-i*epsilon*Z)")
    g_ez.add_argument("--epsilon", type=float, required=True)
    g_ez.add_argument("-o", "--output", help="operator file to write (default: print)")
    g_ez.set_defaults(handler=_cmd_gen_ez)

    g_cz = gen_sub.add_parser(
        "overrotated-cz", help="CZ with excess controlled phase theta"
    )
    g_cz.add_argument("--theta", type=float, required=True)
    g_cz.add_argument("-o", "--output", help="operator file to write (default: print)")
    g_cz.set_defaults(handler=_cmd_gen_cz)

    g_rand = gen_sub.add_parser("random-unitary", help="seeded Haar-random unitary")
    g_rand.add_argument("--n", type=int, required=True, help="qubit count")
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("-o", "--output", help="operator file to write (default: print)")
    g_rand.set_defaults(handler=_cmd_gen_random)

    g_pauli = gen_sub.add_parser(
        "pauli-channel", help="stochastic Pauli channel superoperator"
    )
    g_pauli.add_argument(
        "--probs",
        required=True,
        help='probabilities as "I:0.99,Z:0.01" (labels share one qubit count)',
    )
    g_pauli.add_argument("-o", "--output", help="superoperator file to write (default: print)")
    g_pauli.set_defaults(handler=_cmd_gen_pauli)

    p_demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_name", required=True)
    d_tri = demo_sub.add_parser(
        "triangle",
        help="distances among a coherent Z error, its nearest Pauli channel,"
        " and the X-type Pauli channel with the same fidelity",
    )
    d_tri.add_argument("--epsilon", type=float, default=0.1)
    d_tri.set_defaults(handler=_cmd_demo_triangle)

    return parser


def _parse_leakage(text: str | None, full_dim: int) -> LeakageSpec | None:
    if text is None:
        return None
    try:
        indices = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"--leakage must be comma-separated integers, got {text!r}") from exc
    if not indices:
        raise ValueError("--leakage lists no indices")
    return LeakageSpec(full_dim=full_dim, comp_indices=indices)


def _parse_probs(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        label, sep, value = part.partition(":")
        if not sep:
            raise ValueError(f'--probs entries must look like "Z:0.01", got {part!r}')
        label = validate_label(label.strip())
        if label in out:
            raise ValueError(f"--probs lists label {label!r} twice")
        out[label] = float(value)
    if not out:
        raise ValueError("--probs lists no probabilities")
    return out


def _read_matrix(path: str, kind: str) -> np.ndarray:
    """The matrix of the operator or superoperator file at ``path``, which
    must hold a document of ``kind``."""
    doc = read_matrix_file(path)
    if doc.kind != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise ModelFormatError(f"{path}: expected {article} {kind} document, found {doc.kind!r}")
    return doc.matrix


def _cmd_extract(args: argparse.Namespace) -> int:
    u = _read_matrix(args.unitary, KIND_OPERATOR)
    return _run_extraction(args, extract_from_unitary, u, u.shape[0], unitary=args.unitary)


def _cmd_extract_channel(args: argparse.Namespace) -> int:
    s = _read_matrix(args.channel, KIND_SUPEROPERATOR)
    return _run_extraction(
        args, extract_from_channel, s, superoperator_dims(s)[1], channel=args.channel
    )


def _cmd_avg_extract(args: argparse.Namespace) -> int:
    members = read_ensemble_file(args.weights)
    full_dim = members[0].unitary.shape[0]
    return _run_extraction(args, extract_from_ensemble, members, full_dim, weights=args.weights)


def _require_distinct_outputs(args: argparse.Namespace) -> None:
    """Refuse two output options that name one file, which the later writer
    would silently overwrite. Paths are compared as spelled, made absolute
    and normalized, without resolving symlinks."""
    seen: dict[str, str] = {}
    outputs = (("-o", args.output), ("--stim", args.stim), ("--full-coeffs", args.full_coeffs))
    for option, path in outputs:
        if path:
            key = os.path.normpath(os.path.abspath(path))
            if key in seen:
                raise ValueError(
                    f"{seen[key]} and {option} name the same file {path!r}; "
                    "each output needs a file of its own"
                )
            seen[key] = option


def _run_extraction(
    args: argparse.Namespace,
    route: Callable[..., ExtractionResult],
    source: Any,
    full_dim: int,
    **inputs: str,
) -> int:
    """The body every extraction command shares: ``route`` turns ``source``,
    read from the file named in ``inputs``, into a model on ``full_dim``
    physical levels, which is written with its provenance."""
    _require_distinct_outputs(args)
    target = _read_matrix(args.target, KIND_OPERATOR) if args.target else None
    result = route(
        source,
        target,
        leakage=_parse_leakage(args.leakage, full_dim),
        tol=args.tol,
        allow_nonphysical=args.allow_nonphysical,
    )
    model = result.model
    # The coefficient file holds 16**n pairs, as a superoperator does: at
    # n = 5 it is 72 MiB of JSON, formatted a block of rows at a time, so an
    # n = 5 extract that writes it takes ~0.75-1.1 s and peaks at ~193 MiB
    # resident (Python 3.11, one Xeon core, one BLAS thread).
    if args.full_coeffs and model.n > DEFAULT_SUPEROP_MAX_QUBITS:
        raise SizeLimitError(
            f"--full-coeffs writes 16**n coefficients; {model.n} qubits exceed "
            f"its cap of {DEFAULT_SUPEROP_MAX_QUBITS}"
        )
    provenance = {
        "tool": "paulinoise",
        "tool_version": __version__,
        "command": args.command,
        "inputs": {**inputs, "target": args.target},
        "tol": args.tol,
        "floor": args.floor,
        "leakage": args.leakage,
        "allow_nonphysical": args.allow_nonphysical,
    }
    strict = not args.allow_nonphysical
    text = write_model(
        args.output, model, floor=args.floor, provenance=provenance, strict=strict
    )
    if args.stim:
        with open(args.stim, "w") as handle:
            handle.write(export_stim_chain(model))
    if args.full_coeffs:
        write_coefficient_file(args.full_coeffs, result.weight_matrix())
    if args.output:
        diag = model.diagnostics
        print(f"wrote {args.output}")
        print(f"identity_prob={diag.identity_prob!r}")
        print(f"leakage_weight={model.leakage_weight!r}")
        if diag.coherent_residual_sq is not None:
            print(f"coherent_residual_sq={diag.coherent_residual_sq!r}")
        if diag.distance_to_source is not None:
            print(f"distance_to_source={diag.distance_to_source!r}")
    else:
        sys.stdout.write(text)
    return 0


def _load_channel_for_distance(path: str, args: argparse.Namespace) -> np.ndarray:
    doc = read_matrix_file(path)
    if doc.kind == KIND_SUPEROPERATOR:
        return doc.matrix
    return lift_unitary(doc.matrix, tol=args.tol, allow_nonphysical=args.allow_nonphysical)


def _cmd_distance(args: argparse.Namespace) -> int:
    chan_a = _load_channel_for_distance(args.file_a, args)
    chan_b = _load_channel_for_distance(args.file_b, args)
    value = channel_distance(chan_a, chan_b)
    document = {
        "format_version": FORMAT_VERSION,
        "kind": "metrics",
        "distance": value,
        "distance_squared": value * value,
        "provenance": {
            "tool": "paulinoise",
            "tool_version": __version__,
            "command": "distance",
            "inputs": {"file_a": args.file_a, "file_b": args.file_b},
            "tol": args.tol,
            "allow_nonphysical": bool(args.allow_nonphysical),
        },
    }
    text = dump_json(args.output, document)
    if args.output:
        print(f"wrote {args.output}")
        print(f"distance={value!r}")
    else:
        sys.stdout.write(text)
    return 0


def _emit_matrix(args: argparse.Namespace, matrix: np.ndarray, kind: str, meta: dict[str, str]) -> int:
    text = write_matrix_file(args.output, matrix, kind, meta=meta)
    if args.output:
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_ez(args: argparse.Namespace) -> int:
    meta = {"generator": "ez", "epsilon": repr(args.epsilon)}
    return _emit_matrix(args, z_rotation(args.epsilon), KIND_OPERATOR, meta)


def _cmd_gen_cz(args: argparse.Namespace) -> int:
    meta = {"generator": "overrotated-cz", "theta": repr(args.theta)}
    return _emit_matrix(args, overrotated_cz(args.theta), KIND_OPERATOR, meta)


def _cmd_gen_random(args: argparse.Namespace) -> int:
    matrix = random_unitary(args.n, args.seed)
    meta = {"generator": "random-unitary", "n": repr(args.n), "seed": repr(args.seed)}
    return _emit_matrix(args, matrix, KIND_OPERATOR, meta)


def _cmd_gen_pauli(args: argparse.Namespace) -> int:
    probs = _parse_probs(args.probs)
    matrix = pauli_channel(probs)
    canonical = ",".join(f"{k}:{v!r}" for k, v in sorted(probs.items()))
    meta = {"generator": "pauli-channel", "probs": canonical}
    return _emit_matrix(args, matrix, KIND_SUPEROPERATOR, meta)


def _cmd_demo_triangle(args: argparse.Namespace) -> int:
    eps = args.epsilon
    coherent = lift_unitary(z_rotation(eps))
    model = extract_from_unitary(z_rotation(eps)).model
    nearest_z = pauli_channel(model.probabilities)
    pauli_x = pauli_channel({"I": model.probability("I"), "X": model.probability("Z")})
    leg_z = channel_distance(coherent, nearest_z)
    leg_x = channel_distance(coherent, pauli_x)
    base = channel_distance(nearest_z, pauli_x)
    expected_base_sq = float(2.0 * np.sin(eps) ** 4)
    print(f"epsilon: {eps!r}")
    print(
        "model of the coherent Z error: "
        + ", ".join(f"{lab}={model.probability(lab)!r}" for lab in ("I", "Z"))
    )
    print(f"d(coherent, nearest-Pauli-Z) = {leg_z!r}  squared = {leg_z**2!r}")
    print(f"d(coherent, Pauli-X)         = {leg_x!r}  squared = {leg_x**2!r}")
    print(f"d(nearest-Pauli-Z, Pauli-X)  = {base!r}  squared = {base**2!r}")
    print(
        f"squared leg difference = {leg_x**2 - leg_z**2!r}"
        f"  (2*sin(eps)^4 = {expected_base_sq!r})"
    )
    # A huge epsilon takes these to inf: in float64, without a warning.
    with np.errstate(over="ignore"):
        legs_order = float(np.sqrt(2.0) * eps)
        base_order = float(np.sqrt(2.0) * np.float64(eps) ** 2)
    print(
        f"leading order: legs ~ sqrt(2)*eps = {legs_order!r}, "
        f"base ~ sqrt(2)*eps^2 = {base_order!r}"
    )
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    """Run one CLI command on ``argv`` (default: ``sys.argv[1:]``) and return
    its exit code, printing results to stdout and errors to stderr.

    The parser is reached through ``build_parser`` on every call, so a caller
    that rebinds that module name sees each parse.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except PhysicalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelFormatError, DimensionError, SizeLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
