"""End-to-end and per-layer benchmark of the paulinoise CLI.

One op is one CLI invocation, run in-process through
``paulinoise.cli.run_cli(argv)``, the call ``main()`` makes after import.
Load is a closed loop with one client: the next op starts when the previous
one returns. Each workload runs in its own process, pinned to one BLAS/OpenMP
thread, on inputs generated from ``--seed``.

    python3 bench/run.py --workload small_gates --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

The timed loop runs whole passes over the workload's op list until the op
time reaches ``--seconds``. Every op is checked by the correctness oracle
outside the timed region. With ``--trace 1`` the run first measures the
untraced loop and then a traced loop of the same length, and reports
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP threads of the workload process; set before numpy loads.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse
import collections
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Set-ups per run, each in a fresh child process; the median is reported.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
#: The tail latency is read where at least this many samples lie above it.
TAIL_SAMPLES_ABOVE = 10

if not (SRC / "paulinoise" / "__init__.py").is_file():
    print(f"error: no paulinoise sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import paulinoise  # noqa: E402
from paulinoise.cli import run_cli  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(paulinoise.__file__).resolve().parent != (SRC / "paulinoise").resolve():
    print(f"error: imported paulinoise from {paulinoise.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smallest op list of each workload, one setup"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up


def _call(op: workloads.Op) -> object:
    """Run one op; returns its exit code, or the exception that escaped."""
    try:
        return run_cli(op.argv)
    except Exception as exc:  # noqa: BLE001, an escaped exception is a failed op
        return repr(exc)


def setup(workload: str, seed: int, work: Path, smoke: bool) -> tuple[list[workloads.Op], float]:
    """Generate inputs and run one untimed warm-up op per distinct qubit count."""
    start = time.perf_counter()
    ops = workloads.build(workload, work, seed, smoke)
    warm: dict[int, workloads.Op] = {}
    for op in ops:
        if op.expect == 0:
            warm.setdefault(op.n, op)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for op in warm.values():
            code = _call(op)
            if code != 0:
                raise RuntimeError(f"warm-up op {op.name} returned {code!r}")
    return ops, time.perf_counter() - start


def child_setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time measured in a fresh process, so caches start cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def import_ms() -> float:
    """Median time of ``import paulinoise.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import paulinoise.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True, env=env, cwd=ROOT)
        samples.append(float(done.stdout.strip()) * 1e3)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# timed loops


class Phase:
    """Latencies and failures of one measured loop."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.positions: list[int] = []
        self.failures: list[str] = []
        self.by_qubits: collections.Counter[int] = collections.Counter()

    def record(self, position: int, op: workloads.Op, seconds: float, failure: str | None) -> None:
        self.latencies.append(seconds)
        self.positions.append(position)
        self.by_qubits[op.n] += 1
        if failure is not None:
            self.failures.append(f"{op.name}: {failure}")

    @property
    def op_seconds(self) -> float:
        return sum(self.latencies)


def _check(op: workloads.Op, code: object, span=oracle.no_span) -> str | None:
    try:
        return oracle.check(op, code, span)
    except Exception as exc:  # noqa: BLE001, unreadable output is a failed op
        return f"oracle could not read the outputs: {exc!r}"


def _clear(op: workloads.Op) -> None:
    for path in op.outputs():
        path.unlink(missing_ok=True)


def untraced_loop(ops: list[workloads.Op], seconds: float) -> Phase:
    phase = Phase()
    gc.collect()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        while phase.op_seconds < seconds:
            for position, op in enumerate(ops):
                _clear(op)
                start = time.perf_counter()
                code = _call(op)
                elapsed = time.perf_counter() - start
                phase.record(position, op, elapsed, _check(op, code))
    return phase


def traced_loop(
    ops: list[workloads.Op], seconds: float, tracer: tracing.Tracer
) -> tuple[Phase, tracing.Instrument]:
    phase = Phase()
    instrument = tracing.Instrument(tracer)
    gc.collect()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        while phase.op_seconds < seconds:
            for position, op in enumerate(ops):
                _clear(op)
                tracer.op_id += 1
                first = len(tracer.spans)
                with instrument.bound(), tracer.span("op"):
                    code = _call(op)
                _, start, end, _, _ = tracer.spans[first]
                instrument.measure_peaks()
                phase.record(position, op, end - start, _check(op, code, tracer.span))
    return phase, instrument


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ``TAIL_SAMPLES_ABOVE`` samples
    above it, and that percentile."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_SAMPLES_ABOVE:
        return ordered[-1], 100.0
    return ordered[count - TAIL_SAMPLES_ABOVE - 1], 100.0 * (count - TAIL_SAMPLES_ABOVE) / count


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict[str, float], float]:
    tail_s, tail_pct = tail(phase.latencies)
    values = {
        "ops_per_s": len(phase.latencies) / phase.op_seconds,
        "latency_p50_ms": statistics.median(phase.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(phase.failures) / len(phase.latencies),
    }
    return values, tail_pct


def per_layer(
    tracer: tracing.Tracer, instrument: tracing.Instrument, traced: Phase, untraced: Phase,
    import_time_ms: float,
) -> dict[str, tuple[float, str]]:
    total, own = tracer.totals()
    op_ms = total["op"] * 1e3
    out: dict[str, tuple[float, str]] = {"cli.import_ms": (import_time_ms, "ms")}
    layer_ms = {
        name: (total if name == "extraction.extract" else own).get(name, 0.0) * 1e3
        for name in tracing.LAYERS
    }
    layer_ms["extraction.extract_self"] = own.get("extraction.extract", 0.0) * 1e3
    for name, ms in layer_ms.items():
        out[f"{name}_ms"] = (ms, "ms")
        out[f"{name}_pct"] = (100.0 * ms / op_ms, "%")
    out["model_io.read_input_mb"] = (
        tracer.counters.get("model_io.read_input_bytes", 0.0) / 2**20, "MiB"
    )
    out["extraction.transform_peak_mb"] = (instrument.transform_peak_bytes / 2**20, "MiB")
    traced_rate = len(traced.latencies) / traced.op_seconds
    untraced_rate = len(untraced.latencies) / untraced.op_seconds
    out["trace.op_total_ms"] = (op_ms, "ms")
    out["trace.ops_per_s"] = (traced_rate, "1/s")
    out["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    out["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / untraced_rate), "%")
    return out


def environment(args: argparse.Namespace, ops: list[workloads.Op], phases: list[Phase]) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas: dict = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    run_counts: collections.Counter[int] = collections.Counter()
    for phase in phases:
        run_counts.update(phase.by_qubits)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "ops_per_pass_by_qubits": dict(sorted(collections.Counter(op.n for op in ops).items())),
        "ops_run_by_qubits": dict(sorted(run_counts.items())),
    }


# ---------------------------------------------------------------------------
# entry points


def _print_end_to_end(
    values: dict[str, float], tail_pct: float, phase: Phase, setups: int
) -> None:
    samples = len(phase.latencies)
    counts = {
        "ops_per_s": f"{samples} ops in {phase.op_seconds:.3f} s of op time",
        "latency_p50_ms": f"{samples} samples",
        "latency_tail_ms": f"p{tail_pct:.2f}, {samples} samples",
        "setup_s": f"median of {setups} set-ups",
        "peak_rss_mb": "ru_maxrss of this process",
        "fail_ratio": f"{len(phase.failures)} of {samples} ops failed",
    }
    print("end-to-end (untraced run):")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<18} {values[name]:>14.6g} {unit:<6} ({counts[name]})")


def _print_layers(layers: dict[str, tuple[float, str]]) -> None:
    print("per-layer (traced run):")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    leaves = [n for n in tracing.LAYERS if n not in ("extraction.extract", "model_io.read_model",
                                                   "model_io.chain_parse")]
    leaves.append("extraction.extract_self")
    ranked = sorted(leaves, key=lambda n: -layers[f"{n}_pct"][0])
    print("  largest shares of op time: " + ", ".join(
        f"{n} {layers[f'{n}_pct'][0]:.1f}%" for n in ranked[:3]))
    print(f"  tracing overhead: traced {layers['trace.ops_per_s'][0]:.6g} ops/s against "
          f"untraced {layers['trace.untraced_ops_per_s'][0]:.6g} ops/s "
          f"({layers['trace.overhead_pct'][0]:.2f}%)")


def run_workload(args: argparse.Namespace) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ops, setup_s = setup(args.workload, args.seed, work, args.smoke)
        if args.setup_only:
            print(setup_s)
            return 0
        samples = [setup_s] if args.smoke else [
            child_setup_seconds(args) for _ in range(SETUP_SAMPLES)
        ]
        setup_median = statistics.median(samples)
        untraced = untraced_loop(ops, args.seconds)
        values, tail_pct = end_to_end(untraced, setup_median)
        phases = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            traced, instrument = traced_loop(ops, args.seconds, tracer)
            phases.append(traced)
            layers = per_layer(tracer, instrument, traced, untraced, import_ms())
        env = environment(args, ops, phases)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "setup_samples_s": samples,
              "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
              "latency_tail_percentile": tail_pct,
              "latencies_s": {"op_names": [op.name for op in ops],
                              "position": untraced.positions, "seconds": untraced.latencies},
              "failures": [f for p in phases for f in p.failures][:50]}
    print(f"workload {args.workload}, seed {args.seed}, closed loop with 1 client, "
          f"{THREADS} BLAS thread")
    print("environment: " + json.dumps(env, sort_keys=True))
    _print_end_to_end(values, tail_pct, untraced, len(samples))
    if args.trace:
        _print_layers(layers)
        tracer.write(OUT_DIR / f"{stem}-spans.json")
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        metrics = record["per_layer"]
    else:
        metrics = {k: v for k, v in record["end_to_end"].items() if k != "fail_ratio"}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; prints their results in turn."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    args = parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
