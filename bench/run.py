"""Benchmark of filament-prng: one workload per run.

    python3 bench/run.py --workload generate-bulk --seed 1 --seconds 12 --trace 0

The run builds the workload's operations from the seed and imports the
package from src/ of the checkout this file sits in.  One closed-loop client
without threads calls `filament_prng.cli.main(argv)` in-process, one
operation after another, in passes over the operation list until --seconds
have elapsed (at least one pass).  Outputs go to a scratch directory under
.bench_out/ and are checked after the timed passes.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics; its spans are written to
.bench_out/trace-<workload>.npz when the run ends.  The last line of
standard output is the JSON result; provenance and the argv of every
operation go to .bench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import loader
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


@dataclass
class OpRun:
    """One timed invocation."""

    index: int
    seconds: float
    rc: int | None
    stdout: str
    path: Path
    error: str = ""


@dataclass
class Pass:
    wall: float
    runs: list
    tracer: tracing.Tracer | None = None
    warm_up: bool = False  # checked, but left out of the metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(scratch: Path) -> float:
    """Wall time of a fresh interpreter importing the package and making the
    warm-up calls."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "loader.py"), str(SRC), str(scratch)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise loader.SetupError(proc.stderr.strip() or f"exit code {proc.returncode}")
    return elapsed


def run_op(cli, index: int, op: workloads.Op, path: Path) -> OpRun:
    argv = [str(path) if arg == workloads.OUT else arg for arg in op.argv]
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an escaping exception is a failed operation
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    return OpRun(index, seconds, rc, out.getvalue(), path, error or err.getvalue())


def run_pass(modules: dict, ops: list, scratch: Path, number: int, traced: bool) -> Pass:
    gc.collect()
    tracer = tracing.Tracer() if traced else None
    runs = []
    t0 = time.perf_counter()
    if tracer is None:
        for i, op in enumerate(ops):
            runs.append(run_op(modules["cli"], i, op, scratch / f"p{number}-{i}.out"))
    else:
        with tracer.installed(modules):
            for i, op in enumerate(ops):
                with tracer.span(tracing.ROOT):
                    runs.append(run_op(modules["cli"], i, op, scratch / f"p{number}-{i}.out"))
    return Pass(time.perf_counter() - t0, runs, tracer)


def run_passes(modules: dict, ops: list, scratch: Path, seconds: float, trace: bool) -> list:
    """Closed loop: passes back to back until `seconds` have elapsed.  A
    traced run alternates an untraced and a traced pass, after one untimed
    pass that grows the heap, so that a fresh process's first-pass cost does
    not land on one side of trace.overhead_frac."""
    passes = []
    if trace:
        passes.append(run_pass(modules, ops, scratch, 0, traced=False))
        passes[0].warm_up = True
    untimed = len(passes)
    t0 = time.perf_counter()
    while len(passes) == untimed or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(modules, ops, scratch, len(passes), traced=False))
        if trace:
            passes.append(run_pass(modules, ops, scratch, len(passes), traced=True))
    return passes


def check_runs(ops: list, passes: list) -> list[str]:
    """Failure messages, one per failed operation.  Outputs are checked once
    per distinct content: a deterministic program writes the same bytes on
    every pass, and a changed byte gets its own check."""
    verdicts: dict = {}
    failures = []
    for number, p in enumerate(passes):
        for run in p.runs:
            op = ops[run.index]
            if run.rc != 0:
                failures.append(f"pass {number} {op.name}: exit {run.rc} {run.error.strip()[-500:]}")
                continue
            content = hashlib.sha256(run.path.read_bytes()).hexdigest() if run.path.exists() else None
            key = (run.index, content, run.stdout)
            if key not in verdicts:
                verdicts[key] = verdict(op, run)
            run.path.unlink(missing_ok=True)
            if verdicts[key] is not None:
                failures.append(f"pass {number} {op.name}: {verdicts[key]}")
    return failures


def verdict(op: workloads.Op, run: OpRun) -> str | None:
    """None when the output passes its check, else the reason it fails."""
    try:
        checks.check(op.expect, run.path, run.stdout)
    except checks.CheckFailed as exc:
        return str(exc)
    except Exception:  # malformed output can break a parser: still a failure
        return "output not checkable: " + traceback.format_exc(limit=1).strip()
    return None


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end_metrics(ops, passes, setup_samples, peak_rss_mb) -> dict:
    items = sum(op.items for op in ops)
    latencies = [run.seconds for p in passes for run in p.runs]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "items_per_s": (statistics.median(items / p.wall for p in passes), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p99_s": (percentile(latencies, 99), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(ops, passes) -> dict:
    plain = [p for p in passes if p.tracer is None and not p.warm_up]
    traced = [p for p in passes if p.tracer is not None]
    per_pass = [tracing.layer_metrics(p.tracer) for p in traced]
    out = {name: (statistics.median(m[name] for m in per_pass), unit)
           for name, unit in tracing.LAYER_UNITS.items()}
    for name in workloads.named_ops():
        if name in (op.name for op in ops):
            index = next(i for i, op in enumerate(ops) if op.name == name)
            seconds = statistics.median(p.runs[index].seconds for p in plain)
        else:
            seconds = 0.0  # the operation belongs to another workload
        out[f"op.{name}_s"] = (seconds, "s")
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
    out["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    return out


def git_describe() -> str | None:
    """`git describe` of the checkout; None outside a git work tree, as in a
    source export."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which also works without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / loader.PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, ops) -> dict:
    argv = [list(op.argv) for op in ops]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_describe": git_describe(),
        "source_sha256": source_digest(),
        "package_version": sys.modules[loader.PACKAGE].__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "operations": len(ops),
        "argv_sha256": hashlib.sha256(json.dumps(argv).encode()).hexdigest(),
        "argv": argv,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("FILAMENT_PRNG_THREADS", None)  # the default single worker
    ops = workloads.build(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as scratch:
            scratch = Path(scratch)
            setup_samples = [] if args.trace else [probe_setup(scratch)
                                                   for _ in range(SETUP_PROBES)]
            modules = loader.load(SRC)
            loader.warm_up(modules["cli"], scratch)
            passes = run_passes(modules, ops, scratch, args.seconds, bool(args.trace))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failures = check_runs(ops, passes)
    except (loader.SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = per_layer_metrics(ops, passes)
        write_spans(OUT_DIR / f"trace-{args.workload}.npz", passes)
    else:
        metrics = end_to_end_metrics(ops, passes, setup_samples, peak_rss_mb)
    attempted = sum(len(p.runs) for p in passes)
    info = provenance(args, ops)
    record = {
        "provenance": info,
        "passes": [{"traced": p.tracer is not None, "warm_up": p.warm_up, "wall_s": p.wall,
                    "op_seconds": [run.seconds for run in p.runs]} for p in passes],
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["setup_samples_s"] = setup_samples
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    summary = {k: v for k, v in info.items() if k != "argv"}
    print("provenance " + json.dumps(summary))
    print(f"passes {len(passes)}, operations {attempted}, latency samples "
          f"{sum(len(p.runs) for p in passes if p.tracer is None and not p.warm_up)}, "
          f"error_rate {record['error_rate']}, record {result_path.relative_to(ROOT)}")
    for message in failures[:20]:
        print("FAILED " + message)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def write_spans(path: Path, passes: list) -> None:
    arrays = {}
    for number, p in enumerate(passes):
        if p.tracer is not None:
            for field, values in p.tracer.arrays().items():
                arrays[f"pass{number}_{field}"] = values
            arrays[f"pass{number}_names"] = np.array(p.tracer.names)
    np.savez(path, **arrays)


if __name__ == "__main__":
    sys.exit(main())
