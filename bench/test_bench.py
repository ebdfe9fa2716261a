"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They check that a corrupted output counts as a failed operation, that every
output check rejects a corrupted output of its kind, the self-time
arithmetic on a synthetic span tree, that a seed fixes the argv lists, and
that BENCHMARK.json names exactly the metrics the runner reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loader
import run
import tracing
import workloads as wl


@pytest.fixture(scope="module")
def modules():
    return loader.load(run.SRC)


def _run(modules, op, path: Path) -> run.OpRun:
    result = run.run_op(modules["cli"], 0, op, path)
    assert result.rc == 0, result.error
    return result


# --- corruptions, one per output shape ---


def flip_x(path: Path) -> None:
    """Flip the lowest bit of x in the middle row of an (n, x, u) output."""
    text = path.read_text()
    if text.startswith("["):
        rows = json.loads(text)
        rows[len(rows) // 2]["x"] ^= 1
        path.write_text(json.dumps(rows))
    else:
        lines = text.split("\n")
        mid = len(lines) // 2
        n, x, u = lines[mid].split(",")
        lines[mid] = f"{n},{int(x) ^ 1},{u}"
        path.write_text("\n".join(lines))


def flip_f64(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[8 * (len(data) // 16)] ^= 1  # lowest mantissa bit of the middle value
    path.write_bytes(bytes(data))


def nudge_last_csv_column(path: Path) -> None:
    lines = path.read_text().split("\n")
    mid = len(lines) // 2
    head, _, last = lines[mid].rpartition(",")
    lines[mid] = f"{head},{float(last) + 1e-9!r}"
    path.write_text("\n".join(lines))


def edit_report(key: str, change):
    def corrupt(path: Path) -> None:
        report = json.loads(path.read_text())
        report[key] = change(report[key])
        path.write_text(json.dumps(report))
    return corrupt


CASES = {
    "eicg-csv": (wl.eicg_op("t", 101, 3, 7, "csv"), flip_x),
    "eicg-json": (wl.eicg_op("t", 1_000_003, 5, 2, "json", 64, 999_990), flip_x),
    "eicg-f64le": (wl.eicg_op("t", 101, 3, 7, "f64le"), flip_f64),
    "eicg-pow2-csv": (wl.eicg_pow2_op("t", 31, 6, 9, "csv", 64, 2**30 - 3), flip_x),
    "lcg-json": (wl.lcg_op("t", 69069, 12345, 2**31, 77, 64, "json", 5000), flip_x),
    "lcg-f64le": (wl.randu_op("t", 64, "f64le"), flip_f64),
    "compound-csv": (wl.compound_op("t", (5, 7), 64, "csv", 30), nudge_last_csv_column),
    "compound-f64le": (wl.compound_op("t", (11, 13), 64, "f64le", 3), flip_f64),
    "vfe-odd": (wl.vfe_op("t", 3, 101, "csv"), nudge_last_csv_column),
    "vfe-2mod4": (wl.vfe_op("t", 5, 2 * 53, "csv"), nudge_last_csv_column),
    "vfe-0mod4": (wl.vfe_op("t", 4, 4 * 27, "csv"), nudge_last_csv_column),
    "serial-k2": (wl.serial_op("t", 101, 3, 7, 2, (0, 5)),
                  edit_report("star", lambda v: v + 1e-9)),
    "serial-k3": (wl.serial_op("t", 53, 2, 1, 3, (0, 4, 9)),
                  edit_report("extreme_upper", lambda v: v * 0.5)),
    "chi2": (wl.chi2_op("t", 1009, 17), edit_report("statistic", lambda v: v + 0.5)),
    # 16 bins divide the period 1008: every bin holds 63 samples, chi2 = 0.
    "chi2-uniform": (wl.chi2_op("t", 1009, 16), edit_report("statistic", lambda v: v + 0.5)),
    "randu-planes": (wl.randu_planes_op("t", 1000), edit_report("planes", lambda v: v + 1)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_accepts_output_and_rejects_corruption(modules, tmp_path, case):
    op, corrupt = CASES[case]
    result = _run(modules, op, tmp_path / "out")
    assert run.verdict(op, result) is None
    corrupt(result.path)
    assert run.verdict(op, result) is not None


VERIFY_CASES = [
    wl.verify_op("t", "gauss", ["--qmax", "24"], wl.gauss_cases(24)),
    wl.verify_op("t", "theorem1", ["-M", "3..4", "--qmax", "12"], wl.theorem1_cases((3, 4), 12)),
    wl.verify_op("t", "closure", ["-M", "3..5", "--qmax", "12"], wl.closure_cases((3, 5), 12)),
    wl.verify_op("t", "compound", ["--primes", "101,103", "--pmax", "300"],
                 wl.compound_cases((101, 103), 300)),
]


@pytest.mark.parametrize("op", VERIFY_CASES, ids=lambda op: op.argv[1])
def test_verify_check_counts_cases_and_rejects_corruption(modules, tmp_path, op):
    result = _run(modules, op, tmp_path / "unused")
    assert run.verdict(op, result) is None
    first = result.stdout.splitlines()[0]
    for bad in (first.replace(" pass ", " FAIL "),
                first.replace("cases=", "cases=1", 1)):
        result.stdout = bad + result.stdout[len(first):]
        assert run.verdict(op, result) is not None


def test_flipped_x_counts_as_failed_operation(modules, tmp_path):
    ops = [wl.eicg_op("eicg", 101, 3, 7, "csv"), wl.randu_op("randu", 32, "csv")]
    passes = [run.run_pass(modules, ops, tmp_path, number, traced=False) for number in range(2)]
    flip_x(passes[1].runs[0].path)
    failures = run.check_runs(ops, passes)
    assert len(failures) == 1 and failures[0].startswith("pass 1 eicg: x wrong")


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7].
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]

    tracer = tracing.Tracer()
    tracer.names = [tracing.ROOT, "cli.main", "prng.eicg_stream", "modular.phi_p"]
    tracer.parent.extend([-1, 0, 1, 2, 1])
    tracer.name.extend([0, 1, 2, 3, 3])
    tracer.start.extend([0.0, 1.0, 2.0, 3.0, 6.0])
    tracer.end.extend([10.0, 9.0, 5.0, 4.0, 8.0])
    metrics = tracing.layer_metrics(tracer)
    # cli.main: 8 s minus children 3 s and 2 s; phi_p spans are leaves.
    assert metrics["cli.self_s"] == 3.0
    assert metrics["prng.self_s"] == 2.0
    assert metrics["modular.self_s"] == 3.0
    assert metrics["modular.calls"] == 2


def test_traced_pass_reports_layer_work(modules, tmp_path):
    ops = [wl.vfe_op("vfe", 3, 101, "json"), wl.lcg_op("lcg", 5, 3, 2**31, 1, 10, "csv", 30)]
    traced = run.run_pass(modules, ops, tmp_path, 0, traced=True)
    metrics = tracing.layer_metrics(traced.tracer)
    assert metrics["prng.samples"] == 100 + 10
    assert metrics["modular.calls"] >= 100  # one phi_p per circle point
    assert metrics["prng.lcg_skip_steps"] == 30
    assert metrics["prng.lcg_useful_frac"] == 10 / 40
    assert metrics["cli.emit_bytes"] == metrics["serialize.bytes"] > 0
    assert not hasattr(modules["cli"].main, "__wrapped__")  # patches are undone


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_seed_fixes_argv_lists(workload):
    first = [op.argv for op in wl.build(workload, 7)]
    assert first == [op.argv for op in wl.build(workload, 7)]
    assert first != [op.argv for op in wl.build(workload, 8)]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    end_to_end = run.end_to_end_metrics([wl.randu_op("t", 8, "csv")],
                                        [run.Pass(1.0, [run.OpRun(0, 1.0, 0, "", Path())])],
                                        [1.0], 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()}
    per_layer = dict(tracing.LAYER_UNITS)
    per_layer.update({f"op.{name}_s": "s" for name in wl.named_ops()})
    per_layer["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serial-stats", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
