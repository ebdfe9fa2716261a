import io
import json
import math
import os
import stat
import struct
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filament_prng import cli, prng, serialize, stattest
from filament_prng.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from filament_prng.filament import PolygonConfig, RationalTime, build_polygon, circle_row, corner_angle
from filament_prng.prng import (
    StreamSpec,
    compound_stream,
    eicg_pow2_stream,
    eicg_stream,
    lcg_stream,
    randu_preset,
    vfe_unit_samples,
)
from filament_prng.serialize import f64le_bytes, table_csv, table_json
from filament_prng.verify import SuiteResult

from helpers import table_csv_by_rows, table_json_by_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_eicg_permutation_column(capsys):
    code, out, _ = run(
        capsys, "generate", "--kind", "eicg", "-q", "7", "-a", "1", "-b", "0", "-n", "7"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,x,u"
    xs = [int(line.split(",")[1]) for line in lines[1:]]
    us = [float(line.split(",")[2]) for line in lines[1:]]
    assert sorted(xs) == list(range(7))
    assert us == [x / 7 for x in xs]


def test_generate_lcg_randu_preset(capsys):
    code, out, _ = run(
        capsys, "generate", "--kind", "lcg", "--preset", "randu", "-n", "3"
    )
    assert code == EXIT_OK
    xs = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert xs == [1, 65539, 393225]


def test_generate_vfe_circle_points(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "vfe", "-M", "3", "-q", "101")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "p,re,im"
    assert len(lines) == 1 + 100  # phi(101) points


def test_generate_vfe_honours_count_and_start(capsys):
    _, full, _ = run(capsys, "generate", "--kind", "vfe", "-q", "101")
    full = full.splitlines()
    code, out, _ = run(capsys, "generate", "--kind", "vfe", "-q", "101", "-n", "3", "--start", "7")
    assert code == EXIT_OK
    assert out.splitlines() == [full[0]] + full[8:11]  # data rows 8 to 10
    _, head, _ = run(capsys, "generate", "--kind", "vfe", "-q", "101", "--start", "0", "-n", "40")
    _, tail, _ = run(capsys, "generate", "--kind", "vfe", "-q", "101", "--start", "40")
    assert head.splitlines() + tail.splitlines()[1:] == full
    code, out, _ = run(capsys, "stats", "chi2", "--kind", "vfe", "-q", "101", "-n", "5")
    assert code == EXIT_OK
    assert json.loads(out)["samples"] == 5


def test_generate_compound_json(capsys):
    code, out, _ = run(
        capsys,
        "generate", "--kind", "compound", "--primes", "5,7", "-n", "3",
        "--format", "json",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0] == {"n": 1, "u": 3 / 35}


def test_generate_f64le(tmp_path, capsys):
    target = tmp_path / "stream.f64le"
    code, _, _ = run(
        capsys,
        "generate", "--kind", "eicg", "-q", "11", "-n", "11",
        "--format", "f64le", "-o", str(target),
    )
    assert code == EXIT_OK
    raw = target.read_bytes()
    values = struct.unpack(f"<{len(raw) // 8}d", raw)
    expected = eicg_stream(StreamSpec.eicg(11, 4, 0), 11).u.tolist()
    assert list(values) == expected


def test_generate_missing_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--kind", "eicg")
    assert code == EXIT_USAGE
    assert "missing required option -q" in err


def test_generate_composite_eicg_modulus(capsys):
    code, _, err = run(capsys, "generate", "--kind", "eicg", "-q", "10", "-n", "5")
    assert code == EXIT_USAGE
    assert "not prime" in err


def test_bad_subcommand_usage_exit(capsys):
    assert main(["bogus"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # moduli beyond MAX_MODULUS = 2**31, for every stream kind
        "generate --kind eicg -q 4294967311",
        "generate --kind eicg-pow2 --omega 80",
        "generate --kind lcg -a 3 -b 1 -q 4294967296 -n 3",
        "generate --kind compound --primes 5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61 -n 3",
        "stats serial --kind eicg-pow2 --omega 32",
        "verify compound --primes 5,7,11,13,17,19,23,29,31 --pmax 10",
        # malformed values
        "generate --kind lcg -a 3 -b 1 -q 0 -n 3",
        "stats chi2 --kind eicg -q 101 --bins 1",
        "stats chi2 --kind eicg -q 101 --bins 200",
        # bin counts beyond the quantile table, refused before the stream is built
        "stats chi2 --kind eicg -q 101 --bins 1000000000000",
        "stats chi2 --kind eicg -q 101 --bins 100000000000000000000",
        "generate --kind eicg -q 101 -n -5",
        "generate --kind eicg -q 101 --start -1",
        "stats randu-planes -n -5",
        "stats randu-planes -n 2",
        "stats serial -k 3 --kind eicg -q 4093",
        "generate --kind vfe -q 0",
        "polygon -q 0",
        "polygon -q 3 -p -1",
        "polygon -M 3 -q 2147483647",
        "generate --kind eicg-pow2 --omega -1 -n 2",
        "generate --kind eicg-pow2 -q 100 -n 2",
        "generate --kind eicg-pow2 --omega 6 -q 100 -n 2",
        # stream indices beyond int64, refused before any work
        "generate --kind eicg -q 101 -n 2 --start 9223372036854775807",
        "generate --kind eicg-pow2 --omega 6 -n 2 --start 9223372036854775807",
        "generate --kind eicg -q 101 -n 2 --start 100000000000000000000",
        "generate --kind eicg-pow2 --omega 6 -n 2 --start 100000000000000000000",
        "generate --kind lcg -a 3 -b 1 -q 101 --start 9223372036854775808 -n 1",
        "generate --kind compound --primes 5,7 --start 9223372036854775808 -n 1",
        # its last admissible p, near 35/24 of the start, passes int64
        "generate --kind compound --primes 5,7 --start 9223372036854775000 -n 4",
        # polygon sweeps beyond the corner budget, refused before any work
        "verify closure -M 1000000000 --qmax 6",
        "verify theorem1 -M 3..1000000000 --qmax 6",
        # beyond the stream sample budget, refused before any allocation
        "generate --kind eicg -q 101 -n 1099511627776",
        "generate --kind lcg -a 3 -b 1 -q 101 -n 1099511627776",
        "generate --kind compound --primes 5,7 -n 1099511627776",
        "generate --kind eicg -q 2147483647",
        "generate --kind eicg-pow2 --omega 31",
        "generate --kind vfe -q 2147483647 -n 1",
        "stats randu-planes -n 1099511627776",
        "verify compound --pmax 100000000",
        # sweeps beyond the whole-sweep work budget, refused before any work
        "verify gauss --qmax 100000",
        "verify closure -M 3 --qmax 300000",
        # a dimension beyond the exact scan, refused before its lags are listed
        "stats serial -q 101 -k 5000000",
        # sweeps whose parameters leave no case to check
        "verify gauss --qmax 0",
        "verify theorem1 --qmax 0",
        "verify closure -M 5..3",
        # empty sides ranges whose q loop would be long, refused before it
        "verify theorem1 -M 4..3 --qmax 262144",
        "verify closure -M 0..-1 --qmax 1000000000",
        "verify closure --qmax -5",
        "verify compound --pmax 0",
        # an empty prime list, refused rather than read as the default sets
        "verify compound --primes , --pmax 100",
    ],
)
def test_usage_errors_exit_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert len(err) < 200


def test_invariant_failure_exits_3_without_traceback(capsys, monkeypatch):
    window = prng.compound_window

    def broken(*args):
        stream, residual = window(*args)
        return stream, np.ones(len(residual))

    monkeypatch.setattr(prng, "compound_window", broken)
    code, out, err = run(capsys, "generate", "--kind", "compound", "--primes", "5,7", "-n", "3")
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "error: circle-product identity violated at p=1 for primes (5, 7)\n"


def test_randu_invariant_failure_exits_3_without_traceback(capsys, monkeypatch):
    def broken(spec, count, start=0):
        stream = prng.lcg_stream(spec, count, start)
        stream.x[50] += 1
        return stream

    monkeypatch.setattr(stattest, "lcg_stream", broken)
    code, out, err = run(capsys, "stats", "randu-planes", "-n", "100")
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "error: RANDU three-term recurrence violated\n"


def test_randu_state_out_of_range_exits_3_without_traceback(capsys, monkeypatch):
    # A state raised by the modulus keeps every combination a multiple of it,
    # so only the state range check sees it.
    def broken(spec, count, start=0):
        stream = prng.lcg_stream(spec, count, start)
        stream.x[50] += 2**31
        return stream

    monkeypatch.setattr(stattest, "lcg_stream", broken)
    code, out, err = run(capsys, "stats", "randu-planes", "-n", "1000")
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "error: RANDU state outside [0, 2^31)\n"


def test_polygon_triangle(capsys):
    code, out, _ = run(capsys, "polygon", "-M", "3", "-q", "1", "-p", "0")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "index,x,y,z"
    assert len(lines) == 1 + 3
    first = [float(v) for v in lines[1].split(",")[1:]]
    assert first == [0.0, 0.0, 0.0]


def test_polygon_counts(capsys):
    code, out, _ = run(capsys, "polygon", "-M", "5", "-q", "3", "-p", "1")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 1 + 15
    code, out, _ = run(capsys, "polygon", "-M", "4", "-q", "2", "-p", "1")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 1 + 4


def test_polygon_sides_equal_including_wrap(capsys):
    code, out, _ = run(capsys, "polygon", "-M", "5", "-q", "3", "-p", "1")
    verts = [
        [float(v) for v in line.split(",")[1:]]
        for line in out.strip().splitlines()[1:]
    ]
    ell = 2 * math.pi / 15
    for a, b in zip(verts, verts[1:] + verts[:1]):
        assert math.dist(a, b) == pytest.approx(ell, abs=1e-9)


def test_stats_serial_json(capsys):
    code, out, _ = run(
        capsys, "stats", "serial", "--kind", "eicg", "-q", "101", "-k", "2"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["n"] == 101
    assert payload["k"] == 2
    assert payload["lags"] == [0, 1]
    assert payload["extreme_upper"] <= payload["theorem2_upper"]


def test_stats_serial_vfe_kind(capsys):
    code, out, _ = run(
        capsys, "stats", "serial", "--kind", "vfe", "-q", "101", "-k", "2",
        "--lags", "0,1",
    )
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 100


def test_stats_serial_refuses_beyond_the_exact_scan_before_the_stream(capsys, monkeypatch):
    # 2^24 - 3 samples fit the stream budget but not the scan's counts: the
    # refusal comes before any window of the stream is built
    def unreached(*args):
        raise AssertionError("stream window built")

    monkeypatch.setattr(cli, "eicg_stream", unreached)
    code, out, err = run(capsys, *"stats serial --kind eicg -q 16777213 -k 2".split())
    assert code == EXIT_USAGE and out == ""
    assert "N <= 32767" in err


def test_stats_serial_point_limit_at_k2(capsys):
    # the full-period lattice of the primitive root 20245 mod 32749, the
    # cloud the block bounds cannot prune, at the point limit and past it
    lcg = "stats serial --kind lcg -q 32749 -a 20245 -b 0 -k 2 --lags 0,1".split()
    code, out, _ = run(capsys, *lcg, "-n", "32767")
    assert code == EXIT_OK and json.loads(out)["n"] == 32767
    code, out, err = run(capsys, *lcg, "-n", "32768")
    assert code == EXIT_USAGE and out == "" and "N <= 32767" in err


def test_stats_randu_planes(capsys):
    code, out, _ = run(capsys, "stats", "randu-planes", "-n", "100000")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["samples"] == 100000
    assert 1 <= payload["planes"] <= 15


def test_stats_chi2(capsys):
    code, out, _ = run(
        capsys,
        "stats", "chi2", "--kind", "vfe", "-M", "3", "-q", "1009", "--bins", "20",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["bins"] == 20
    assert payload["statistic"] < payload["chi2_quantile_999"]


def test_verify_small_sweeps(capsys):
    code, out, _ = run(capsys, "verify", "gauss", "--qmax", "40")
    assert code == EXIT_OK
    assert "gauss-magnitude" in out and "gauss-closed" in out
    code, out, _ = run(
        capsys, "verify", "theorem1", "-M", "3..4", "--qmax", "10"
    )
    assert code == EXIT_OK
    assert "theorem1" in out and "pass" in out
    code, out, _ = run(capsys, "verify", "closure", "-M", "3..5", "--qmax", "12")
    assert code == EXIT_OK
    code, out, _ = run(
        capsys, "verify", "compound", "--primes", "5,7", "--pmax", "200"
    )
    assert code == EXIT_OK


def test_verify_exit_code_on_failure():
    failing = SuiteResult(name="synthetic", cases=1, max_error=1.0, tolerance=1e-9)
    assert not failing.passed
    # cmd_verify maps any failed suite to the dedicated exit code
    assert EXIT_VERIFY == 3


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "generate", "--kind", "vfe", "-M", "3", "-q", "101", "-o", str(target),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_table_csv_floats_round_trip():
    values = [1 / 3, 0.1, 2**-52, 1.0, 9.87654321e300]
    text = table_csv({"u": np.array(values)})
    assert [float(cell) for cell in text.splitlines()[1:]] == values


def test_unit_samples_csv_x_column_exact():
    samples = eicg_stream(StreamSpec.eicg(101, 4, 0), 101)
    text = table_csv({"n": samples.n, "x": samples.x, "u": samples.u})
    for line in text.strip().splitlines()[1:]:
        n, x, u = line.split(",")
        assert int(x) == round(float(u) * 101)
    assert text.endswith("\n")


def test_table_json_is_json_dumps_layout():
    columns = {"n": np.array([0, 7]), "x": np.array([3, -2]), "u": np.array([0.1, 1e-300])}
    rows = [{"n": 0, "x": 3, "u": 0.1}, {"n": 7, "x": -2, "u": 1e-300}]
    assert table_json(columns) == json.dumps(rows, indent=2) + "\n"
    assert table_json({"p": np.array([], dtype=np.int64)}) == "[]\n"


def _awkward_columns(rows: int, special_floats: list[float]) -> dict[str, np.ndarray]:
    """An index column, the int64 extremes cycled, and the special doubles
    followed by seeded doubles of every decade; two names hold a '%'."""
    ints = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1]
    rng = np.random.default_rng(rows)
    n = np.arange(rows, dtype=np.int64)
    x = np.resize(np.array(ints, dtype=np.int64), rows)
    u = rng.random(rows) * 10.0 ** rng.integers(-300, 300, rows)
    u[: len(special_floats)] = special_floats[:rows]
    return {"n": n, "x%d": x, "u%s 100%": u}


def _assert_same_lines(text: str, expected: str) -> None:
    """Equal texts, checked line by line: pytest's diff of two whole tables
    would take minutes to explain a failure."""
    got, want = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    for number, (line, expected_line) in enumerate(zip(got, want)):
        assert line == expected_line, f"line {number}"
    assert len(got) == len(want)


_BLOCK_EDGES = [0, 1, serialize._BLOCK_ROWS - 1, serialize._BLOCK_ROWS,
                serialize._BLOCK_ROWS + 1, 2 * serialize._BLOCK_ROWS + 1]
_SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, 1 / 3, 0.1, 2**-52, 9.87654321e300, 1e-300]


@pytest.mark.parametrize("rows", _BLOCK_EDGES)
def test_table_csv_matches_row_oracle_across_blocks(rows):
    columns = _awkward_columns(rows, _SPECIAL_FLOATS + [math.nan, math.inf, -math.inf])
    _assert_same_lines(table_csv(columns), table_csv_by_rows(columns))


@pytest.mark.parametrize("rows", _BLOCK_EDGES)
def test_table_json_matches_row_oracle_across_blocks(rows):
    columns = _awkward_columns(rows, _SPECIAL_FLOATS)
    _assert_same_lines(table_json(columns), table_json_by_rows(columns))


@pytest.mark.parametrize("writer", [table_csv, table_json])
def test_table_writers_memory_is_a_small_multiple_of_output(writer):
    # A writer that builds a string and a tuple per row peaks at 3.8 (json)
    # to 6.3 (csv) times its output here; blocks and one join peak at 2.4
    # and 2.9, the block's cells being a fixed cost on top of the output.
    rows = 2**16
    n = np.arange(rows, dtype=np.int64)
    x = (n * 7919 + 5) % 65537
    columns = {"n": n, "x": x, "u": x / 65537}
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = writer(columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 3.25 * len(text)


def test_f64le_bytes_layout():
    payload = f64le_bytes([0.5, 0.25])
    assert payload == struct.pack("<2d", 0.5, 0.25)


# Pools of the argv property test: (valid values, malformed or out-of-range
# values) per option.
MODULI = ([7, 101], [-1, 0, 1, 4, 64, 2**31 - 1, 2**31, 2**31 + 1, 10**20])
COUNTS = ([0, 1, 5, 256], [-1, 2**40, 2**64, 10**20])
STARTS = ([0, 3], [-1, 2**63 - 1, 2**63, 10**20])
SIDES = ([3, 5], [-1, 2, 10**9])
A_VALUES = ([2, 6], [-1, 0, 1, 10**20])
B_VALUES = ([1, 3], [-1, 0, 2, 10**20])
OMEGAS = ([5, 6], [-1, 0, 4, 32, 80])
PRIME_LISTS = (["5,7", "11,13,17"], [",", "x", "4,7", "5,5", "5,7,11,13,17,19,23,29,31,37,41"])
SIDE_RANGES = (["3", "3..4"], ["2..3", "4..3", "1000000000", "3..1000000000", "x"])
LAGS = (["0,1", "0,2,5"], ["1,0", "0", "0,0", "x"])
KS = ([1, 2, 3], [-1, 0, 4, 200, 10**9])
BINS = ([2, 20], [-3, 1, 200, 10**12])
QMAX = ([1, 6, 8], [-5, 0])
PMAX = ([10, 50], [-1, 0])
# Options each stream kind needs to run.
NEEDED = {
    "vfe": {"-q"},
    "eicg": {"-q"},
    "eicg-pow2": {"--omega"},
    "lcg": {"-a", "-b", "-q", "-n"},
    "compound": {"--primes", "-n"},
}


@st.composite
def argvs(draw):
    """One argv for any subcommand and stream kind, drawn from the pools.

    In about half the examples every option takes a valid value, the
    options a command needs are present and a verify suite gets only the
    options it reads; in the rest any option may be missing or take any
    pooled value.
    """
    valid = draw(st.booleans())

    def option(flag, pool, needed=False, always=False):
        """[flag, value], or [] for an option left out.  An option the
        command needs is given in every valid example, an `always` option
        in every example."""
        if not always and not (valid and needed) and draw(st.booleans()):
            return []
        values = pool[0] if valid else pool[0] + pool[1]
        return [flag, str(draw(st.sampled_from(values)))]

    command = draw(st.sampled_from(["generate", "serial", "chi2", "randu-planes", "verify", "polygon"]))
    if command == "verify":
        suite = draw(st.sampled_from(["gauss", "theorem1", "closure", "compound", "all"]))

        def given(*readers):  # a valid example gives only the options its suite reads
            return not valid or suite in readers + ("all",)

        return (
            ["verify", suite]
            + (option("--qmax", QMAX, always=True) if given("gauss", "theorem1", "closure") else [])
            + (option("--pmax", PMAX, always=True) if given("compound") else [])
            + (option("-M", SIDE_RANGES) if given("theorem1", "closure") else [])
            + (option("--primes", PRIME_LISTS) if given("compound") else [])
        )
    if command == "polygon":
        return (
            ["polygon"]
            + option("-M", SIDES)
            + option("-q", MODULI, needed=True)
            + option("-p", ([1], [-1, 0, 2, 3]))
            + option("--format", (["csv", "json"], []))
        )
    if command == "randu-planes":
        return ["stats", "randu-planes"] + option("-n", ([3, 256], COUNTS[0] + COUNTS[1]), always=True)
    kind = draw(st.sampled_from(sorted(NEEDED)))
    needed = NEEDED[kind]
    argv = [command] if command == "generate" else ["stats", command]
    argv += (
        ["--kind", kind]
        + option("-M", SIDES)
        + option("-q", MODULI, "-q" in needed)
        + option("-a", A_VALUES, "-a" in needed)
        + option("-b", B_VALUES, "-b" in needed)
        + option("--x0", ([0, 5], [-1, 10**20]))
        + option("--omega", OMEGAS, "--omega" in needed)
        + option("--primes", PRIME_LISTS, "--primes" in needed)
        + option("-n", COUNTS, "-n" in needed)
        + option("--start", STARTS)
    )
    if command == "generate":
        return argv + option("--format", (["csv", "json", "f64le"], []))
    if command == "serial":
        return argv + option("-k", KS) + option("--lags", LAGS)
    return argv + option("--bins", BINS)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argvs())
def test_every_argv_exits_with_a_code_and_no_traceback(argv):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # f64le writes bytes
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_IO, EXIT_USAGE, EXIT_VERIFY)


# --- windowed emission: generate and polygon write one window at a time ---

W = serialize._BLOCK_ROWS
_WINDOW_COUNTS = [0, 1, W - 1, W, W + 1, 2 * W + 1]
_WINDOW_STREAMS = {
    "eicg": "--kind eicg -q 65537 -a 17 -b 5",
    "eicg-pow2": "--kind eicg-pow2 --omega 16",
    "lcg": "--kind lcg --preset randu",
    "compound": "--kind compound --primes 5,7",
    "vfe": "--kind vfe -M 3 -q 65537",
}


def _one_shot(kind: str, start: int, count: int) -> tuple[dict, np.ndarray]:
    """The table columns and the f64le floats of one whole-stream call."""
    if kind == "vfe":
        stream = vfe_unit_samples(65537, start, count)
        points = circle_row(corner_angle(3, 65537), stream.u)
        floats = np.column_stack([points.real, points.imag]).ravel()
        return {"p": stream.n, "re": points.real, "im": points.imag}, floats
    stream = {
        "eicg": lambda: eicg_stream(StreamSpec.eicg(65537, 17, 5), count, start),
        "eicg-pow2": lambda: eicg_pow2_stream(StreamSpec.eicg_pow2(16), count, start),
        "lcg": lambda: lcg_stream(randu_preset(), count, start),
        "compound": lambda: compound_stream(3, (5, 7), count, start),
    }[kind]()
    columns = {"n": stream.n, "x": stream.x, "u": stream.u}
    if kind == "compound":
        del columns["x"]
    return columns, stream.u


@pytest.mark.parametrize("start", [0, 12345])
@pytest.mark.parametrize("count", _WINDOW_COUNTS)
@pytest.mark.parametrize("kind", sorted(_WINDOW_STREAMS))
def test_windowed_generate_is_the_whole_table_of_one_stream_call(tmp_path, kind, count, start):
    columns, floats = _one_shot(kind, start, count)
    expected = {"csv": table_csv(columns).encode(), "json": table_json(columns).encode(),
                "f64le": f64le_bytes(floats)}
    for fmt, payload in expected.items():
        target = tmp_path / fmt
        argv = ["generate", *_WINDOW_STREAMS[kind].split(), "-n", str(count),
                "--start", str(start), "--format", fmt, "-o", str(target)]
        assert main(argv) == EXIT_OK
        assert target.read_bytes() == payload, fmt


@pytest.mark.parametrize("sides,q", [(3, 5461), (4, 4096), (5, 3277), (3, 10923)])
def test_windowed_polygon_is_the_whole_table(tmp_path, sides, q):
    # M q vertices: W - 1, W, W + 1 and 2 W + 1
    vertices = build_polygon(PolygonConfig(sides, RationalTime(1, q)))
    columns = {"index": np.arange(len(vertices)), "x": vertices[:, 0],
               "y": vertices[:, 1], "z": vertices[:, 2]}
    for fmt, writer in (("csv", table_csv), ("json", table_json)):
        target = tmp_path / fmt
        argv = ["polygon", "-M", str(sides), "-q", str(q), "--format", fmt, "-o", str(target)]
        assert main(argv) == EXIT_OK
        assert target.read_bytes() == writer(columns).encode(), fmt


@pytest.mark.parametrize("writer", [table_csv, table_json])
def test_table_windows_concatenate_to_the_whole_table(writer):
    columns = _awkward_columns(2 * W + 3, _SPECIAL_FLOATS)
    for cuts in ([0, 1, 2 * W + 3], [0, W, W + 1, 2 * W + 3], [0, 2 * W + 3]):
        texts = [writer({name: column[lo:hi] for name, column in columns.items()},
                        first=lo == 0, last=hi == cuts[-1])
                 for lo, hi in zip(cuts, cuts[1:])]
        assert "".join(texts) == writer(columns), cuts
    assert writer({"p": np.array([], dtype=np.int64)}, first=True, last=True) == writer(
        {"p": np.array([], dtype=np.int64)})


def test_generate_peak_memory_is_one_window():
    # The stream and its text are made one window at a time, so sixteen
    # times the rows keep the same traced peak (about 6 MB, one window's
    # cells and text); a table built whole would need about 180 MB here.
    def peak(count: int) -> int:
        argv = ["generate", "--kind", "lcg", "--preset", "randu", "--format", "json",
                "-n", str(count), "-o", os.devnull]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert main(argv) == EXIT_OK
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top - before

    assert peak(2**20) <= 1.1 * peak(2**16)


def test_polygon_peak_memory_is_one_window():
    # Three times the sides at the same q: the same period of phases and
    # three times the corners (49176 and 147528, three and nine windows),
    # made one block of vertices at a time (about 9 MB traced at both); the
    # polygon built whole needed about 6 MB more at 147528 corners.
    def peak(sides: int) -> int:
        argv = ["polygon", "-M", str(sides), "-q", "683", "-o", os.devnull]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert main(argv) == EXIT_OK
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top - before

    assert peak(216) <= 1.1 * peak(72)


def test_written_windows_are_dropped_before_the_next():
    # -M 48 and -M 72 at q = 683 write 32784 and 49176 corners in three
    # windows each, the last of 16 and of 16392 rows.  A window held until
    # the whole output is written adds its text (about 1.2 MB) to the peak
    # of every later one.
    def peak(sides: int) -> int:
        argv = ["polygon", "-M", str(sides), "-q", "683", "-o", os.devnull]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert main(argv) == EXIT_OK
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top - before

    assert peak(72) <= peak(48) + 300_000


def _fail_in_second_window(monkeypatch) -> list:
    """Make the compound identity check pass on the first window and fail
    on every later one; returns the window lengths it saw."""
    calls = []
    window = prng.compound_window

    def failing(*args):
        stream, _ = window(*args)
        calls.append(len(stream))
        return stream, np.full(len(stream), 0.0 if len(calls) == 1 else 1.0)

    monkeypatch.setattr(prng, "compound_window", failing)
    return calls


_COMPOUND_TWO_WINDOWS = ["generate", "--kind", "compound", "--primes", "5,7", "-n", str(2 * W)]


def test_late_failure_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    calls = _fail_in_second_window(monkeypatch)
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, *_COMPOUND_TWO_WINDOWS, "-o", str(target))
    assert code == EXIT_VERIFY
    assert calls == [W, W]
    assert not target.exists()
    assert out == ""
    assert err.startswith("error: circle-product identity violated at p=")


def test_late_failure_on_stdout_leaves_the_first_window(capsys, monkeypatch):
    _fail_in_second_window(monkeypatch)
    code, out, _ = run(capsys, *_COMPOUND_TWO_WINDOWS)
    assert code == EXIT_VERIFY
    monkeypatch.undo()
    columns, _ = _one_shot("compound", 0, W)
    assert out == table_csv(columns, last=False)


def test_late_failure_unlinks_no_device(capsys, monkeypatch):
    removed = []
    monkeypatch.setattr(os, "unlink", removed.append)
    monkeypatch.setattr(os, "remove", removed.append)
    _fail_in_second_window(monkeypatch)
    code, _, _ = run(capsys, *_COMPOUND_TWO_WINDOWS, "-o", os.devnull)
    assert code == EXIT_VERIFY
    assert removed == []
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_late_failure_keeps_a_fifo(tmp_path, capsys, monkeypatch):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    _fail_in_second_window(monkeypatch)
    code, _, _ = run(capsys, *_COMPOUND_TWO_WINDOWS, "-o", str(fifo))
    reader.join(timeout=60)
    assert code == EXIT_VERIFY
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received[0].startswith(b"n,u\n1,")


@pytest.mark.parametrize(
    "argv",
    [
        "generate --kind eicg -q 101 -n 1099511627776",
        "generate --kind eicg -q 101 -n 40000 --start 9223372036854775000",
        "generate --kind compound --primes 4,7 -n 1099511627776",
        "generate --kind vfe -q 16777259 -n 20000",
        "generate --kind vfe -M 2 -q 65537",
    ],
)
def test_usage_errors_leave_no_file(tmp_path, capsys, argv):
    target = tmp_path / "out"
    code, _, err = run(capsys, *argv.split(), "-o", str(target))
    assert code == EXIT_USAGE, err
    assert not target.exists()


# A valid argv of each kind, with the stream flags it reads; every other
# stream flag is stray for it.
_KIND_READS = {
    "vfe -q 7": {"-q"},
    "eicg -q 7": {"-q", "-a", "-b"},
    "eicg-pow2 --omega 9": {"-a", "-b", "--omega"},
    "lcg -a 3 -b 1 -q 7 -n 4": {"-q", "-a", "-b", "--x0", "--preset"},
    "lcg --preset randu -n 4": {"--preset"},
    "compound --primes 5,7 -n 4": {"--primes"},
}
_STRAY_VALUES = {
    "-q": "7", "-a": "5", "-b": "2", "--x0": "3", "--omega": "9", "--preset": "randu", "--primes": "5,7",
}


@pytest.mark.parametrize(
    "kind,flag",
    [(kind, flag) for kind, reads in _KIND_READS.items() for flag in _STRAY_VALUES if flag not in reads],
)
def test_stray_stream_flags_are_refused(tmp_path, capsys, kind, flag):
    # a flag the kind does not read is refused by name, not dropped
    target = tmp_path / "out"
    assert run(capsys, "generate", "--kind", *kind.split(), "-o", str(target))[0] == EXIT_OK
    target.unlink()
    code, _, err = run(capsys, "generate", "--kind", *kind.split(), flag, _STRAY_VALUES[flag],
                       "-o", str(target))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.rstrip().endswith(f"does not read {flag}")
    assert not target.exists()


# Each verify suite with small values of the options it reads.
_SUITE_READS = {
    "gauss": ["--qmax", "5"],
    "theorem1": ["-M", "3..4", "--qmax", "5"],
    "closure": ["-M", "3..4", "--qmax", "5"],
    "compound": ["--primes", "5,7", "--pmax", "50"],
}
_VERIFY_VALUES = {"--qmax": "5", "-M": "3..4", "--primes": "5,7", "--pmax": "50"}


@pytest.mark.parametrize(
    "suite,flag",
    [(suite, flag) for suite, reads in _SUITE_READS.items() for flag in _VERIFY_VALUES if flag not in reads],
)
def test_stray_verify_options_are_refused(capsys, suite, flag):
    # an option the suite does not read is refused by name, not dropped
    assert run(capsys, "verify", suite, *_SUITE_READS[suite])[0] == EXIT_OK
    code, out, err = run(capsys, "verify", suite, *_SUITE_READS[suite], flag, _VERIFY_VALUES[flag])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: verify {suite} does not read {flag}\n"


def test_verify_all_reads_every_option(capsys):
    every = [part for pair in _VERIFY_VALUES.items() for part in pair]
    code, out, _ = run(capsys, "verify", "all", *every)
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5
