import io
import json
import math
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filament_prng import prng, stattest
from filament_prng.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from filament_prng.prng import StreamSpec, eicg_stream
from filament_prng.serialize import f64le_bytes, table_csv, table_json
from filament_prng.verify import SuiteResult


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
        "verify closure --qmax -5",
        "verify compound --pmax 0",
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
    monkeypatch.setattr(
        prng, "compound_identity_residual", lambda sides, primes, ps, u: np.ones(len(ps))
    )
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

    In about half the examples every option takes a valid value and the
    options a command needs are present; in the rest any option may be
    missing or take any pooled value.

    Left out because its cost is known to be unbounded: an --start below
    2**63 but far from 0 for lcg or compound (both step through every
    earlier index).
    """
    valid = draw(st.booleans())

    def option(flag, pool, needed=False, always=False, exclude=()):
        """[flag, value], or [] for an option left out.  An option the
        command needs is given in every valid example, an `always` option
        in every example."""
        if not always and not (valid and needed) and draw(st.booleans()):
            return []
        values = pool[0] if valid else [v for v in pool[0] + pool[1] if v not in exclude]
        return [flag, str(draw(st.sampled_from(values)))]

    command = draw(st.sampled_from(["generate", "serial", "chi2", "randu-planes", "verify", "polygon"]))
    if command == "verify":
        suite = draw(st.sampled_from(["gauss", "theorem1", "closure", "compound", "all"]))
        return (
            ["verify", suite]
            + option("--qmax", QMAX, always=True)
            + option("--pmax", PMAX, always=True)
            + option("-M", SIDE_RANGES)
            + option("--primes", PRIME_LISTS)
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
    unbounded_start = [2**63 - 1] if kind in ("lcg", "compound") else []
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
        + option("--start", STARTS, exclude=unbounded_start)
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
