import json
import math
import struct

import numpy as np
import pytest

from filament_prng import prng, stattest
from filament_prng.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from filament_prng.prng import StreamSpec, eicg_stream
from filament_prng.serialize import f64le_bytes, format_float, table_csv, table_json
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


def test_format_float_round_trips():
    for x in (1 / 3, 0.1, 2**-52, 1.0, 9.87654321e300):
        assert float(format_float(x)) == x


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
