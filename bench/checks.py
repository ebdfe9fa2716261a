"""Output checks for the benchmark operations.

Each check recomputes the expected output from the definitions, with
Python integers (`pow` for inverses) and NumPy, and never imports the
package under test.  A check raises CheckFailed on the first discrepancy.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- reading the three output formats ---

_INT_COLUMNS = {"n", "x", "p"}


def read_f64le(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    _require(len(data) % 8 == 0, f"f64le length {len(data)} is not a multiple of 8")
    return np.frombuffer(data, dtype="<f8")


def read_columns(path: Path, fmt: str, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Columns of a csv or json output, with the header or keys checked."""
    text = Path(path).read_text()
    if fmt == "csv":
        header, _, body = text.partition("\n")
        _require(header == ",".join(names), f"csv header {header!r}")
        _require(text.endswith("\n"), "csv output does not end with a newline")
        rows = body.split("\n")[:-1]
        _require(all(row.count(",") == len(names) - 1 for row in rows), "csv row width")
        flat = body.replace(",", "\n").split("\n")[:-1]
        cols = [flat[i :: len(names)] for i in range(len(names))]
    else:
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"json output does not parse: {exc}") from None
        _require(isinstance(records, list), "json output is not a list")
        _require(all(isinstance(r, dict) and tuple(r) == names for r in records),
                 f"json rows need exactly the keys {names}")
        cols = [[r[k] for r in records] for k in names]
    try:
        return {
            name: np.array(list(map(int, col)), dtype=np.int64) if name in _INT_COLUMNS
            else np.array(list(map(float, col)), dtype=np.float64)
            for name, col in zip(names, cols)
        }
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"unparsable value: {exc}") from None


def _check_unit_rows(path, fmt: str, ns: np.ndarray, xs: np.ndarray | None,
                     us: np.ndarray) -> None:
    """Rows (n, x, u) or (n, u), or bare u values for f64le, compared exactly."""
    if fmt == "f64le":
        u = read_f64le(path)
        _require(len(u) == len(us), f"{len(u)} values, expected {len(us)}")
        _require_equal(u, us, "u")
        return
    names = ("n", "u") if xs is None else ("n", "x", "u")
    cols = read_columns(path, fmt, names)
    _require(len(cols["n"]) == len(ns), f"{len(cols['n'])} rows, expected {len(ns)}")
    _require_equal(cols["n"], ns, "n")
    if xs is not None:
        _require_equal(cols["x"], xs, "x")
    _require_equal(cols["u"], us, "u")


def _require_equal(got: np.ndarray, want: np.ndarray, column: str) -> None:
    """Exact equality of two arrays of the same length."""
    wrong = np.flatnonzero(got != want)
    if wrong.size:
        i = int(wrong[0])
        raise CheckFailed(f"{column} wrong at row {i}: {got[i]!r}, expected {want[i]!r}")


# --- streams ---


def check_inverse(e: dict, path, stdout: str) -> None:
    """EICG and power-of-two EICG: x_n = (a n + b)^-1 mod q, 0 -> 0."""
    q, a, b, start, count = e["q"], e["a"], e["b"], e["start"], e["count"]
    vs = [(a * n + b) % q for n in range(start, start + count)]
    xs = np.array([pow(v, -1, q) if v else 0 for v in vs], dtype=np.int64)
    _check_unit_rows(path, e["fmt"], np.arange(start, start + count), xs, xs / q)


def lcg_states(a: int, b: int, q: int, x0: int, start: int, count: int) -> list[int]:
    """x_start..x_{start+count-1} of x_{n+1} = a x_n + b mod q; the jump to
    x_start composes the affine map by squaring (O(log start))."""
    mul, add = 1, 0  # accumulated map x -> mul x + add
    step_mul, step_add = a % q, b % q
    k = start
    while k:
        if k & 1:
            mul, add = step_mul * mul % q, (step_mul * add + step_add) % q
        step_mul, step_add = step_mul * step_mul % q, (step_mul * step_add + step_add) % q
        k >>= 1
    x = (mul * (x0 % q) + add) % q
    out = []
    for _ in range(count):
        out.append(x)
        x = (a * x + b) % q
    return out


def check_lcg(e: dict, path, stdout: str) -> None:
    q, start, count = e["q"], e["start"], e["count"]
    xs = np.array(lcg_states(e["a"], e["b"], q, e["x0"], start, count), dtype=np.int64)
    _check_unit_rows(path, e["fmt"], np.arange(start, start + count), xs, xs / q)


def compound_expected(primes, start: int, count: int) -> tuple[list[int], list[float]]:
    """Indices p coprime to prod(primes) after skipping `start` of them, and
    u_p = (sum_j ((4p)^-1 mod q_j) * M/q_j mod M) / M."""
    modulus = math.prod(primes)
    ns, us = [], []
    p, skipped = 0, 0
    while len(ns) < count:
        p += 1
        if math.gcd(p, modulus) != 1:
            continue
        if skipped < start:
            skipped += 1
            continue
        num = sum(pow(4 * p, -1, qj) * (modulus // qj) for qj in primes)
        ns.append(p)
        us.append((num % modulus) / modulus)
    return ns, us


def check_compound(e: dict, path, stdout: str) -> None:
    ns, us = compound_expected(e["primes"], e["start"], e["count"])
    _check_unit_rows(path, e["fmt"], np.array(ns, dtype=np.int64), None, np.array(us))


def vfe_expected(sides: int, q: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Circle points from phi(p) = (4p)^-1 mod q (q odd), p^-1 mod q/2
    (q = 2 mod 4), p^-1 mod q (q = 0 mod 4), on the circle of center
    i cos^2(rho) and radius sin^2(rho)."""
    ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
    if q % 2:
        eff, phis = q, [pow(4 * p, -1, q) for p in ps]
    elif q % 4 == 2:
        eff = q // 2
        phis = [pow(p, -1, eff) for p in ps]
    else:
        eff, phis = q, [pow(p, -1, q) for p in ps]
    exponent = (2.0 if q % 2 else 4.0) / q
    c = min(2.0 * math.cos(math.pi / sides) ** exponent - 1.0, 1.0)
    s = math.sin(math.acos(c))
    alpha = 2.0 * math.pi * (np.array(phis, dtype=np.float64) / eff)
    return ps, s * s * np.sin(alpha), c * c - s * s * np.cos(alpha)


def check_vfe(e: dict, path, stdout: str) -> None:
    ps, re_, im_ = vfe_expected(e["sides"], e["q"])
    if e["fmt"] == "f64le":
        got = read_f64le(path)
        _require(len(got) == 2 * len(ps), f"{len(got)} values, expected {2 * len(ps)}")
        got_re, got_im = got[0::2], got[1::2]
    else:
        cols = read_columns(path, e["fmt"], ("p", "re", "im"))
        _require(len(cols["p"]) == len(ps), f"{len(cols['p'])} rows, expected {len(ps)}")
        _require(np.array_equal(cols["p"], ps), "p column is not the coprime residues")
        got_re, got_im = cols["re"], cols["im"]
    err = max(np.max(np.abs(got_re - re_), initial=0.0), np.max(np.abs(got_im - im_), initial=0.0))
    _require(err <= 1e-12, f"circle point off the phi formula by {err:.3e}")


# --- verify sweeps ---

_SUITE_LINE = re.compile(
    r"^(\S+)\s+(pass|FAIL)\s+cases=(\d+)\s+max_error=(\S+)\s+tolerance=(\S+)\s*$"
)


def check_verify(e: dict, path, stdout: str) -> None:
    expected = e["suites"]
    lines = [line for line in stdout.splitlines() if line.strip()]
    _require(len(lines) == len(expected), f"{len(lines)} suite lines, expected {len(expected)}")
    for line, (name, cases) in zip(lines, expected.items()):
        match = _SUITE_LINE.match(line)
        _require(match is not None, f"unparsable suite line {line!r}")
        got_name, status, got_cases, err, tol = match.groups()
        _require(got_name == name, f"suite {got_name!r}, expected {name!r}")
        _require(status == "pass", f"suite {name} reports {status}")
        _require(int(got_cases) == cases, f"suite {name}: {got_cases} cases, expected {cases}")
        _require(float(err) < float(tol), f"suite {name}: error {err} not below {tol}")


# --- statistics ---


def theorem2_upper(p: int, k: int) -> float:
    """2 p^(-1/2) ((k-1)((2/pi) ln p + 7/5)^k + 1) + k/p."""
    return 2.0 / math.sqrt(p) * ((k - 1) * (2.0 / math.pi * math.log(p) + 1.4) ** k + 1.0) + k / p


def star_discrepancy_grid(coords: np.ndarray, m: int) -> float:
    """Star discrepancy of points coords / m (integer coords in [0, m), k = 2
    or 3), by counting points in every box [0, t) and [0, t] with t on the
    integer grid {0..m}^k / m.  All counts and volumes are exact integers,
    scaled by N m^k."""
    n, k = coords.shape
    order = np.argsort(coords[:, 0], kind="stable")
    rest = coords[order, 1:]
    bounds = np.searchsorted(coords[order, 0], np.arange(m + 1))
    grid = np.arange(m + 1, dtype=np.int64)
    if k == 2:
        yz_vol = grid
        counts = np.zeros(m, dtype=np.int64)
    elif k == 3:
        yz_vol = np.outer(grid, grid)
        counts = np.zeros((m, m), dtype=np.int64)
    else:
        raise ValueError(f"reference covers k = 2, 3, got {k}")
    scale = m**k
    opened = np.zeros(yz_vol.shape, dtype=np.int64)  # points with x < a, y < b (, z < c)
    best = 0
    for a in range(m + 1):
        vol = a * yz_vol
        best = max(best, int((n * vol - scale * opened).max()))
        if a < m:
            np.add.at(counts, tuple(rest[bounds[a]:bounds[a + 1]].T), 1)
        prefix = counts
        for axis in range(k - 1):
            prefix = prefix.cumsum(axis=axis)
        closed = np.pad(prefix, [(0, 1)] * (k - 1), mode="edge")  # t = 1 takes all
        best = max(best, int((scale * closed - n * vol).max()))
        opened[(slice(1, None),) * (k - 1)] = prefix
    return best / (n * scale)


def check_serial(e: dict, path, stdout: str) -> None:
    q, a, b, k, lags = e["q"], e["a"], e["b"], e["k"], e["lags"]
    report = _read_report(path)
    xs = np.array([pow((a * n + b) % q, -1, q) if (a * n + b) % q else 0 for n in range(q)],
                  dtype=np.int64)
    coords = xs[(np.arange(q)[:, None] + np.array(lags)[None, :]) % q]
    star = report.get("star")
    _require(report.get("n") == q and report.get("k") == k and report.get("lags") == list(lags),
             "report parameters differ from the request")
    _require(isinstance(star, float), "no star discrepancy in the report")
    bound = theorem2_upper(q, k)
    got_bound = report.get("theorem2_upper")
    _require(isinstance(got_bound, float) and math.isclose(got_bound, bound, rel_tol=1e-12),
             "theorem2_upper differs from the formula")
    _require(0.0 < star <= bound, f"D* = {star} outside (0, {bound}]")
    _require(report.get("extreme_lower") == star and report.get("extreme_upper") == 2.0**k * star,
             "extreme-discrepancy enclosure is not [D*, 2^k D*]")
    reference = star_discrepancy_grid(coords, q)
    _require(abs(star - reference) <= 1e-12, f"D* = {star}, grid count gives {reference}")


def check_chi2(e: dict, path, stdout: str) -> None:
    q, bins = e["q"], e["bins"]
    report = _read_report(path)
    u = np.array([pow(4 * p, -1, q) for p in range(1, q)], dtype=np.float64) / q
    counts = np.bincount((u * bins).astype(np.int64), minlength=bins)
    expected = u.size / bins
    statistic = float(((counts - expected) ** 2 / expected).sum())
    _require(report.get("bins") == bins and report.get("samples") == q - 1,
             "report bins or sample count differ from the request")
    got = report.get("statistic")
    # A full period can fill every bin equally, so 0 is a valid statistic.
    _require(isinstance(got, float) and math.isclose(got, statistic, rel_tol=1e-9, abs_tol=1e-9),
             f"chi2 = {got}, recomputed {statistic}")
    _require(isinstance(report.get("chi2_quantile_999"), float), "no chi2 quantile")


def check_randu_planes(e: dict, path, stdout: str) -> None:
    report = _read_report(path)
    _require(report.get("samples") == e["count"], "sample count differs from the request")
    _require(report.get("planes") == 15, f"{report.get('planes')} RANDU planes, expected 15")


def _read_report(path) -> dict:
    try:
        report = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report does not parse: {exc}") from None
    _require(isinstance(report, dict), "report is not a JSON object")
    return report


CHECKS = {
    "inverse": check_inverse,
    "lcg": check_lcg,
    "compound": check_compound,
    "vfe": check_vfe,
    "verify": check_verify,
    "serial": check_serial,
    "chi2": check_chi2,
    "randu-planes": check_randu_planes,
}


def check(expect: dict, path, stdout: str) -> None:
    """Raise CheckFailed unless the output at `path` (or `stdout`) is right."""
    CHECKS[expect["check"]](expect, path, stdout)
