"""Command-line front end.

Subcommands: generate (stream samples), verify (computational checks of the
closed forms, closure, and the compound identity), stats (discrepancy /
plane-count / chi-square reports as JSON), polygon (vertex export for
plotting).  Exit codes: 0 success, 1 I/O failure, 2 usage error,
3 verification failure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParameters, DomainError, InvariantViolation
from .filament import PolygonConfig, RationalTime, build_polygon, circle_row, corner_angle
from .prng import (
    Stream,
    StreamSpec,
    compound_stream,
    eicg_pow2_stream,
    eicg_stream,
    lcg_stream,
    randu_preset,
    vfe_unit_samples,
)
from .serialize import f64le_bytes, report_json, table_csv, table_json
from .stattest import chi2_quantile_999, chi_square_uniformity, randu_plane_count, serial_test
from .verify import verify_closure, verify_compound, verify_gauss, verify_theorem1

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

_VERIFY_DEFAULT_QMAX = {"gauss": 300, "theorem1": 40, "closure": 50}
_VERIFY_DEFAULT_SIDES = {"theorem1": (3, 8), "closure": (3, 10)}
_DEFAULT_PRIME_SETS = ((5, 7), (11, 13, 17))


@dataclass(frozen=True)
class RunConfig:
    """One fully parsed invocation."""

    command: str
    suite: str | None = None
    action: str | None = None
    kind: str | None = None
    sides: int = 3
    q: int | None = None
    p: int = 0
    a: int | None = None
    b: int | None = None
    x0: int = 1
    omega: int | None = None
    preset: str | None = None
    primes: tuple[int, ...] = ()
    count: int | None = None
    start: int = 0
    k: int = 2
    bins: int = 20
    lags: tuple[int, ...] | None = None
    qmax: int | None = None
    pmax: int = 10_000
    sides_range: tuple[int, int] | None = None
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.count is not None and self.count < 0:
            raise BadParameters(f"-n must be nonnegative, got {self.count}")
        if self.start < 0:
            raise BadParameters(f"--start must be nonnegative, got {self.start}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="filament-prng",
        description="Circle-point and inversive pseudorandom streams with "
        "their verification and statistics suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit stream samples")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["vfe", "eicg", "eicg-pow2", "lcg", "compound"],
    )
    _add_stream_args(gen)
    gen.add_argument("--format", choices=["csv", "json", "f64le"], default="csv")
    gen.add_argument("-o", "--output", dest="output_path")

    ver = sub.add_parser("verify", help="run computational verification sweeps")
    ver.add_argument(
        "suite", choices=["gauss", "theorem1", "closure", "compound", "all"]
    )
    ver.add_argument("--qmax", type=int)
    ver.add_argument("-M", "--sides", dest="sides_range", type=_parse_range)
    ver.add_argument("--primes", type=_parse_int_list)
    ver.add_argument("--pmax", type=int, default=10_000)

    stats = sub.add_parser("stats", help="emit statistical reports as JSON")
    stats_sub = stats.add_subparsers(dest="action", required=True)

    serial = stats_sub.add_parser("serial", help="serial-test discrepancy report")
    serial.add_argument(
        "--kind",
        default="eicg",
        choices=["vfe", "eicg", "eicg-pow2", "lcg", "compound"],
    )
    _add_stream_args(serial)
    serial.add_argument("-k", type=int, default=2)
    serial.add_argument("--lags", type=_parse_int_list)
    serial.add_argument("-o", "--output", dest="output_path")

    planes = stats_sub.add_parser("randu-planes", help="RANDU hyperplane count")
    planes.add_argument("-n", "--count", type=int, default=1_000_000)
    planes.add_argument("-o", "--output", dest="output_path")

    chi2 = stats_sub.add_parser("chi2", help="chi-square uniformity statistic")
    chi2.add_argument(
        "--kind",
        default="eicg",
        choices=["vfe", "eicg", "eicg-pow2", "lcg", "compound"],
    )
    _add_stream_args(chi2)
    chi2.add_argument("--bins", type=int, default=20)
    chi2.add_argument("-o", "--output", dest="output_path")

    poly = sub.add_parser("polygon", help="export skew-polygon vertices")
    poly.add_argument("-M", "--sides", type=int, default=3)
    poly.add_argument("-q", type=int, required=True)
    poly.add_argument("-p", type=int, default=1)
    poly.add_argument("--format", choices=["csv", "json"], default="csv")
    poly.add_argument("-o", "--output", dest="output_path")
    return parser


def _add_stream_args(cmd) -> None:
    cmd.add_argument("-M", "--sides", type=int, default=3)
    cmd.add_argument("-q", type=int)
    cmd.add_argument("-a", type=int)
    cmd.add_argument("-b", type=int)
    cmd.add_argument("--x0", type=int, default=1)
    cmd.add_argument("--omega", type=int)
    cmd.add_argument("--preset", choices=["randu"])
    cmd.add_argument("--primes", type=_parse_int_list)
    cmd.add_argument("-n", "--count", type=int)
    cmd.add_argument("--start", type=int, default=0)


def _to_config(args) -> RunConfig:
    get = lambda name, default=None: getattr(args, name, default)
    return RunConfig(
        command=args.command,
        suite=get("suite"),
        action=get("action"),
        kind=get("kind"),
        sides=get("sides", 3),
        q=get("q"),
        p=get("p", 0),
        a=get("a"),
        b=get("b"),
        x0=get("x0", 1),
        omega=get("omega"),
        preset=get("preset"),
        primes=get("primes") or (),
        count=get("count"),
        start=get("start", 0),
        k=get("k", 2),
        bins=get("bins", 20),
        lags=get("lags"),
        qmax=get("qmax"),
        pmax=get("pmax", 10_000),
        sides_range=get("sides_range"),
        output_path=get("output_path"),
        format=get("format", "csv"),
    )


def _emit(payload: str | bytes, path: str | None) -> None:
    if path is None:
        if isinstance(payload, bytes):
            sys.stdout.buffer.write(payload)
        else:
            sys.stdout.write(payload)
        return
    mode = "wb" if isinstance(payload, bytes) else "w"
    kwargs = {} if isinstance(payload, bytes) else {"newline": "\n"}
    with open(path, mode, **kwargs) as handle:
        handle.write(payload)


def _require(value, flag: str):
    if value is None:
        raise BadParameters(f"missing required option {flag}")
    return value


def _unit_stream(cfg: RunConfig) -> Stream:
    """The stream of one of the unit-interval kinds."""
    if cfg.kind == "eicg":
        spec = StreamSpec.eicg(
            _require(cfg.q, "-q"),
            a=cfg.a if cfg.a is not None else 4,
            b=cfg.b if cfg.b is not None else 0,
        )
        count = cfg.count if cfg.count is not None else spec.q
        return eicg_stream(spec, count, cfg.start)
    if cfg.kind == "eicg-pow2":
        omega = cfg.omega
        if cfg.q is not None:
            q_omega = cfg.q.bit_length() - 1
            if cfg.q != 1 << max(q_omega, 0) or omega not in (None, q_omega):
                raise BadParameters(f"eicg-pow2 needs -q = 2**omega, got -q {cfg.q}")
            omega = q_omega
        spec = StreamSpec.eicg_pow2(
            _require(omega, "--omega"),
            a=cfg.a if cfg.a is not None else 2,
            b=cfg.b if cfg.b is not None else 1,
        )
        count = cfg.count if cfg.count is not None else spec.q // 2
        return eicg_pow2_stream(spec, count, cfg.start)
    if cfg.kind == "lcg":
        if cfg.preset == "randu":
            spec = randu_preset()
        else:
            spec = StreamSpec.lcg(
                _require(cfg.a, "-a"),
                _require(cfg.b, "-b"),
                _require(cfg.q, "-q"),
                cfg.x0,
            )
        return lcg_stream(spec, _require(cfg.count, "-n"), cfg.start)
    if cfg.kind == "compound":
        if not cfg.primes:
            raise BadParameters("compound streams need --primes")
        count = _require(cfg.count, "-n")
        return compound_stream(cfg.sides, cfg.primes, count, cfg.start)
    if cfg.kind == "vfe":
        stop = None if cfg.count is None else cfg.start + cfg.count
        return vfe_unit_samples(_require(cfg.q, "-q"))[cfg.start : stop]
    raise BadParameters(f"unknown stream kind {cfg.kind!r}")


def cmd_generate(cfg: RunConfig) -> int:
    stream = _unit_stream(cfg)
    if cfg.kind == "vfe":
        points = circle_row(corner_angle(cfg.sides, cfg.q), stream.u)
        columns = {"p": stream.n, "re": points.real, "im": points.imag}
        floats = points.view(np.float64)  # re and im interleaved
    else:
        columns = {"n": stream.n, "x": stream.x, "u": stream.u}
        if cfg.kind == "compound":
            del columns["x"]  # compound states live in the product ring
        floats = stream.u
    if cfg.format == "csv":
        payload: str | bytes = table_csv(columns)
    elif cfg.format == "json":
        payload = table_json(columns)
    else:
        payload = f64le_bytes(floats)
    _emit(payload, cfg.output_path)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    suites = []
    names = (
        ["gauss", "theorem1", "closure", "compound"]
        if cfg.suite == "all"
        else [cfg.suite]
    )
    for name in names:
        qmax = cfg.qmax if cfg.qmax is not None else _VERIFY_DEFAULT_QMAX.get(name)
        sides_range = (
            cfg.sides_range
            if cfg.sides_range is not None
            else _VERIFY_DEFAULT_SIDES.get(name)
        )
        if name == "gauss":
            suites.extend(verify_gauss(qmax))
        elif name == "theorem1":
            suites.append(verify_theorem1(sides_range, qmax))
        elif name == "closure":
            suites.append(verify_closure(sides_range, qmax))
        elif name == "compound":
            prime_sets = (cfg.primes,) if cfg.primes else _DEFAULT_PRIME_SETS
            suites.append(verify_compound(prime_sets, cfg.pmax))
    for suite in suites:
        print(suite.describe())
    return EXIT_OK if all(s.passed for s in suites) else EXIT_VERIFY


def cmd_stats(cfg: RunConfig) -> int:
    if cfg.action == "serial":
        stream = _unit_stream(cfg)
        lags = cfg.lags if cfg.lags is not None else tuple(range(cfg.k))
        report = serial_test(stream.u, cfg.k, lags)
        _emit(report_json(report.as_dict()), cfg.output_path)
        return EXIT_OK
    if cfg.action == "randu-planes":
        count = cfg.count if cfg.count is not None else 1_000_000
        payload = {"planes": randu_plane_count(count), "samples": count}
        _emit(report_json(payload), cfg.output_path)
        return EXIT_OK
    if cfg.action == "chi2":
        stream = _unit_stream(cfg)
        statistic, bins = chi_square_uniformity(stream.u, cfg.bins)
        payload = {
            "statistic": statistic,
            "bins": bins,
            "samples": len(stream),
            "chi2_quantile_999": chi2_quantile_999(bins - 1),
        }
        _emit(report_json(payload), cfg.output_path)
        return EXIT_OK
    raise BadParameters(f"unknown stats action {cfg.action!r}")


def cmd_polygon(cfg: RunConfig) -> int:
    config = PolygonConfig(cfg.sides, RationalTime(cfg.p, _require(cfg.q, "-q")))
    vertices = build_polygon(config)
    columns = {"index": np.arange(len(vertices)), "x": vertices[:, 0],
               "y": vertices[:, 1], "z": vertices[:, 2]}
    payload = table_csv(columns) if cfg.format == "csv" else table_json(columns)
    _emit(payload, cfg.output_path)
    return EXIT_OK


_DISPATCH = {
    "generate": cmd_generate,
    "verify": cmd_verify,
    "stats": cmd_stats,
    "polygon": cmd_polygon,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _to_config(args)
        return _DISPATCH[cfg.command](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
