"""Command-line front end.

Subcommands: generate (stream samples), verify (computational checks of the
closed forms, closure, and the compound identity), stats (discrepancy /
plane-count / chi-square reports as JSON), polygon (vertex export for
plotting).  Exit codes: 0 success, 1 I/O failure, 2 usage error,
3 verification failure.

The parsed argparse namespace is the only record of an invocation: each
subcommand names its handler through `run`.  An option left out is not
passed on, so a default that a library signature states is not repeated
here.
"""

from __future__ import annotations

import sys
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

_KINDS = ["vfe", "eicg", "eicg-pow2", "lcg", "compound"]


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
    gen.add_argument("--kind", required=True, choices=_KINDS)
    _add_stream_args(gen)
    gen.add_argument("--format", choices=["csv", "json", "f64le"], default="csv")
    gen.add_argument("-o", "--output", dest="output_path")
    gen.set_defaults(run=cmd_generate)

    ver = sub.add_parser("verify", help="run computational verification sweeps")
    ver.add_argument(
        "suite", choices=["gauss", "theorem1", "closure", "compound", "all"]
    )
    ver.add_argument("--qmax", dest="q_max", metavar="QMAX", type=int)
    ver.add_argument("-M", "--sides", dest="sides_range", type=_parse_range)
    ver.add_argument("--primes", type=_parse_int_list)
    ver.add_argument("--pmax", dest="p_max", metavar="PMAX", type=int)
    ver.set_defaults(run=cmd_verify)

    stats = sub.add_parser("stats", help="emit statistical reports as JSON")
    stats_sub = stats.add_subparsers(dest="action", required=True)

    serial = stats_sub.add_parser("serial", help="serial-test discrepancy report")
    serial.add_argument("--kind", default="eicg", choices=_KINDS)
    _add_stream_args(serial)
    serial.add_argument("-k", type=int, default=2)
    serial.add_argument("--lags", type=_parse_int_list)
    serial.add_argument("-o", "--output", dest="output_path")
    serial.set_defaults(run=cmd_serial)

    planes = stats_sub.add_parser("randu-planes", help="RANDU hyperplane count")
    planes.add_argument("-n", "--count", type=int, default=1_000_000)
    planes.add_argument("-o", "--output", dest="output_path")
    planes.set_defaults(run=cmd_randu_planes)

    chi2 = stats_sub.add_parser("chi2", help="chi-square uniformity statistic")
    chi2.add_argument("--kind", default="eicg", choices=_KINDS)
    _add_stream_args(chi2)
    chi2.add_argument("--bins", type=int, default=20)
    chi2.add_argument("-o", "--output", dest="output_path")
    chi2.set_defaults(run=cmd_chi2)

    poly = sub.add_parser("polygon", help="export skew-polygon vertices")
    poly.add_argument("-M", "--sides", type=int, default=3)
    poly.add_argument("-q", type=int, required=True)
    poly.add_argument("-p", type=int, default=1)
    poly.add_argument("--format", choices=["csv", "json"], default="csv")
    poly.add_argument("-o", "--output", dest="output_path")
    poly.set_defaults(run=cmd_polygon)
    return parser


def _add_stream_args(cmd) -> None:
    cmd.add_argument("-M", "--sides", type=int, default=3)
    cmd.add_argument("-q", type=int)
    cmd.add_argument("-a", type=int)
    cmd.add_argument("-b", type=int)
    cmd.add_argument("--x0", type=int)
    cmd.add_argument("--omega", type=int)
    cmd.add_argument("--preset", choices=["randu"])
    cmd.add_argument("--primes", type=_parse_int_list)
    cmd.add_argument("-n", "--count", type=int)
    cmd.add_argument("--start", type=int, default=0)


def _check_window(args) -> None:
    """A negative -n or --start is refused before any work: a negative
    slice start would silently wrap around the circle stream."""
    for flag, dest in (("-n", "count"), ("--start", "start")):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise BadParameters(f"{flag} must be nonnegative, got {value}")


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


def _given(**options) -> dict:
    """The options the user gave, so the library's defaults fill the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _unit_stream(args) -> Stream:
    """The stream of one of the unit-interval kinds."""
    coefficients = _given(a=args.a, b=args.b)
    if args.kind == "eicg":
        spec = StreamSpec.eicg(_require(args.q, "-q"), **coefficients)
        count = args.count if args.count is not None else spec.q
        return eicg_stream(spec, count, args.start)
    if args.kind == "eicg-pow2":
        omega = args.omega
        if args.q is not None:
            q_omega = args.q.bit_length() - 1
            if args.q != 1 << max(q_omega, 0) or omega not in (None, q_omega):
                raise BadParameters(f"eicg-pow2 needs -q = 2**omega, got -q {args.q}")
            omega = q_omega
        spec = StreamSpec.eicg_pow2(_require(omega, "--omega"), **coefficients)
        count = args.count if args.count is not None else spec.q // 2
        return eicg_pow2_stream(spec, count, args.start)
    if args.kind == "lcg":
        if args.preset == "randu":
            spec = randu_preset()
        else:
            spec = StreamSpec.lcg(
                _require(args.a, "-a"),
                _require(args.b, "-b"),
                _require(args.q, "-q"),
                **_given(x0=args.x0),
            )
        return lcg_stream(spec, _require(args.count, "-n"), args.start)
    if args.kind == "compound":
        if not args.primes:
            raise BadParameters("compound streams need --primes")
        count = _require(args.count, "-n")
        return compound_stream(args.sides, args.primes, count, args.start)
    stop = None if args.count is None else args.start + args.count
    return vfe_unit_samples(_require(args.q, "-q"))[args.start : stop]


def cmd_generate(args) -> int:
    stream = _unit_stream(args)
    if args.kind == "vfe":
        points = circle_row(corner_angle(args.sides, args.q), stream.u)
        columns = {"p": stream.n, "re": points.real, "im": points.imag}
        floats = points.view(np.float64)  # re and im interleaved
    else:
        columns = {"n": stream.n, "x": stream.x, "u": stream.u}
        if args.kind == "compound":
            del columns["x"]  # compound states live in the product ring
        floats = columns["u"]
    if args.format == "csv":
        payload: str | bytes = table_csv(columns)
    elif args.format == "json":
        payload = table_json(columns)
    else:
        payload = f64le_bytes(floats)
    _emit(payload, args.output_path)
    return EXIT_OK


def cmd_verify(args) -> int:
    every = args.suite == "all"
    sweep = _given(sides_range=args.sides_range, q_max=args.q_max)
    suites = []
    if every or args.suite == "gauss":
        suites.extend(verify_gauss(**_given(q_max=args.q_max)))
    if every or args.suite == "theorem1":
        suites.append(verify_theorem1(**sweep))
    if every or args.suite == "closure":
        suites.append(verify_closure(**sweep))
    if every or args.suite == "compound":
        prime_sets = (args.primes,) if args.primes else None
        suites.append(verify_compound(**_given(prime_sets=prime_sets, p_max=args.p_max)))
    for suite in suites:
        print(suite.describe())
    return EXIT_OK if all(s.passed for s in suites) else EXIT_VERIFY


def cmd_serial(args) -> int:
    stream = _unit_stream(args)
    report = serial_test(stream.u, args.k, args.lags)
    _emit(report_json(report.as_dict()), args.output_path)
    return EXIT_OK


def cmd_randu_planes(args) -> int:
    payload = {"planes": randu_plane_count(args.count), "samples": args.count}
    _emit(report_json(payload), args.output_path)
    return EXIT_OK


def cmd_chi2(args) -> int:
    quantile = chi2_quantile_999(args.bins - 1)  # refuses a bin count before any work
    stream = _unit_stream(args)
    statistic, bins = chi_square_uniformity(stream.u, args.bins)
    payload = {
        "statistic": statistic,
        "bins": bins,
        "samples": len(stream),
        "chi2_quantile_999": quantile,
    }
    _emit(report_json(payload), args.output_path)
    return EXIT_OK


def cmd_polygon(args) -> int:
    config = PolygonConfig(args.sides, RationalTime(args.p, args.q))
    vertices = build_polygon(config)
    columns = {"index": np.arange(len(vertices)), "x": vertices[:, 0],
               "y": vertices[:, 1], "z": vertices[:, 2]}
    payload = table_csv(columns) if args.format == "csv" else table_json(columns)
    _emit(payload, args.output_path)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _check_window(args)
        return args.run(args)
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
