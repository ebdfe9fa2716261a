"""Command-line front end.

Subcommands: generate (stream samples), verify (computational checks of the
closed forms, closure, and the compound identity), stats (discrepancy /
plane-count / chi-square reports as JSON), polygon (vertex export for
plotting).  Exit codes: 0 success, 1 I/O failure, 2 usage error,
3 verification failure.

`generate` and `polygon` compute and write their tables one window of at
most `_BLOCK_ROWS` rows at a time, so memory is bounded by one window, not
by the invocation.  The first window is computed before the output is
opened: a usage error leaves no file.  A failure in a later window removes
the regular file the invocation opened (a device or a FIFO is left alone);
on stdout the windows already written stay there.

The parsed argparse namespace is the only record of an invocation: each
subcommand names its handler through `run`.  An option left out is not
passed on, so a default that a library signature states is not repeated
here.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BadParameters, DomainError, InvariantViolation
from .filament import PolygonConfig, RationalTime, circle_row, corner_angle, polygon_windows
from .prng import (
    Stream,
    StreamSpec,
    check_budget,
    check_indices,
    compound_stream,
    eicg_pow2_stream,
    eicg_stream,
    lcg_stream,
    randu_preset,
    vfe_unit_samples,
    vfe_window_count,
)
from .serialize import _BLOCK_ROWS, f64le_bytes, report_json, table_csv, table_json
from .stattest import check_exact, chi2_quantile_999, chi_square_uniformity, randu_plane_count, serial_test
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
    """A negative -n or --start is refused before any work, in an error
    that names the flag rather than the stream's parameter."""
    for flag, dest in (("-n", "count"), ("--start", "start")):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise BadParameters(f"{flag} must be nonnegative, got {value}")


def _emit(payload: str | bytes, handle) -> None:
    """Write one payload, a serialize result, to an open output: the one
    write of every command, so a traced run times and counts each."""
    handle.write(payload)


@contextmanager
def _output(path: str | None, binary: bool) -> Iterator:
    """stdout when path is None, else the file at path opened for writing.
    When the body fails, the file is removed if it is the regular file
    opened here, and the error goes on."""
    if path is None:
        yield sys.stdout.buffer if binary else sys.stdout
        return
    with open(path, "wb") if binary else open(path, "w", newline="\n") as handle:
        try:
            yield handle
        except BaseException:
            with suppress(OSError):
                opened = os.fstat(handle.fileno())
                if os.path.isfile(path) and os.path.samestat(opened, os.stat(path)):
                    os.unlink(path)
            raise


def _write(payloads: Iterable[str | bytes], path: str | None) -> None:
    """Write the payloads in order to path, or to stdout when path is None.

    The first payload is computed before the output is opened.  Each one is
    dropped once written, before the next is computed, so one payload is
    alive at a time."""
    payloads = iter(payloads)
    first = next(payloads)
    with _output(path, isinstance(first, bytes)) as handle:
        _emit(first, handle)
        del first
        for payload in payloads:
            _emit(payload, handle)
            del payload


def _windows(total: int, payload: Callable[[int, int], str | bytes]) -> Iterator[str | bytes]:
    """payload(lo, count) over windows of at most _BLOCK_ROWS rows covering
    rows [0, total) in order; one empty window when total is 0."""
    for lo in range(0, max(total, 1), _BLOCK_ROWS):
        yield payload(lo, min(total - lo, _BLOCK_ROWS))


def _text(columns: dict, fmt: str, lo: int, count: int, total: int) -> str:
    """The csv or json text of rows [lo, lo + count) of a table of total rows."""
    writer = table_csv if fmt == "csv" else table_json
    return writer(columns, first=lo == 0, last=lo + count == total)


def _require(value, flag: str):
    if value is None:
        raise BadParameters(f"missing required option {flag}")
    return value


def _given(**options) -> dict:
    """The options the user gave, so the library's defaults fill the rest."""
    return {name: value for name, value in options.items() if value is not None}


# The stream flags each kind reads, among those some kinds ignore; -n and
# --start apply to every kind and -M is accepted by every kind.  The RANDU
# preset reads no flag but itself.
_STREAM_FLAGS = ("-q", "-a", "-b", "--x0", "--omega", "--preset", "--primes")
_READS = {
    "vfe": {"-q"},
    "eicg": {"-q", "-a", "-b"},
    "eicg-pow2": {"-a", "-b", "--omega"},
    "lcg": {"-q", "-a", "-b", "--x0"},
    "lcg --preset randu": {"--preset"},
    "compound": {"--primes"},
}


def _check_stream_flags(args) -> None:
    """Refuse a stream flag the chosen kind would ignore, naming it."""
    kind = f"lcg --preset {args.preset}" if args.kind == "lcg" and args.preset else args.kind
    for flag in _STREAM_FLAGS:
        if flag not in _READS[kind] and getattr(args, flag.lstrip("-")) is not None:
            raise BadParameters(f"--kind {kind} does not read {flag}")


def _unit_stream(args) -> tuple[int, Callable[[int, int], Stream]]:
    """(total, window) of one of the unit-interval kinds: the stream's
    length, refused before any work by the check the stream call makes
    first, and window(start, count), its count samples from the start-th.
    A stream flag the kind does not read is refused first."""
    _check_stream_flags(args)
    if args.kind == "vfe":
        q = _require(args.q, "-q")
        return vfe_window_count(q, args.start, args.count), lambda start, count: vfe_unit_samples(q, start, count)
    if args.kind == "compound":
        if not args.primes:
            raise BadParameters("compound streams need --primes")
        total = _require(args.count, "-n")
        StreamSpec.compound(args.primes)  # bad primes first, as compound_stream refuses them
        check_budget(total)
        return total, lambda start, count: compound_stream(args.sides, args.primes, count, start)
    # the index streams: the total is -n, else the kind's period
    coefficients = _given(a=args.a, b=args.b)
    if args.kind == "eicg":
        spec = StreamSpec.eicg(_require(args.q, "-q"), **coefficients)
        period, window = spec.q, lambda start, count: eicg_stream(spec, count, start)
    elif args.kind == "eicg-pow2":
        spec = StreamSpec.eicg_pow2(_require(args.omega, "--omega"), **coefficients)
        period, window = spec.q // 2, lambda start, count: eicg_pow2_stream(spec, count, start)
    else:
        if args.preset == "randu":
            spec = randu_preset()
        else:
            spec = StreamSpec.lcg(
                _require(args.a, "-a"),
                _require(args.b, "-b"),
                _require(args.q, "-q"),
                **_given(x0=args.x0),
            )
        period, window = None, lambda start, count: lcg_stream(spec, count, start)
    total = _require(period if args.count is None else args.count, "-n")
    check_indices(args.start, total)
    return total, window


def cmd_generate(args) -> int:
    total, window = _unit_stream(args)

    def payload(lo: int, count: int) -> str | bytes:
        stream = window(args.start + lo, count)
        if args.kind == "vfe":
            points = circle_row(corner_angle(args.sides, args.q), stream.u)
            columns = {"p": stream.n, "re": points.real, "im": points.imag}
            floats = points.view(np.float64)  # re and im interleaved
        else:
            columns = {"n": stream.n, "x": stream.x, "u": stream.u}
            if args.kind == "compound":
                del columns["x"]  # compound states live in the product ring
            floats = columns["u"]
        if args.format == "f64le":
            return f64le_bytes(floats)
        return _text(columns, args.format, lo, count, total)

    _write(_windows(total, payload), args.output_path)
    return EXIT_OK


# The suites that read each verify option, by flag and parsed attribute.
_VERIFY_READERS = {
    ("--qmax", "q_max"): ("gauss", "theorem1", "closure", "all"),
    ("-M", "sides_range"): ("theorem1", "closure", "all"),
    ("--primes", "primes"): ("compound", "all"),
    ("--pmax", "p_max"): ("compound", "all"),
}


def cmd_verify(args) -> int:
    for (flag, dest), readers in _VERIFY_READERS.items():
        if args.suite not in readers and getattr(args, dest) is not None:
            raise BadParameters(f"verify {args.suite} does not read {flag}")
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
        prime_sets = None if args.primes is None else (args.primes,)
        suites.append(verify_compound(**_given(prime_sets=prime_sets, p_max=args.p_max)))
    for suite in suites:
        print(suite.describe())
    return EXIT_OK if all(s.passed for s in suites) else EXIT_VERIFY


def cmd_serial(args) -> int:
    total, window = _unit_stream(args)
    check_exact(args.k, total)  # the scan's limits, before the stream is built
    report = serial_test(window(args.start, total).u, args.k, args.lags)
    _write([report_json(asdict(report))], args.output_path)
    return EXIT_OK


def cmd_randu_planes(args) -> int:
    payload = {"planes": randu_plane_count(args.count), "samples": args.count}
    _write([report_json(payload)], args.output_path)
    return EXIT_OK


def cmd_chi2(args) -> int:
    quantile = chi2_quantile_999(args.bins - 1)  # refuses a bin count before any work
    total, window = _unit_stream(args)
    stream = window(args.start, total)
    statistic, bins = chi_square_uniformity(stream.u, args.bins)
    payload = {
        "statistic": statistic,
        "bins": bins,
        "samples": len(stream),
        "chi2_quantile_999": quantile,
    }
    _write([report_json(payload)], args.output_path)
    return EXIT_OK


def cmd_polygon(args) -> int:
    config = PolygonConfig(args.sides, RationalTime(args.p, args.q))
    blocks = polygon_windows(config, _BLOCK_ROWS)  # one block per window, in order

    def payload(lo: int, count: int) -> str:
        x, y, z = next(blocks).T
        columns = {"index": np.arange(lo, lo + count), "x": x, "y": y, "z": z}
        return _text(columns, args.format, lo, count, config.corner_count)

    _write(_windows(config.corner_count, payload), args.output_path)
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
