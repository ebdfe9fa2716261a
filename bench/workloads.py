"""Seeded operation lists for the benchmark workloads.

Every prime, multiplier, offset, lag set, start index and format is drawn
from the workload seed; the program under test only ever sees the argv
vectors built here.  An output path is the placeholder OUT, replaced by a
file in a scratch directory when the operation runs, so the same seed
always gives the same argv lists.

Each Op carries `expect`, the parameters its output check needs, and
`items`, the work it contributes to items_per_s.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

OUT = "@OUT"
FORMATS = ("csv", "json", "f64le")

# generate-bulk: full-period streams near 2**18 samples.
BULK_Q = 2**18
BULK_Q_RADIUS = 512  # keeps seed-to-seed size variation below 0.2 %
BULK_COMPOUND_COUNT = 20_000
# generate-chunked: many small restartable requests.
CHUNK_COUNT = 256
CHUNK_EICG_Q = 1_000_003
CHUNK_POW2_OMEGA = 31
CHUNK_LCG_Q = 2**31  # the package's MAX_MODULUS
CHUNK_LCG_MAX_START = 2**16
CHUNK_MIX = {"eicg": 272, "eicg-pow2": 256, "lcg": 256, "compound": 16}
# verify-sweeps: the CLI defaults, passed explicitly so the work is pinned.
VERIFY_GAUSS_QMAX = 300
VERIFY_THEOREM1 = ((3, 8), 40)
VERIFY_CLOSURE = ((3, 10), 50)
VERIFY_PMAX = 10_000
# Compound primes above 100 keep the coprime share of 1..pmax above 97 %,
# so the case count, and with it the cost, hardly depends on the seed.
VERIFY_PRIME_POOL = (101, 1000)
# serial-stats
SERIAL_K2_Q = 4093
SERIAL_K3_Q = 401
CHI2_Q = 2**14
RANDU_PLANES_COUNT = 1_000_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    name: str
    argv: tuple[str, ...]
    items: int
    expect: dict = field(compare=False)


def is_prime(n: int) -> bool:
    """Trial division; the benchmark's moduli stay below 2**21."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def prime_near(rng: random.Random, center: int, radius: int) -> int:
    n = rng.randrange(center - radius, center + radius)
    while not is_prime(n):
        n += 1
    return n


def eicg_op(name, q, a, b, fmt, count=None, start=0) -> Op:
    argv = ["generate", "--kind", "eicg", "-q", str(q), "-a", str(a), "-b", str(b)]
    if count is not None:
        argv += ["-n", str(count)]
    if start:
        argv += ["--start", str(start)]
    count = q if count is None else count
    expect = dict(check="inverse", q=q, a=a, b=b, start=start, count=count, fmt=fmt)
    return Op(name, tuple(argv + ["--format", fmt, "-o", OUT]), count, expect)


def eicg_pow2_op(name, omega, a, b, fmt, count=None, start=0) -> Op:
    argv = ["generate", "--kind", "eicg-pow2", "--omega", str(omega), "-a", str(a), "-b", str(b)]
    if count is not None:
        argv += ["-n", str(count)]
    if start:
        argv += ["--start", str(start)]
    q = 1 << omega
    count = q // 2 if count is None else count
    expect = dict(check="inverse", q=q, a=a, b=b, start=start, count=count, fmt=fmt)
    return Op(name, tuple(argv + ["--format", fmt, "-o", OUT]), count, expect)


def lcg_op(name, a, b, q, x0, count, fmt, start=0) -> Op:
    argv = ["generate", "--kind", "lcg", "-a", str(a), "-b", str(b), "-q", str(q),
            "--x0", str(x0), "-n", str(count)]
    if start:
        argv += ["--start", str(start)]
    expect = dict(check="lcg", q=q, a=a, b=b, x0=x0, start=start, count=count, fmt=fmt)
    return Op(name, tuple(argv + ["--format", fmt, "-o", OUT]), count, expect)


def randu_op(name, count, fmt) -> Op:
    argv = ("generate", "--kind", "lcg", "--preset", "randu", "-n", str(count),
            "--format", fmt, "-o", OUT)
    expect = dict(check="lcg", q=2**31, a=65539, b=0, x0=1, start=0, count=count, fmt=fmt)
    return Op(name, argv, count, expect)


def compound_op(name, primes, count, fmt, start=0) -> Op:
    argv = ["generate", "--kind", "compound", "--primes", ",".join(map(str, primes)),
            "-n", str(count)]
    if start:
        argv += ["--start", str(start)]
    expect = dict(check="compound", primes=tuple(primes), start=start, count=count, fmt=fmt)
    return Op(name, tuple(argv + ["--format", fmt, "-o", OUT]), count, expect)


def vfe_op(name, sides, q, fmt) -> Op:
    argv = ("generate", "--kind", "vfe", "-M", str(sides), "-q", str(q),
            "--format", fmt, "-o", OUT)
    count = sum(1 for p in range(1, q) if math.gcd(p, q) == 1)
    return Op(name, argv, count, dict(check="vfe", sides=sides, q=q, fmt=fmt))


def verify_op(name, suite, extra, expect) -> Op:
    argv = ("verify", suite) + tuple(extra)
    return Op(name, argv, sum(expect.values()), dict(check="verify", suites=expect))


def serial_op(name, q, a, b, k, lags) -> Op:
    argv = ("stats", "serial", "--kind", "eicg", "-q", str(q), "-a", str(a), "-b", str(b),
            "-k", str(k), "--lags", ",".join(map(str, lags)), "-o", OUT)
    return Op(name, argv, q, dict(check="serial", q=q, a=a, b=b, k=k, lags=tuple(lags)))


def chi2_op(name, q, bins) -> Op:
    argv = ("stats", "chi2", "--kind", "vfe", "-M", "3", "-q", str(q), "--bins", str(bins),
            "-o", OUT)
    return Op(name, argv, q - 1, dict(check="chi2", q=q, bins=bins))


def randu_planes_op(name, count) -> Op:
    argv = ("stats", "randu-planes", "-n", str(count), "-o", OUT)
    return Op(name, argv, count, dict(check="randu-planes", count=count))


# --- case counts of the verify sweeps, enumerated from their definitions ---


def _sweep_ps(q: int) -> list[int]:
    return [p for p in range(1, q) if math.gcd(p, q) == 1] or [1]


def gauss_cases(q_max: int) -> dict[str, int]:
    magnitude = closed = 0
    for q in range(1, q_max + 1):
        ps = len(_sweep_ps(q))
        magnitude += q * ps
        if q % 2:
            closed += q * ps
        elif q > 2:  # q = 2 has no closed form; even q > 2 has q/2 nonzero indices
            closed += q // 2 * ps
    return {"gauss-magnitude": magnitude, "gauss-closed": closed}


def theorem1_cases(sides: tuple[int, int], q_max: int) -> dict[str, int]:
    total = sum(
        (m * q if q % 2 else m * q // 2) * len(_sweep_ps(q))
        for m in range(sides[0], sides[1] + 1)
        for q in range(1, q_max + 1)
    )
    return {"theorem1": total}


def closure_cases(sides: tuple[int, int], q_max: int) -> dict[str, int]:
    total = sum(
        len(_sweep_ps(q)) for _ in range(sides[0], sides[1] + 1) for q in range(1, q_max + 1)
    )
    return {"closure": total}


def compound_cases(primes, p_max: int) -> dict[str, int]:
    modulus = math.prod(primes)
    return {"compound": sum(1 for p in range(1, p_max + 1) if math.gcd(p, modulus) == 1)}


# --- the workloads ---


def generate_bulk(seed: int) -> list[Op]:
    rng = random.Random(f"generate-bulk:{seed}")
    q = prime_near(rng, BULK_Q, BULK_Q_RADIUS)
    a, b = rng.randrange(1, q), rng.randrange(q)
    ops = [eicg_op(f"generate-eicg-{fmt}", q, a, b, fmt) for fmt in FORMATS]
    ops.append(vfe_op("generate-vfe-csv", 3, prime_near(rng, BULK_Q, BULK_Q_RADIUS), "csv"))
    ops.append(randu_op("generate-randu-f64le", BULK_Q, "f64le"))
    a2, b2 = 4 * rng.randrange(2**17) + 2, 2 * rng.randrange(2**18) + 1
    ops.append(eicg_pow2_op("generate-eicg-pow2-csv", 19, a2, b2, "csv"))
    ops.append(compound_op("generate-compound-json", (5, 7), BULK_COMPOUND_COUNT, "json",
                           start=rng.randrange(2000)))
    return ops


def generate_chunked(seed: int) -> list[Op]:
    rng = random.Random(f"generate-chunked:{seed}")
    small_primes = [p for p in range(5, 60) if is_prime(p)]
    ops = []
    for kind, n_ops in CHUNK_MIX.items():
        offset = rng.randrange(len(FORMATS))
        for i in range(n_ops):
            fmt = FORMATS[(i + offset) % len(FORMATS)]
            name = f"chunk-{kind}-{i:03d}-{fmt}"
            if kind == "eicg":
                q = CHUNK_EICG_Q
                ops.append(eicg_op(name, q, rng.randrange(1, q), rng.randrange(q), fmt,
                                   CHUNK_COUNT, rng.randrange(q)))
            elif kind == "eicg-pow2":
                a = 4 * rng.randrange(2 ** (CHUNK_POW2_OMEGA - 2)) + 2
                b = 2 * rng.randrange(2 ** (CHUNK_POW2_OMEGA - 1)) + 1
                ops.append(eicg_pow2_op(name, CHUNK_POW2_OMEGA, a, b, fmt, CHUNK_COUNT,
                                        rng.randrange(2 ** (CHUNK_POW2_OMEGA - 1))))
            elif kind == "lcg":
                # Stratified starts: every seed spreads the O(start) skips evenly
                # over [0, CHUNK_LCG_MAX_START), which steadies the p99.
                start = int(CHUNK_LCG_MAX_START * (i + rng.random()) / n_ops)
                a = 4 * rng.randrange(2**29) + 1
                b = 2 * rng.randrange(2**30) + 1
                ops.append(lcg_op(name, a, b, CHUNK_LCG_Q, rng.randrange(CHUNK_LCG_Q),
                                  CHUNK_COUNT, fmt, start))
            else:
                primes = sorted(rng.sample(small_primes, 2))
                ops.append(compound_op(name, primes, CHUNK_COUNT, fmt, rng.randrange(10_000)))
    rng.shuffle(ops)
    return ops


def verify_sweeps(seed: int) -> list[Op]:
    rng = random.Random(f"verify-sweeps:{seed}")
    pool = [p for p in range(*VERIFY_PRIME_POOL) if is_prime(p)]
    pair, triple = sorted(rng.sample(pool, 2)), sorted(rng.sample(pool, 3))
    (t_lo, t_hi), t_qmax = VERIFY_THEOREM1
    (c_lo, c_hi), c_qmax = VERIFY_CLOSURE
    ops = [
        verify_op("verify-gauss", "gauss", ["--qmax", str(VERIFY_GAUSS_QMAX)],
                  gauss_cases(VERIFY_GAUSS_QMAX)),
        verify_op("verify-theorem1", "theorem1", ["-M", f"{t_lo}..{t_hi}", "--qmax", str(t_qmax)],
                  theorem1_cases((t_lo, t_hi), t_qmax)),
        verify_op("verify-closure", "closure", ["-M", f"{c_lo}..{c_hi}", "--qmax", str(c_qmax)],
                  closure_cases((c_lo, c_hi), c_qmax)),
    ]
    for label, primes in (("pair", pair), ("triple", triple)):
        ops.append(verify_op(f"verify-compound-{label}", "compound",
                             ["--primes", ",".join(map(str, primes)), "--pmax", str(VERIFY_PMAX)],
                             compound_cases(primes, VERIFY_PMAX)))
    return ops


def serial_stats(seed: int) -> list[Op]:
    rng = random.Random(f"serial-stats:{seed}")
    q2, q3 = SERIAL_K2_Q, SERIAL_K3_Q
    return [
        serial_op("stats-serial-k2", q2, rng.randrange(1, q2), rng.randrange(q2), 2,
                  (0, rng.randrange(1, q2))),
        serial_op("stats-serial-k3", q3, rng.randrange(1, q3), rng.randrange(q3), 3,
                  (0, *sorted(rng.sample(range(1, q3), 2)))),
        chi2_op("stats-chi2-vfe", prime_near(rng, CHI2_Q, 64), rng.randrange(10, 101)),
        randu_planes_op("stats-randu-planes", RANDU_PLANES_COUNT),
    ]


WORKLOADS = {
    "generate-bulk": generate_bulk,
    "generate-chunked": generate_chunked,
    "verify-sweeps": verify_sweeps,
    "serial-stats": serial_stats,
}

# Workloads of a few large operations; the traced run times each of them as
# op.<name>_s.  Operation names do not depend on the seed.
NAMED_OP_WORKLOADS = ("generate-bulk", "verify-sweeps", "serial-stats")


def named_ops() -> list[str]:
    return [op.name for w in NAMED_OP_WORKLOADS for op in WORKLOADS[w](0)]


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)
