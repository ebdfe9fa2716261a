"""Pseudorandom streams.

The circle stream reads off the tangent-evolution closed form for every
admissible index p; explicit inversive generators (prime and power-of-two
moduli) and a linear congruential reference (including the RANDU preset)
accompany it.  Every unit-interval stream is a `Stream`: the exact integer
states x_n with their indices and modulus.  All streams are deterministic
and restartable from (spec, start index); disjoint ranges concatenate
bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import BadParameters, BadPrimes, CompositeModulus, InvariantViolation, RangeError, TooLarge
from .filament import circle_row, corner_angle
from .modular import (
    MAX_MODULUS,
    coprime_window,
    euler_totient,
    inverse_row,
    is_probable_prime,
    phi_p,
    phi_row,
)

# Samples one stream call may return; every stream holds its window in
# int64 arrays, so the budget bounds memory and time before any work.
MAX_STREAM_SAMPLES = 2**24

# Largest residual of the circle-product identity a compound stream emits;
# the compound sweep passes below it.
COMPOUND_TOLERANCE = 1e-9


class StreamKind(Enum):
    EICG = "eicg"
    EICG_POW2 = "eicg-pow2"
    LCG = "lcg"
    COMPOUND = "compound"


@dataclass(frozen=True, eq=False)
class Stream:
    """Integer states x_n in Z_modulus at stream indices n (int64 arrays).

    Indexing gives the same record for one index or a slice.  MAX_MODULUS
    keeps every state in an int64 and makes u = x / modulus the correctly
    rounded double of the exact fraction.
    """

    n: np.ndarray
    x: np.ndarray
    modulus: int

    @property
    def u(self) -> np.ndarray:
        """The normalized samples x_n / modulus in [0, 1)."""
        return self.x / self.modulus

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, index) -> "Stream":
        return Stream(self.n[index], self.x[index], self.modulus)


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of one stream; prefer the classmethod constructors."""

    kind: StreamKind
    q: int = 0
    a: int = 0
    b: int = 0
    x0: int = 0
    primes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.modulus > MAX_MODULUS:
            raise RangeError(
                f"{self.kind.value} modulus {self.modulus} exceeds supported bound 2**31"
            )
        if self.kind is StreamKind.EICG:
            if not is_probable_prime(self.q):
                raise CompositeModulus(f"EICG modulus {self.q} is not prime")
            if self.a % self.q == 0:
                raise BadParameters("EICG needs a != 0 mod q")
        elif self.kind is StreamKind.EICG_POW2:
            if self.q < 32 or self.q & (self.q - 1):
                raise BadParameters(
                    f"modulus must be 2**omega with omega >= 5, got {self.q}"
                )
            if self.a % 4 != 2:
                raise BadParameters(f"need a = 2 mod 4, got a={self.a}")
            if self.b % 2 != 1:
                raise BadParameters(f"need odd b, got b={self.b}")
        elif self.kind is StreamKind.LCG:
            if self.q < 1:
                raise BadParameters(f"LCG modulus must be positive, got {self.q}")
        elif self.kind is StreamKind.COMPOUND:
            if not self.primes or len(set(self.primes)) != len(self.primes):
                raise BadPrimes(f"need distinct primes, got {self.primes}")
            for prime in self.primes:
                if prime < 5 or not is_probable_prime(prime):
                    raise BadPrimes(f"need distinct primes >= 5, got {self.primes}")

    @property
    def modulus(self) -> int:
        """The defining modulus, at most MAX_MODULUS: q, or prod(primes) for
        compound."""
        if self.kind is StreamKind.COMPOUND:
            return math.prod(self.primes)
        return self.q

    @classmethod
    def lcg(cls, a: int, b: int, q: int, x0: int = 1) -> "StreamSpec":
        return cls(kind=StreamKind.LCG, q=q, a=a, b=b, x0=x0)

    @classmethod
    def eicg(cls, q: int, a: int = 4, b: int = 0) -> "StreamSpec":
        return cls(kind=StreamKind.EICG, q=q, a=a, b=b)

    @classmethod
    def eicg_pow2(cls, omega: int, a: int = 2, b: int = 1) -> "StreamSpec":
        # Checked before shifting: a negative omega cannot shift and a huge
        # one would build a huge int before the modulus bound is checked.
        if omega < 5:
            raise BadParameters(f"need omega >= 5, got omega={omega}")
        if omega >= MAX_MODULUS.bit_length():
            raise RangeError(
                f"eicg-pow2 modulus 2**{omega} exceeds supported bound 2**31"
            )
        return cls(kind=StreamKind.EICG_POW2, q=1 << omega, a=a, b=b)

    @classmethod
    def compound(cls, primes: Sequence[int]) -> "StreamSpec":
        return cls(kind=StreamKind.COMPOUND, primes=tuple(primes))


def randu_preset() -> StreamSpec:
    """The historically popular LCG x_{n+1} = 65539 x_n mod 2**31, seed 1."""
    return StreamSpec.lcg(a=65539, b=0, q=2**31, x0=1)


def _expect(spec: StreamSpec, kind: StreamKind) -> None:
    if spec.kind is not kind:
        raise BadParameters(f"expected a {kind.value} spec, got {spec.kind.value}")


def check_budget(count: int) -> None:
    """Refuse a stream of more than MAX_STREAM_SAMPLES samples."""
    if count > MAX_STREAM_SAMPLES:
        raise TooLarge(f"streams limited to {MAX_STREAM_SAMPLES} samples (2**24), got {count}")


def check_indices(start: int, count: int) -> None:
    """Refuse the indices start, ..., start + count - 1 unless start and
    count are nonnegative, the last index fits an int64 exactly and the
    count is within MAX_STREAM_SAMPLES: the check of the index streams."""
    if start < 0 or count < 0:
        raise RangeError(f"stream window needs start, count >= 0, got {start}, {count}")
    if start + max(count, 1) > 2**63:
        raise RangeError(
            f"stream indices from {start} for {count} samples exceed the int64 bound 2**63 - 1"
        )
    check_budget(count)


def _indices(start: int, count: int) -> np.ndarray:
    """The int64 stream indices start, ..., start + count - 1, refused by
    check_indices before any work."""
    check_indices(start, count)
    return np.arange(start, start + count, dtype=np.int64)


def _affine_power(a: int, b: int, q: int, steps: int) -> tuple[int, int]:
    """(A, B) such that x -> A x + B mod q is the steps-fold power of
    x -> a x + b mod q, by square-and-multiply over Python ints, steps >= 0."""
    A, B = 1 % q, 0
    a, b = a % q, b % q
    while steps:
        if steps & 1:
            A, B = a * A % q, (a * B + b) % q
        a, b = a * a % q, (a * b + b) % q
        steps >>= 1
    return A, B


def lcg_stream(spec: StreamSpec, count: int, start: int = 0) -> Stream:
    """x_{n+1} = a x_n + b mod q from x0, normalized to u_n = x_n / q.

    The first state is x0 under the start-fold map, by jump-ahead (F. Brown,
    "Random number generation with arbitrary strides", 1994); the window is
    then filled by doubling: block [f, 2f) is A_f x[:f] + B_f mod q, with
    (A_f, B_f) the f-fold map, squared after each block.  Every operand is
    reduced below q <= 2**31, so products stay below 2**62, and the work is
    O(log start + count) with no array beyond the indices and states.  Every
    state is non-negative, so for a power-of-two q (RANDU's 2**31) the mask
    q - 1 reduces a block to the same states as % q, and faster.
    """
    _expect(spec, StreamKind.LCG)
    indices = _indices(start, count)
    q = spec.q
    x = np.empty(len(indices), dtype=np.int64)
    if len(x):
        jump, shift = _affine_power(spec.a, spec.b, q, start)
        x[0] = (jump * spec.x0 + shift) % q
        step, offset = spec.a % q, spec.b % q
        mask = q - 1 if q & (q - 1) == 0 else None
        filled = 1
        while filled < len(x):
            block = x[filled : 2 * filled]
            np.multiply(x[: len(block)], step, out=block)
            block += offset
            if mask is None:
                block %= q
            else:
                block &= mask
            step, offset = step * step % q, (step * offset + offset) % q
            filled += len(block)
    return Stream(indices, x, q)


def _inversive_stream(spec: StreamSpec, count: int, start: int) -> Stream:
    """x_n = (a n + b)^-1 mod q, 0 -> 0; n is reduced mod q first, so a n fits an int64."""
    indices = _indices(start, count)
    q = spec.q
    v = (spec.a % q * (indices % q) + spec.b % q) % q
    return Stream(indices, inverse_row(v, q) * (v != 0), q)


def eicg_stream(spec: StreamSpec, count: int, start: int = 0) -> Stream:
    """Explicit inversive stream x_n = (a n + b)^-1 mod prime q, 0 -> 0.

    Inverses come from inverse_row (Fermat's route v^(q-2) mod q); one full
    period visits every residue of Z_q exactly once.
    """
    _expect(spec, StreamKind.EICG)
    return _inversive_stream(spec, count, start)


def eicg_pow2_stream(spec: StreamSpec, count: int, start: int = 0) -> Stream:
    """Power-of-two inversive stream x_n = (a n + b)^-1 mod 2**omega.

    With a = 2 mod 4 and odd b the argument is always odd, the period is
    2**(omega-1), and one period visits exactly the odd residues.
    """
    _expect(spec, StreamKind.EICG_POW2)
    return _inversive_stream(spec, count, start)


def vfe_window_count(q: int, start: int, count: int | None = None) -> int:
    """Residues in the circle stream's window of `count` residues (all the
    rest when None) from the start-th: truncated at the phi(q) - start
    residues left in the period (none for q = 1, whose period [1, 1) is
    empty).  The period q - 1 is held to MAX_STREAM_SAMPLES first."""
    check_budget(q - 1)
    left = max(euler_totient(q) - (q == 1) - start, 0)
    return left if count is None else min(count, left)


def vfe_unit_samples(q: int, start: int = 0, count: int | None = None) -> Stream:
    """The circle phases x_p = phi(p) in the effective modulus, one per
    residue p coprime to q, ascending p: the window of `count` residues
    (all the rest when None) from the start-th.

    For prime q these coincide with eicg_stream(q, a=4, b=0) at indices p.
    The window's residues come from coprime_window, vfe_window_count of
    them, and phi is taken once per residue of the window.
    """
    if start < 0 or (count is not None and count < 0):
        raise RangeError(f"vfe window needs start, count >= 0, got {start}, {count}")
    residues = coprime_window(q, start, vfe_window_count(q, start, count))
    phis = np.fromiter((phi_p(p, q)[0] for p in residues.tolist()), np.int64, len(residues))
    return Stream(residues, phis, phi_p(1, q)[1])


def compound_window(sides: int, primes: Sequence[int], count: int, start: int = 0) -> tuple[Stream, np.ndarray]:
    """The compound states x_p at the count admissible indices p from the
    start-th (one coprime_window, O(log start + count)), and each one's
    residual |prod_j (c_j^2 + i z_j(p)) / s_j^2 - exp(2 pi i u_p)|, unchecked.

    Each prime's phi_j(p) row is taken once, for its term of the exact
    Chinese-remainder sum over prod(q_j) <= 2**31 and for its circle point
    z_j(p) of phase phi_j(p) / q_j (index 0 of the closed form at p / q_j).
    """
    spec = StreamSpec.compound(primes)
    check_budget(count)
    modulus = spec.modulus
    ns = coprime_window(modulus, start, count)
    x = np.zeros(len(ns), dtype=np.int64)
    lhs = np.ones(len(ns), dtype=complex)
    for qj in spec.primes:
        phi = phi_row(ns, qj)[0]
        x += phi * (modulus // qj)
        angle = corner_angle(sides, qj)
        lhs *= (angle.cos_rho**2 + 1j * circle_row(angle, phi / qj)) / angle.sin_rho**2
    stream = Stream(ns, x % modulus, modulus)
    return stream, np.abs(lhs - np.exp(2j * math.pi * stream.u))


def compound_stream(sides: int, primes: Sequence[int], count: int, start: int = 0) -> Stream:
    """Combined phases u_p = sum_j phi_j(p)/q_j mod 1 with phi_j = (4p)^-1
    mod q_j, over indices p coprime to every prime, ascending.

    x_p is assembled exactly over the common denominator prod(q_j), and
    the window is refused unless every residual of compound_window is
    within COMPOUND_TOLERANCE.
    """
    stream, residual = compound_window(sides, primes, count, start)
    failing = np.flatnonzero(~(residual <= COMPOUND_TOLERANCE))  # a NaN residual fails too
    if failing.size:
        raise InvariantViolation(
            f"circle-product identity violated at p={stream.n[failing[0]]} for primes {tuple(primes)}"
        )
    return stream
