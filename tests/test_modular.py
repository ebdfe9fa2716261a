import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filament_prng.errors import EvenModulus, NotCoprime, RangeError
from filament_prng.modular import (
    MAX_MODULUS,
    _prime_factors,
    coprime_count,
    coprime_window,
    euler_totient,
    factor_pow2,
    inverse_row,
    is_probable_prime,
    jacobi_row,
    phi_p,
    phi_row,
    pow_row,
)
from filament_prng.filament import z_qm_closed
from filament_prng.prng import StreamSpec, eicg_stream
from helpers import (
    NotInvertible,
    coprime_reference,
    coprimes_by_gcd,
    factorize,
    inverse_by_search,
    jacobi,
    jacobi_by_factorization,
    mod_inverse,
    sieve_primes,
    totient_by_count,
)

PRIMES_1K = sieve_primes(1000)


@pytest.mark.parametrize("a,n,expected", [(1, 7, 1), (4, 5, 4), (3, 7, 5)])
def test_mod_inverse_examples(a, n, expected):
    assert mod_inverse(a, n) == expected


def test_mod_inverse_mod_one_is_zero():
    assert mod_inverse(5, 1) == 0
    assert mod_inverse(0, 1) == 0


def test_mod_inverse_rejects_noncoprime():
    with pytest.raises(NotInvertible):
        mod_inverse(6, 9)


@given(st.integers(min_value=1, max_value=10**4), st.integers())
def test_mod_inverse_property(n, a):
    if math.gcd(a, n) == 1:
        inv = mod_inverse(a, n)
        assert (a * inv - 1) % n == 0 or n == 1
    elif n > 1:
        with pytest.raises(NotInvertible):
            mod_inverse(a, n)


def test_mod_inverse_exhaustive_small():
    for n in range(1, 120):
        for a in range(n):
            if math.gcd(a, n) == 1:
                assert a * mod_inverse(a, n) % n == 1 % n


def test_fermat_inverse_matches_mod_inverse_on_primes():
    # EICG inverts by Fermat's route; with a = 1, b = 0 its x_n is n^-1
    for p in PRIMES_1K:
        xs = eicg_stream(StreamSpec.eicg(p, a=1, b=0), p).x.tolist()
        for a in range(1, p):
            assert xs[a] == mod_inverse(a, p)


@pytest.mark.parametrize("n", [1, 2, 3, 101, 2**31 - 1, 2**31])
def test_pow_row_matches_pow(n):
    # n - 1 squared is the largest product a reduced operand can make
    residues = sorted({0, 1, 2, n // 2, n - 1, 12345 % n})
    values = residues + [-1, n, 3 * n + 1, 2**62]  # reduced before any product
    for e in sorted({0, 1, max(n - 2, 0), 2**30 - 1, 65537}):
        row = pow_row(np.array(values, dtype=np.int64), e, n)
        assert row.dtype == np.int64
        assert row.tolist() == [pow(v, e, n) for v in values]


def test_inverse_row_matches_search():
    for n in range(1, 201):
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        row = inverse_row(np.array(units, dtype=np.int64), n)
        assert row.tolist() == [inverse_by_search(a, n) for a in units], n


def test_pow_row_refusals():
    with pytest.raises(RangeError):
        pow_row(np.arange(3), -1, 7)
    with pytest.raises(RangeError):
        pow_row(np.arange(3), 2, 2**31 + 1)
    with pytest.raises(RangeError):
        pow_row(np.arange(3), 2, 0)


@pytest.mark.parametrize("a,n,expected", [(5, 1, 1), (2, 3, -1), (5, 9, 1)])
def test_jacobi_examples(a, n, expected):
    assert jacobi_row(a, n) == jacobi(a, n) == expected


def test_jacobi_even_modulus_rejected():
    for n in (10, 2, 0, -3):
        with pytest.raises(EvenModulus):
            jacobi_row(3, n)
        with pytest.raises(EvenModulus):
            jacobi(3, n)


def test_jacobi_matches_legendre_products():
    for n in range(1, 1000, 2):
        row = jacobi_row(np.arange(n, dtype=np.int64), n)
        assert row.tolist() == [jacobi_by_factorization(a, n) for a in range(n)], n


def test_jacobi_squared_is_one_when_coprime():
    for n in range(1, 200, 2):
        for a, symbol in enumerate(jacobi_row(np.arange(n, dtype=np.int64), n).tolist()):
            if math.gcd(a, n) == 1:
                assert symbol * symbol == 1
            else:
                assert symbol == 0


def test_jacobi_row_matches_scalar_jacobi_on_every_residue_class():
    # every a in [-n, 2n): negative and unreduced entries are reduced first
    for n in range(1, 600, 2):
        a = np.arange(-n, 2 * n, dtype=np.int64)
        row = jacobi_row(a, n)
        assert row.dtype == np.int64 and row.shape == a.shape
        expected = [jacobi(v, n) for v in a.tolist()]
        assert row.tolist() == expected, n
        assert expected == [jacobi_by_factorization(v, n) for v in a.tolist()], n


def test_jacobi_row_on_the_sweep_moduli():
    # the closed form's symbols (p | q') over the coprime p of every q <= 300
    for q in range(1, 301):
        q_odd = q >> ((q & -q).bit_length() - 1)
        ps = coprimes_by_gcd(q) or [1]
        row = jacobi_row(np.array(ps, dtype=np.int64), q_odd)
        assert row.tolist() == [jacobi(p, q_odd) for p in ps], q
        assert row.tolist() == [jacobi_by_factorization(p, q_odd) for p in ps], q
    assert jacobi_row(2**70 + 3, 7) == jacobi((2**70 + 3) % 7, 7)
    assert jacobi_row(np.arange(4).reshape(2, 2), 3).tolist() == [[0, 1], [-1, 0]]


@pytest.mark.parametrize("q,expected", [(1, 1), (12, 4), (7, 6)])
def test_totient_examples(q, expected):
    assert euler_totient(q) == expected


def test_totient_against_direct_count():
    for q in range(1, 301):
        assert euler_totient(q) == totient_by_count(q)


@given(
    st.integers(min_value=1, max_value=999),
    st.integers(min_value=1, max_value=999),
)
def test_totient_multiplicative(a, b):
    if math.gcd(a, b) == 1 and a * b <= MAX_MODULUS:
        assert euler_totient(a * b) == euler_totient(a) * euler_totient(b)


def test_prime_factors_match_factorization():
    # a prime cofactor ends the trial division early; the factors and their
    # order are the ones full trial division finds
    large = [2**31 - 1, 2**31, 2 * 1_073_741_789, 46_337**2, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]
    for n in list(range(1, 5001)) + large:
        assert _prime_factors(n) == tuple(sorted(factorize(n))), n


def test_prime_factors_memo_matches_uncached_trial_division():
    # the cached tuple is the one a fresh trial division returns, on the
    # first call and on every call after, and no caller can change it
    moduli = [1, 2, 35, 1009, 2**31 - 1, 2**31, 46_337 * 46_309, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]
    _prime_factors.cache_clear()
    for n in moduli * 3:
        uncached = _prime_factors.__wrapped__(n)
        assert isinstance(uncached, tuple)
        assert _prime_factors(n) == uncached == tuple(sorted(factorize(n))), n
    info = _prime_factors.cache_info()
    assert (info.misses, info.hits) == (len(moduli), 2 * len(moduli))
    assert euler_totient(46_337 * 46_309) == 46_336 * 46_308


def test_totient_halving_identity():
    # phi(q) = phi(q/2) whenever q = 2 mod 4
    for q in range(2, 1001, 4):
        assert euler_totient(q) == euler_totient(q // 2)


@pytest.mark.parametrize(
    "q,r,q_odd", [(12, 2, 3), (7, 0, 7), (8, 3, 1), (1, 0, 1)]
)
def test_factor_pow2_examples(q, r, q_odd):
    assert factor_pow2(q) == (r, q_odd)


@given(st.integers(min_value=1, max_value=MAX_MODULUS))
def test_factor_pow2_reconstructs(q):
    r, q_odd = factor_pow2(q)
    assert q_odd % 2 == 1
    assert (1 << r) * q_odd == q


@pytest.mark.parametrize(
    "p,q,phi,eff",
    [(1, 5, 4, 5), (1, 6, 1, 3), (3, 8, 3, 8)],
)
def test_phi_p_examples(p, q, phi, eff):
    assert phi_p(p, q) == (phi, eff)


def test_phi_p_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        phi_p(2, 6)


def test_phi_p_defining_congruence():
    for q in range(1, 150):
        for p in coprimes_by_gcd(q) or [1]:
            phi, _ = phi_p(p, q)
            if q % 2 == 1:
                assert 4 * p * phi % q == 1 % q
            elif q % 4 == 2:
                assert p * phi % (q // 2) == 1 % (q // 2)
            else:
                assert p * phi % q == 1 % q


def test_phi_p_bijection_on_units():
    # injective in p, and onto the unit group of the effective modulus
    for q in range(2, 200):
        residues = coprimes_by_gcd(q)
        values = [phi_p(p, q)[0] for p in residues]
        assert len(set(values)) == len(residues)
        eff = phi_p(residues[0], q)[1]
        assert set(values) == {v for v in range(eff) if math.gcd(v, eff) == 1}


def test_phi_row_matches_phi_p():
    for q in range(1, 301):
        ps = coprimes_by_gcd(q) or [1]
        phi, den = phi_row(np.array(ps, dtype=np.int64), q)
        assert phi.dtype == np.int64
        assert [(v, den) for v in phi.tolist()] == [phi_p(p, q) for p in ps], q
    rng = np.random.default_rng(2013)
    for q in (2**31 - 1, 2**31, 2**30 + 2):
        draws = rng.integers(1, q, 256).tolist()
        ps = [p for p in draws if math.gcd(p, q) == 1][:64]
        assert len(ps) == 64
        phi, den = phi_row(np.array(ps, dtype=np.int64), q)
        assert [(v, den) for v in phi.tolist()] == [phi_p(p, q) for p in ps], q
    assert phi_row(7, 10)[0].ndim == 0 and (int(phi_row(7, 10)[0]), 5) == phi_p(7, 10)


def test_phi_row_refusal_names_the_first_bad_p():
    with pytest.raises(NotCoprime, match=r"p=6 and q=15 "):
        phi_row(np.array([1, 2, 6, 10, 4], dtype=np.int64), 15)
    with pytest.raises(NotCoprime, match=r"p=5 and q=15 "):
        phi_row(5, 15)
    with pytest.raises(NotCoprime, match=r"p=10 and q=15 "):
        z_qm_closed(3, 15, np.array([[1], [2], [10], [6]], dtype=np.int64), np.arange(4))


# Moduli of the window tests: the unit ring, small primes, powers of two, the
# largest prime and power of two accepted, and the largest primorial below
# 2**31, whose 2**9 squarefree divisors are the most a modulus can have.
WINDOW_MODULI = [1, 2, 3, 101, 2**16, 2**31 - 1, 2**31, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]
WINDOW_STARTS = [0, 1, 10**6, 10**18, 2**63 - 4]
WINDOW_COUNTS = [0, 1, 2, 3] + [2**k + d for k in (2, 5, 9) for d in (-1, 1)]


@pytest.mark.parametrize("m", WINDOW_MODULI)
def test_coprime_window_matches_enumeration(m):
    for start in WINDOW_STARTS:
        for count in WINDOW_COUNTS:
            expected = coprime_reference(m, start, count)
            if expected and expected[-1] >= 2**63:
                with pytest.raises(RangeError):
                    coprime_window(m, start, count)
                continue
            window = coprime_window(m, start, count)
            assert window.dtype == np.int64
            assert window.tolist() == expected, (start, count)


def test_coprime_window_small_moduli_match_enumeration():
    for m in range(1, 200):
        units = [k for k in range(1, 4 * m + 200) if math.gcd(k, m) == 1]
        for start in (0, 1, len(units) // 3):
            assert coprime_window(m, start, 20).tolist() == units[start : start + 20]
        assert coprime_count(m, 4 * m + 199) == len(units)
    assert coprime_count(35, 0) == coprime_count(35, -5) == 0


@pytest.mark.parametrize("m", WINDOW_MODULI)
def test_coprime_windows_concatenate(m):
    s = 10**12
    for a, b in [(0, 5), (1, 1), (3, 2**5 + 1), (2**9 - 1, 2)]:
        whole = coprime_window(m, s, a + b).tolist()
        assert whole == coprime_window(m, s, a).tolist() + coprime_window(m, s + a, b).tolist()


def test_coprime_window_refusals():
    for start, count in [(-1, 3), (0, -1)]:
        with pytest.raises(RangeError):
            coprime_window(35, start, count)
    with pytest.raises(RangeError):
        coprime_window(35, 7 * 10**18, 4)  # the last value, near 35/24 of it, passes int64
    with pytest.raises(RangeError):
        coprime_window(MAX_MODULUS + 1, 0, 1)


def test_range_guard():
    with pytest.raises(RangeError):
        inverse_row(np.array([3]), MAX_MODULUS + 1)
    with pytest.raises(RangeError):
        jacobi_row(3, MAX_MODULUS + 1)
    with pytest.raises(RangeError):
        euler_totient(0)


def test_is_probable_prime_against_sieve():
    prime_set = set(sieve_primes(2000))
    for n in range(2000):
        assert is_probable_prime(n) == (n in prime_set)
