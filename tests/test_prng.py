import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from filament_prng import prng
from filament_prng.errors import BadParameters, BadPrimes, CompositeModulus, RangeError, TooLarge
from filament_prng.filament import circle_row, corner_angle
from filament_prng.modular import euler_totient
from filament_prng.prng import (
    MAX_STREAM_SAMPLES,
    Stream,
    StreamSpec,
    compound_stream,
    eicg_pow2_stream,
    eicg_stream,
    lcg_stream,
    randu_preset,
    vfe_unit_samples,
)
from helpers import coprime_reference, lcg_reference, max_pairs_on_a_line, mod_inverse


def assert_concatenates(whole: Stream, head: Stream, tail: Stream) -> None:
    assert whole.modulus == head.modulus == tail.modulus
    assert whole.n.tolist() == head.n.tolist() + tail.n.tolist()
    assert whole.x.tolist() == head.x.tolist() + tail.x.tolist()


def test_spec_validation_errors():
    with pytest.raises(CompositeModulus):
        StreamSpec.eicg(10)
    with pytest.raises(BadParameters):
        StreamSpec.eicg(7, a=7)
    with pytest.raises(BadParameters):
        StreamSpec.eicg_pow2(4)  # omega too small
    with pytest.raises(BadParameters):
        StreamSpec.eicg_pow2(-1)  # refused before shifting by it
    with pytest.raises(BadParameters):
        StreamSpec.eicg_pow2(5, a=4)  # a must be 2 mod 4
    with pytest.raises(BadParameters):
        StreamSpec.eicg_pow2(5, b=2)  # b must be odd
    with pytest.raises(BadPrimes):
        StreamSpec.compound((3, 7))  # primes must be >= 5
    with pytest.raises(BadPrimes):
        StreamSpec.compound((5, 5))
    with pytest.raises(BadPrimes):
        StreamSpec.compound((5, 9))
    with pytest.raises(BadParameters):
        StreamSpec.lcg(a=3, b=1, q=0)


def test_spec_modulus_bound():
    # int64 states need every modulus within MAX_MODULUS = 2**31
    assert StreamSpec.lcg(a=3, b=1, q=2**31).modulus == 2**31
    assert StreamSpec.eicg_pow2(31).modulus == 2**31
    assert StreamSpec.compound((5, 7, 11, 13, 17, 19, 23, 29)).modulus < 2**31
    with pytest.raises(RangeError):
        StreamSpec.eicg(4294967311)  # prime
    with pytest.raises(RangeError):
        StreamSpec.eicg_pow2(32)
    with pytest.raises(RangeError):
        StreamSpec.eicg_pow2(10**12)  # refused before 2**omega is built
    with pytest.raises(RangeError):
        StreamSpec.lcg(a=3, b=1, q=2**31 + 1)
    with pytest.raises(RangeError):
        StreamSpec.compound((5, 7, 11, 13, 17, 19, 23, 29, 31))


def test_lcg_fixed_point():
    spec = StreamSpec.lcg(a=1, b=0, q=8, x0=5)
    samples = lcg_stream(spec, 6)
    assert samples.u.tolist() == [5 / 8] * 6
    assert samples.n.tolist() == list(range(6))


def test_randu_first_terms():
    spec = randu_preset()
    assert (spec.a, spec.b, spec.q, spec.x0) == (65539, 0, 2**31, 1)
    assert lcg_stream(spec, 3).x.tolist() == [1, 65539, 393225]


def test_randu_recurrence_exact():
    q = 2**31
    xs = lcg_stream(randu_preset(), 100_000).x.tolist()
    for x0, x1, x2 in zip(xs, xs[1:], xs[2:]):
        assert (9 * x0 - 6 * x1 + x2) % q == 0


def test_lcg_full_period():
    spec = StreamSpec.lcg(a=5, b=3, q=16, x0=0)
    xs = lcg_stream(spec, 17).x.tolist()
    assert sorted(xs[:16]) == list(range(16))
    assert xs[16] == xs[0]


def test_lcg_restart_is_bit_identical():
    spec = StreamSpec.lcg(a=69069, b=1, q=2**16, x0=7)
    assert_concatenates(
        lcg_stream(spec, 40), lcg_stream(spec, 20), lcg_stream(spec, 20, start=20)
    )


# Moduli of the jump-ahead tests: the unit ring, small primes, powers of
# two, the largest prime and power of two accepted, and the largest
# primorial below 2**31.
LCG_MODULI = [1, 2, 3, 101, 2**16, 2**31 - 1, 2**31, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]
LCG_STARTS = [0, 1, 10**6, 10**18, 2**63 - 4]
# Doubling fills blocks of 1, 2, 4, ...: counts 2**k +- 1 end on a short block.
LCG_COUNTS = [0, 1, 2, 3] + [2**k + d for k in (2, 3, 4, 7, 10) for d in (-1, 1)]


@pytest.mark.parametrize("q", LCG_MODULI)
def test_lcg_matches_closed_form_reference(q):
    rng = random.Random(q)
    for a in [0, 1, q - 1, -rng.randrange(1, 3 * q + 2), q + 1 + rng.randrange(3 * q)]:
        b = rng.choice([-1, 1]) * rng.randrange(4 * q + 3)
        x0 = rng.randrange(-q, 3 * q + 1)
        spec = StreamSpec.lcg(a, b, q, x0)
        for start in LCG_STARTS:
            for count in LCG_COUNTS:
                if start + count > 2**63:
                    with pytest.raises(RangeError):
                        lcg_stream(spec, count, start)
                    continue
                stream = lcg_stream(spec, count, start)
                assert stream.n.tolist() == list(range(start, start + count))
                assert stream.x.tolist() == lcg_reference(a, b, q, x0, start, count), (a, start, count)


@pytest.mark.parametrize(
    "spec",
    [
        randu_preset(),
        StreamSpec.lcg(a=69069, b=12345, q=2**16, x0=7),
        StreamSpec.lcg(a=48271, b=11, q=2**31 - 1, x0=3),
    ],
    ids=["randu-2^31", "2^16", "odd-q"],
)
def test_lcg_states_are_the_integer_recurrence(spec):
    # A power-of-two q reduces each doubling block by the mask q - 1, any
    # other q by %: both give the states of the recurrence stepped in Python
    # integers, on counts that end just before, on and after a block seam.
    far, longest = 10**6, 2**12 + 1
    head, tail, x = [], [], spec.x0 % spec.q
    for n in range(far + longest):
        if n <= longest:
            head.append(x)
        if n >= far:
            tail.append(x)
        x = (spec.a * x + spec.b) % spec.q
    for count in [1, 2, 3, 4, 5, 7, 8, 9, 2**11 - 1, 2**11, 2**11 + 1, 2**12, longest]:
        assert lcg_stream(spec, count).x.tolist() == head[:count]
        assert lcg_stream(spec, count, 1).x.tolist() == head[1 : count + 1]
        assert lcg_stream(spec, count, far).x.tolist() == tail[:count]


def test_lcg_windows_concatenate_far_out():
    s = 10**12
    for spec in [randu_preset(), StreamSpec.lcg(a=69069, b=1, q=2**31 - 1, x0=7)]:
        for a, b in [(0, 5), (1, 1), (3, 2**5 + 1), (2**9 - 1, 2)]:
            assert_concatenates(lcg_stream(spec, a + b, s), lcg_stream(spec, a, s), lcg_stream(spec, b, s + a))


def test_lcg_window_holds_only_its_indices_and_states():
    # The fill doubles in place inside the state array: the traced peak is
    # the index and state arrays, 2 * 8 bytes per sample, and no Python list.
    count = 2**18
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stream = lcg_stream(randu_preset(), count, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream) == count
    assert peak - before < 2.25 * 8 * count


@pytest.mark.parametrize(
    "window",
    [
        lambda count, start: eicg_stream(StreamSpec.eicg(101), count, start),
        lambda count, start: eicg_pow2_stream(StreamSpec.eicg_pow2(5), count, start),
        lambda count, start: lcg_stream(randu_preset(), count, start),
        lambda count, start: compound_stream(3, (5, 7), count, start),
        lambda count, start: vfe_unit_samples(101, start, count),
    ],
    ids=["eicg", "eicg-pow2", "lcg", "compound", "vfe"],
)
def test_streams_refuse_negative_windows(window):
    # a negative count is not an empty window, nor a negative start the
    # indices before 0
    for count, start in ((3, -1), (-1, 0)):
        with pytest.raises(RangeError):
            window(count, start)


def test_stream_record_protocol():
    q = 2**31 - 1
    stream = eicg_stream(StreamSpec.eicg(q, a=65539, b=3), 8, start=10**6)
    assert len(stream) == 8 and stream
    assert not compound_stream(3, (5, 7), 0)
    last = stream[-1]
    assert (last.n, last.x, last.modulus) == (stream.n[-1], stream.x[-1], q)
    assert len(stream[2:5]) == 3
    for n, x, u in zip(stream.n.tolist(), stream.x.tolist(), stream.u.tolist()):
        assert x == pow(65539 * n + 3, -1, q)
        assert u == x / q  # the correctly rounded double of the exact fraction


def test_eicg_inverse_table_q5():
    samples = eicg_stream(StreamSpec.eicg(5, a=1, b=0), 5)
    assert samples.x.tolist() == [0, 1, 3, 2, 4]


def test_eicg_full_period_is_permutation():
    # at q = 2 the Fermat exponent q - 2 is 0, and 0 must still map to 0
    for q, a, b in [(2, 1, 0), (3, 1, 0), (7, 1, 0), (101, 4, 0), (101, 17, 5), (499, 3, 11)]:
        samples = eicg_stream(StreamSpec.eicg(q, a, b), q)
        assert set(samples.x.tolist()) == set(range(q))


def test_eicg_matches_fermat_inverse():
    q, a, b = 13, 4, 0
    samples = eicg_stream(StreamSpec.eicg(q, a, b), q)
    for n, x in zip(samples.n.tolist(), samples.x.tolist()):
        v = (a * n + b) % q  # Fermat's route maps 0 to 0
        assert x == (mod_inverse(v, q) if v else 0)


def test_eicg_a4_matches_phi_map():
    # with a = 4, b = 0 the stream reads off the odd-case inverse map
    from filament_prng.modular import phi_p

    q = 5
    samples = eicg_stream(StreamSpec.eicg(q, a=4, b=0), q)
    for p in range(1, q):
        assert samples.x[p] == phi_p(p, q)[0]


def test_eicg_restart():
    spec = StreamSpec.eicg(101, 7, 3)
    assert_concatenates(
        eicg_stream(spec, 101), eicg_stream(spec, 50), eicg_stream(spec, 51, start=50)
    )


def test_eicg_index_at_int64_bound_is_exact():
    spec = StreamSpec.eicg(101)
    last = eicg_stream(spec, 1, 2**63 - 1)
    assert last.n[0] == 2**63 - 1
    assert last.x[0] == pow((4 * (2**63 - 1)) % 101, 99, 101)
    with pytest.raises(RangeError):
        eicg_stream(spec, 2, 2**63 - 1)
    # a * n overflows an int64 here unless n is reduced mod q first
    a = 2**31 - 2
    spec = StreamSpec.eicg_pow2(31, a=a, b=1)
    last = eicg_pow2_stream(spec, 1, 2**63 - 1)
    assert last.n[0] == 2**63 - 1
    assert last.x[0] == pow(a * (2**63 - 1) + 1, -1, 2**31)
    with pytest.raises(RangeError):
        eicg_pow2_stream(spec, 2, 2**63 - 1)


def test_eicg_pow2_examples():
    spec = StreamSpec.eicg_pow2(5, a=2, b=1)
    samples = eicg_pow2_stream(spec, 16)
    assert samples.x[0] == 1
    assert samples.x[1] == 11  # 3 * 11 = 33 = 1 mod 32


def test_eicg_pow2_visits_odd_residues():
    for omega in range(5, 11):
        spec = StreamSpec.eicg_pow2(omega, a=2, b=1)
        period = 1 << (omega - 1)
        xs = set(eicg_pow2_stream(spec, period).x.tolist())
        assert xs == set(range(1, spec.q, 2))


def test_vfe_counts():
    assert len(circle_row(corner_angle(3, 1), vfe_unit_samples(1).u)) == 0
    phases = vfe_unit_samples(5)
    assert len(circle_row(corner_angle(3, 5), phases.u)) == euler_totient(5) == 4
    assert phases.n.tolist() == [1, 2, 3, 4]


def test_vfe_circle_invariant_and_distinct():
    for sides, q in [(3, 5), (3, 101), (4, 8), (5, 12), (3, 202)]:
        angle = corner_angle(sides, q)
        center = 1j * angle.cos_rho**2
        values = circle_row(angle, vfe_unit_samples(q).u).tolist()
        assert len(values) == euler_totient(q)
        for z in values:
            assert abs(z - center) == pytest.approx(angle.sin_rho**2, abs=1e-9)
        for i, z in enumerate(values):
            for w in values[i + 1 :]:
                assert abs(z - w) > 1e-9


def test_vfe_pow2_phases():
    # q = 8: the inverse map fixes each odd residue, so u_p = p/8
    phases = vfe_unit_samples(8)
    assert phases.n.tolist() == [1, 3, 5, 7]
    angle = corner_angle(4, 8)
    points = circle_row(angle, phases.u)
    for p, value in zip(phases.n.tolist(), points.tolist()):
        expected = (
            1j * angle.cos_rho**2
            - 1j * angle.sin_rho**2 * cmath.exp(2j * math.pi * p / 8)
        )
        assert value == pytest.approx(expected, abs=1e-12)


def test_vfe_window_is_a_slice_of_the_period(monkeypatch):
    calls = []
    phi = prng.phi_p
    monkeypatch.setattr(prng, "phi_p", lambda p, q: calls.append(p) or phi(p, q))
    for q in (1, 2, 30, 101, 202, 128):
        period = vfe_unit_samples(q)
        last = max(len(period) - 1, 0)
        for start, count in ((0, 3), (7, 5), (last, 4), (len(period) + 2, 1), (2, None)):
            calls.clear()
            window = vfe_unit_samples(q, start, count)
            stop = None if count is None else start + count
            assert window.n.tolist() == period.n[start:stop].tolist()
            assert window.x.tolist() == period.x[start:stop].tolist()
            assert window.modulus == period.modulus
            assert len(calls) <= len(window) + 1  # phi only inside the window
    with pytest.raises(RangeError):
        vfe_unit_samples(101, -1, 3)


def test_vfe_window_at_the_budget_matches_eicg():
    # q - 1 = 2**24 - 4: the window is placed without listing the period
    q = 16777213
    window = vfe_unit_samples(q, 10**6, 4)
    eicg = eicg_stream(StreamSpec.eicg(q), 4, 10**6 + 1)
    assert window.n.tolist() == eicg.n.tolist() == list(range(10**6 + 1, 10**6 + 5))
    assert window.x.tolist() == eicg.x.tolist()
    assert window.modulus == eicg.modulus == q


def test_vfe_phases_match_eicg_for_prime_q():
    # phi(p) = (4 p)^-1 mod q: at prime q the circle phases are the EICG
    # with a = 4, b = 0 from index 1, in indices, states and modulus
    for q in (101, 1009, 4093):
        phases = vfe_unit_samples(q)
        eicg = eicg_stream(StreamSpec.eicg(q, a=4, b=0), q - 1, 1)
        assert phases.n.tolist() == eicg.n.tolist() == list(range(1, q))
        assert phases.x.tolist() == eicg.x.tolist()
        assert phases.modulus == eicg.modulus == q
        window = vfe_unit_samples(q, 37, 50)
        eicg = eicg_stream(StreamSpec.eicg(q, a=4, b=0), 50, 38)
        assert (window.n.tolist(), window.x.tolist()) == (eicg.n.tolist(), eicg.x.tolist())
        assert window.modulus == q
    # the full eicg period is the phase sequence with the 0 sample prepended
    period = eicg_stream(StreamSpec.eicg(101, a=4, b=0), 101)
    assert period.u.tolist() == [0.0] + vfe_unit_samples(101).u.tolist()


@pytest.mark.parametrize("p", [101, 211, 1009])
def test_inversive_pairs_avoid_lines(p):
    # With t = a n + b, the pairs (t^-1, (t + a)^-1) off the two indices
    # where t or t + a is 0 satisfy u - v = a u v, an irreducible conic that
    # meets a line in at most 2 points; the two exceptional pairs add at
    # most 2.  A linear stream mod p puts p - 1 pairs on the line y = 3x + 1.
    for a, b in [(4, 0), (1, 0), (17, 5), (3, 11)]:
        assert max_pairs_on_a_line(eicg_stream(StreamSpec.eicg(p, a, b), p).x, p) <= 4, (a, b)
    assert max_pairs_on_a_line(lcg_stream(StreamSpec.lcg(3, 1, p), p).x, p) == p - 1


def test_a_linear_map_in_place_of_the_inversion_fails_the_line_bound(monkeypatch):
    monkeypatch.setattr(prng, "inverse_row", lambda v, q: v)  # x_n = a n + b
    x = eicg_stream(StreamSpec.eicg(101, 17, 5), 101).x
    assert max_pairs_on_a_line(x, 101) == 101


def test_compound_example_five_seven():
    samples = compound_stream(3, (5, 7), 3)
    assert (samples.n[0], samples.u[0]) == (1, float(Fraction(3, 35)))
    assert samples.n.tolist() == [1, 2, 3]


def test_compound_single_prime_reduces():
    samples = compound_stream(3, (5,), 4)
    assert samples.u.tolist() == [4 / 5, 2 / 5, 3 / 5, 1 / 5]


def test_compound_skips_inadmissible_indices():
    samples = compound_stream(3, (5, 7), 30)
    for n in samples.n.tolist():
        assert n % 5 != 0 and n % 7 != 0
    assert samples.n[:6].tolist() == [1, 2, 3, 4, 6, 8]


def test_compound_states_match_python_crt():
    # Python-int CRT per index, at a product just below 2**31, with 8 primes
    # and at far-out starts, whose indices are checked by enumeration
    for primes, start in [
        ((46337, 46327), 10**5),
        ((5, 7, 11, 13, 17, 19, 23, 29), 777),
        ((5, 7), 10**12),
        ((11, 13, 17), 10**15),
    ]:
        samples = compound_stream(3, primes, 64, start)
        modulus = math.prod(primes)
        assert samples.n.tolist() == coprime_reference(modulus, start, 64)
        for n, x in zip(samples.n.tolist(), samples.x.tolist()):
            expected = sum(mod_inverse(4 * n, qj) * (modulus // qj) for qj in primes) % modulus
            assert x == expected
        assert samples.modulus == modulus


def test_compound_restart():
    assert_concatenates(
        compound_stream(3, (5, 7), 20),
        compound_stream(3, (5, 7), 8),
        compound_stream(3, (5, 7), 12, start=8),
    )


def test_compound_identity_holds():
    for primes in [(5, 7), (11, 13, 17)]:
        samples = compound_stream(3, primes, 50)
        for n, u in zip(samples.n.tolist(), samples.u.tolist()):
            lhs = 1 + 0j
            for qj in primes:
                angle = corner_angle(3, qj)
                phases = vfe_unit_samples(qj)
                points = circle_row(angle, phases.u).tolist()
                z = points[phases.n.tolist().index(n % qj)]
                lhs *= (angle.cos_rho**2 + 1j * z) / angle.sin_rho**2
            assert lhs == pytest.approx(cmath.exp(2j * math.pi * u), abs=1e-9)


def test_stream_sample_budget_refused_before_any_work():
    over = MAX_STREAM_SAMPLES + 1
    with pytest.raises(TooLarge):
        eicg_stream(StreamSpec.eicg(101), over)
    with pytest.raises(TooLarge):
        eicg_pow2_stream(StreamSpec.eicg_pow2(31), 2**30)
    with pytest.raises(TooLarge):
        lcg_stream(randu_preset(), over, start=2**40)  # before the jump-ahead
    with pytest.raises(TooLarge):
        compound_stream(3, (5, 7), over)
    with pytest.raises(TooLarge):
        vfe_unit_samples(2**31 - 1)  # the whole period would be built


def test_stream_kind_guard():
    with pytest.raises(BadParameters):
        eicg_stream(randu_preset(), 3)
    with pytest.raises(BadParameters):
        lcg_stream(StreamSpec.eicg(7), 3)
