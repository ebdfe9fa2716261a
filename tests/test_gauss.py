import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filament_prng.errors import NotCoprime
from filament_prng.gauss import (
    active_indices,
    closed_row,
    gauss_direct_row,
    gauss_magnitude,
    theta_sequence,
)
from filament_prng.modular import coprime_residues, phi_p
from helpers import gauss_direct

TWO_PI = 2.0 * math.pi


def coprime_pairs(q_max):
    for q in range(1, q_max + 1):
        for p in coprime_residues(q) or [1]:
            yield p, q


def test_direct_trivial_sum():
    val = gauss_direct(0, 0, 3)
    assert val == pytest.approx(3 + 0j, abs=1e-12)


def test_direct_three_term():
    val = gauss_direct(-1, 0, 3)
    assert val == pytest.approx(-1j * math.sqrt(3), abs=1e-12)


def test_direct_two_term_even():
    val = gauss_direct(-1, 1, 2)
    assert val == pytest.approx(2 + 0j, abs=1e-12)
    assert abs(val) == pytest.approx(math.sqrt(2 * 2), abs=1e-12)
    assert gauss_magnitude(1, 1, 2) == math.sqrt(2 * 2)
    assert closed_row(1, 2, np.array([0, 1])).tolist() == [0j, 2 + 0j]


def test_direct_row_matches_scalar():
    for p, q in [(1, 7), (2, 9), (1, 12), (3, 10), (5, 32), (7, 45)]:
        row = gauss_direct_row(-p, q)
        for m in range(q):
            assert row[m] == pytest.approx(
                gauss_direct(-p, m, q), abs=1e-10
            )


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=60),
)
def test_direct_periodic_in_b(a, b, c):
    assert gauss_direct(a, b + c, c) == pytest.approx(
        gauss_direct(a, b, c), abs=1e-10
    )


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=60),
)
def test_direct_conjugation(a, b, c):
    assert gauss_direct(-a, -b, c) == pytest.approx(
        gauss_direct(a, b, c).conjugate(), abs=1e-10
    )


@pytest.mark.parametrize(
    "p,m,q,expected",
    [
        (1, 0, 3, math.sqrt(3)),
        (1, 1, 4, 0.0),
        (1, 0, 4, math.sqrt(8)),
    ],
)
def test_magnitude_examples(p, m, q, expected):
    assert gauss_magnitude(p, m, q) == pytest.approx(expected, abs=1e-15)


def test_magnitude_row_matches_scalar():
    for q in (1, 7, 10, 12):
        ms = np.arange(3 * q)
        row = gauss_magnitude(1, ms, q)
        assert row.tolist() == [gauss_magnitude(1, m, q) for m in ms.tolist()]


def test_magnitude_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        gauss_magnitude(2, 0, 4)


def test_magnitude_law_against_direct():
    for p, q in coprime_pairs(60):
        row = gauss_direct_row(-p, q)
        for m in range(q):
            assert abs(row[m]) == pytest.approx(
                gauss_magnitude(p, m, q), abs=1e-9 * max(1.0, math.sqrt(q))
            )


def test_closed_odd_examples():
    assert closed_row(1, 3, np.array([0]))[0] == pytest.approx(
        -1j * math.sqrt(3), abs=1e-12
    )
    assert closed_row(1, 5, np.array([1]))[0] == pytest.approx(
        math.sqrt(5) * cmath.exp(8j * math.pi / 5), abs=1e-12
    )
    assert closed_row(1, 1, np.array([0]))[0] == pytest.approx(1 + 0j, abs=1e-15)


def test_closed_0mod4_examples_match_direct():
    for p, m, q in [(1, 0, 4), (1, 2, 12), (3, 0, 8)]:
        assert closed_row(p, q, np.array([m]))[0] == pytest.approx(
            gauss_direct(-p, m, q), abs=1e-9 * math.sqrt(q)
        )


def check_closed_row(q_class, modulus, q_max):
    # every coprime (p, q) with q = q_class mod modulus, at every index m:
    # the closed form matches the direct sum and is an exact 0 off the
    # active indices
    for p, q in coprime_pairs(q_max):
        if q % modulus != q_class:
            continue
        row = gauss_direct_row(-p, q)
        closed = closed_row(p, q, np.arange(q))
        assert closed == pytest.approx(row, abs=1e-9 * math.sqrt(q))
        active = np.asarray(active_indices(q))
        assert np.all(np.delete(closed, active) == 0)
        yield q, closed[active]


def test_closed_odd_matches_direct():
    for q, active in check_closed_row(1, 2, 99):
        assert np.abs(active) == pytest.approx(math.sqrt(q), rel=1e-12)


def test_closed_2mod4_matches_direct():
    # q = 2 included
    for q, active in check_closed_row(2, 4, 98):
        assert np.abs(active) == pytest.approx(math.sqrt(2 * q), rel=1e-12)


def test_closed_0mod4_matches_direct():
    for q, active in check_closed_row(0, 4, 100):
        assert np.abs(active) == pytest.approx(math.sqrt(2 * q), rel=1e-12)


def test_closed_odd_rejects_bad_inputs():
    with pytest.raises(NotCoprime):
        closed_row(3, 9, np.array([0]))


def test_closed_2mod4_rejects_bad_inputs():
    for p, q in [(3, 6), (2, 2)]:
        with pytest.raises(NotCoprime):
            closed_row(p, q, np.array([1]))


def test_closed_0mod4_rejects_bad_inputs():
    with pytest.raises(NotCoprime):
        closed_row(2, 8, np.array([0]))


def test_doubling_identity_2mod4():
    # G(-p, m, q) = 2 G(-2p, m, q/2) for q = 2 mod 4 and odd m
    for q in range(6, 102, 4):
        for p in coprime_residues(q)[:4]:
            for m in range(1, q, 2):
                lhs = gauss_direct(-p, m, q)
                rhs = 2 * gauss_direct(-2 * p, m, q // 2)
                assert lhs == pytest.approx(rhs, abs=1e-9 * math.sqrt(2 * q))


def test_theta_sequence_trivial():
    phases = theta_sequence(1, 1)
    assert len(phases) == 1
    assert list(active_indices(1)) == [0]
    assert phases[0] == 0.0


def test_theta_sequence_matches_direct_args():
    phases = theta_sequence(1, 3)
    for m, theta in zip(active_indices(3), phases.tolist()):
        expected = cmath.phase(gauss_direct(-1, m, 3)) % TWO_PI
        assert theta == pytest.approx(expected, abs=1e-12)


def test_theta_sequence_active_set():
    # one phase per active index
    assert list(active_indices(4)) == [0, 2]
    assert list(active_indices(6)) == [1, 3, 5]
    assert list(active_indices(5)) == [0, 1, 2, 3, 4]
    assert list(active_indices(2)) == [1]
    for q in (4, 6, 5, 2):
        assert len(theta_sequence(1, q)) == len(active_indices(q))


def test_theta_sequence_normalization():
    for p, q in coprime_pairs(40):
        for theta in theta_sequence(p, q).tolist():
            assert 0.0 <= theta < TWO_PI


def test_theta_phase_reconstructs_gauss_sum():
    # magnitude-law modulus times e^(i theta_m) recovers G(-p, m, q)
    for p, q in [(1, 9), (2, 15), (1, 10), (3, 16), (5, 12)]:
        row = gauss_direct_row(-p, q)
        for m, theta in zip(active_indices(q), theta_sequence(p, q).tolist()):
            rebuilt = gauss_magnitude(p, m, q) * cmath.exp(1j * theta)
            assert rebuilt == pytest.approx(row[m], abs=1e-9 * math.sqrt(q))


def test_theta_sequence_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        theta_sequence(2, 4)


def test_phase_difference_identity_odd_q():
    # exp(i theta_{m+1}) exp(-i theta_m) = exp(2 pi i phi(p)(2m+1)/q), q odd
    for q in range(1, 61, 2):
        for p in coprime_residues(q)[:5] or [1]:
            phases = theta_sequence(p, q).tolist()
            phi = phi_p(p, q)[0]
            for m in range(q - 1):
                lhs = cmath.exp(1j * (phases[m + 1] - phases[m]))
                rhs = cmath.exp(2j * math.pi * phi * (2 * m + 1) / q)
                assert lhs == pytest.approx(rhs, abs=1e-9)
