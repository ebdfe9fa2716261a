import numpy as np
import pytest

import filament_prng
from filament_prng import filament, gauss, modular, prng, verify
from filament_prng.cli import EXIT_VERIFY, main
from filament_prng.errors import BadParameters, TooLarge
from filament_prng.prng import MAX_STREAM_SAMPLES
from filament_prng.verify import (
    SuiteResult,
    verify_closure,
    verify_compound,
    verify_gauss,
    verify_theorem1,
)
from helpers import coprimes_by_gcd, gauss_errors_per_chunk, polygon_sweep_per_side


def test_suite_result_describe():
    good = SuiteResult(name="demo", cases=10, max_error=1e-12, tolerance=1e-9)
    bad = SuiteResult(name="demo", cases=10, max_error=1e-3, tolerance=1e-9)
    assert good.passed and "pass" in good.describe()
    assert not bad.passed and "FAIL" in bad.describe()


def test_gauss_sweep_deterministic():
    first = verify_gauss(q_max=60)
    again = verify_gauss(q_max=60)
    assert first == again
    assert all(s.passed for s in first)


def test_gauss_sweep_matches_the_per_chunk_evaluation():
    # the per-q work taken out of the chunk loop changes no value: both
    # (error, cases) pairs equal those of whole closed_row calls per chunk
    for q in range(1, 61):
        assert verify._gauss_errors_for_q(q) == gauss_errors_per_chunk(q, verify._CHUNK_ELEMS), q


def test_gauss_sweep_grids_equal_closed_row(monkeypatch):
    # every chunk's grid, read from slices of the per-p part computed once
    # per q, is closed_row of that chunk's p at the active indices
    compared = {}
    chunks = []
    direct_row = verify.gauss_direct_row

    def recording_direct_row(a, q):
        chunks.append(-a)
        return direct_row(a, q)

    def checked_grid(q, ms):
        grid = gauss.closed_grid(q, ms)

        def checked(*coefficients):
            out = grid(*coefficients)
            ps = chunks[-1]
            assert np.array_equal(out, gauss.closed_row(ps, q, ms)), (q, ps)
            compared[q] = compared.get(q, 0) + len(ps)
            return out

        return checked

    monkeypatch.setattr(verify, "gauss_direct_row", recording_direct_row)
    monkeypatch.setattr(verify, "closed_grid", checked_grid)
    verify_gauss(300)
    assert compared == {q: len(coprimes_by_gcd(q) or [1]) for q in range(1, 301)}


@pytest.mark.parametrize("sides_range", [(3, 3), (3, 8), (4, 10)])
def test_polygon_sweeps_match_the_per_side_evaluation(sides_range):
    # the sides share one stack of rotations and one closed-form phase row
    # per chunk; every q <= 60, in all four classes mod 4, gives the
    # SuiteResult of each number of sides evaluated on its own
    assert verify_theorem1(sides_range, 60) == polygon_sweep_per_side("theorem1", sides_range, 60)
    assert verify_closure(sides_range, 60) == polygon_sweep_per_side("closure", sides_range, 60)


def test_one_period_circles_equal_every_period_of_z_qm_closed(monkeypatch):
    # the sweep builds the closed form over one period of L indices, its
    # phase row, sine and cosine shared by every M: for every q <= 60 and
    # M = 3..10 each (P, L) circle equals, bit for bit, every one of the M
    # periods of z_qm_closed over the M L indices, reshaped to (P, M, L)
    sides = range(3, 11)
    batches, circles = [], []
    phase_row, points = verify.closed_phase_row, verify.circle_points

    def recording_phase_row(p, q, m):
        batches.append((p[:, 0], q))
        return phase_row(p, q, m)

    def recording_points(angle, sin_alpha, cos_alpha):
        circles.append(points(angle, sin_alpha, cos_alpha))
        return circles[-1]

    monkeypatch.setattr(verify, "closed_phase_row", recording_phase_row)
    monkeypatch.setattr(verify, "circle_points", recording_points)
    verify_theorem1((sides[0], sides[-1]), 60)
    assert {q for _, q in batches} == set(range(1, 61))
    assert len(circles) == len(sides) * len(batches)
    for b, (ps, q) in enumerate(batches):
        period = len(gauss.active_indices(q))
        for m, circle in zip(sides, circles[b * len(sides) : (b + 1) * len(sides)]):
            assert circle.shape == (len(ps), period)
            closed = filament.z_qm_closed(m, q, ps[:, None], np.arange(m * period))
            periods = closed.reshape(len(ps), m, period)
            for k in range(m):
                assert periods[:, k].tobytes() == circle.tobytes(), (q, m, k)


_side_rotations = filament._side_rotations


def test_swapped_side_angles_break_the_per_side_match(monkeypatch):
    # the rotation stacks of the first two sides swapped: the per-side
    # oracle, whose stacks hold one side each, is untouched, and neither
    # sweep matches it any more
    def swapped(sides, q, thetas):
        order = list(sides)
        order[:2] = order[1::-1]
        return _side_rotations(order, q, thetas)

    monkeypatch.setattr(filament, "_side_rotations", swapped)
    assert verify_theorem1((3, 5), 20) != polygon_sweep_per_side("theorem1", (3, 5), 20)
    assert verify_closure((3, 5), 20) != polygon_sweep_per_side("closure", (3, 5), 20)


def test_sweep_work_budget_refused_before_any_work():
    # gauss sums at most q_max**3 terms; the largest accepted q_max is 1024
    assert 1024**3 <= verify.MAX_SWEEP_CASES < 1025**3
    with pytest.raises(TooLarge):
        verify_gauss(q_max=1025)
    # each polygon passes the corner budget, the sweep does not
    with pytest.raises(TooLarge, match="closure sweep"):
        verify_closure(sides_range=(3, 3), q_max=300_000)
    with pytest.raises(TooLarge, match="theorem1 sweep"):
        verify_theorem1(sides_range=(3, 8), q_max=300)
    with pytest.raises(TooLarge):
        verify_compound(p_max=MAX_STREAM_SAMPLES + 1)
    # the default sweeps fit: at most 300**3 = 2.7e7 units
    assert 300**3 <= verify.MAX_SWEEP_CASES


def test_empty_sides_range_refused_before_any_theta_row(monkeypatch):
    def untouched(p, q):
        raise AssertionError("theta rows built for an empty sides range")

    monkeypatch.setattr(verify, "theta_sequence", untouched)
    with pytest.raises(BadParameters, match="theorem1 sweep has no cases"):
        verify_theorem1(sides_range=(4, 3), q_max=262_144)
    with pytest.raises(BadParameters, match="closure sweep has no cases"):
        verify_closure(sides_range=(0, -1), q_max=10**9)


def test_theorem1_sweep_small():
    suite = verify_theorem1(sides_range=(3, 4), q_max=8)
    assert suite.passed
    assert suite.cases > 0


def test_closure_sweep_small():
    suite = verify_closure(sides_range=(3, 4), q_max=10)
    assert suite.passed


def test_compound_sweep_small():
    suite = verify_compound(prime_sets=((5, 7),), p_max=300)
    assert suite.passed
    # admissible means coprime to 35
    assert suite.cases == sum(1 for p in range(1, 301) if p % 5 and p % 7)


def test_compound_sweep_evaluates_identity_once_per_stream(monkeypatch):
    calls = []
    window = prng.compound_window

    def counted(*args):
        calls.append(args[1])
        return window(*args)

    monkeypatch.setattr(verify, "compound_window", counted)
    assert verify_compound(((5, 7), (11, 13, 17)), 1000).passed
    assert calls == [(5, 7), (11, 13, 17)]


def test_compound_sweep_windows_give_the_whole_stream_result(monkeypatch):
    whole = verify_compound(((5, 7), (11, 13, 17)), 3000)
    sizes = []
    window = prng.compound_window

    def counted(*args):
        stream, residual = window(*args)
        sizes.append(len(stream))
        return stream, np.full(len(stream), np.nan) if len(sizes) == 8 else residual

    monkeypatch.setattr(verify, "_COMPOUND_WINDOW", 500)
    assert verify_compound(((5, 7), (11, 13, 17)), 3000) == whole
    monkeypatch.setattr(verify, "compound_window", counted)
    windowed = verify_compound(((5, 7), (11, 13, 17)), 3000)
    assert windowed.cases == whole.cases == sum(sizes)
    assert max(sizes) == 500 and len(sizes) == 5 + 5  # 2058 and 2238 admissible p
    assert not windowed.passed  # a NaN residual in any window fails the suite


def test_compound_window_takes_one_phi_row_per_prime(monkeypatch):
    calls = []
    phi_row = prng.phi_row

    def counted(ps, q):
        calls.append(q)
        return phi_row(ps, q)

    monkeypatch.setattr(prng, "phi_row", counted)
    prng.compound_stream(3, (11, 13, 17), 64)
    assert calls == [11, 13, 17]
    calls.clear()
    assert verify_compound(((11, 13, 17),), 1000).passed  # one window
    assert calls == [11, 13, 17]


def test_sweep_batches_stay_under_the_chunk_cap(monkeypatch):
    widths = []  # (P, entries per p) of every stacked row

    def probe(fn, rows_of):
        def probed(*args):
            out = fn(*args)
            widths.extend(rows_of(args, out))
            return out
        return probed

    monkeypatch.setattr(
        verify, "gauss_direct_row", probe(verify.gauss_direct_row, lambda args, out: [out.shape])
    )
    suites = verify_gauss(q_max=100)
    assert sum(p * q for p, q in widths) == suites[0].cases  # every row went through a stack
    assert max(p * q for p, q in widths) <= verify._CHUNK_ELEMS
    assert max(p for p, _ in widths) > 1

    widths.clear()
    stacks = []  # entries of every (S, P, L) stack over the sides

    def side_rows(args, out):  # side M's (P, M L) products repeat the stack's period
        stacks.append(out[0].size)
        _, p, period = out[0].shape
        return [(p, m * period) for m in args[0]]

    products = probe(verify.corner_products_sides, side_rows)
    monkeypatch.setattr(verify, "corner_products_sides", products)
    suite = verify_theorem1((3, 8), 40)
    assert sum(p * k for p, k in widths) == suite.cases
    assert max(p * k for p, k in widths) <= verify._CHUNK_ELEMS
    assert max(p for p, _ in widths) > 1
    assert max(stacks) <= verify._CHUNK_ELEMS


def _phi_off_by_one(p, q):
    phi, den = modular.phi_row(p, q)
    return (phi + 1) % den, den


def _first_row(thetas):
    return thetas[0] if thetas.ndim == 2 else thetas


def _two_phases_swapped(p, q):
    thetas = gauss.theta_sequence(p, q)
    row = _first_row(thetas)
    if len(row) >= 2:
        row[[0, 1]] = row[[1, 0]]
    return thetas


def _one_phase_perturbed(p, q):
    thetas = gauss.theta_sequence(p, q)
    _first_row(thetas)[-1] += 1e-3
    return thetas


@pytest.mark.parametrize(
    "target,name,fault,failing",
    [
        (filament, "phi_row", _phi_off_by_one, ["theorem1"]),
        (verify, "theta_sequence", _two_phases_swapped, ["theorem1", "closure"]),
        (verify, "theta_sequence", _one_phase_perturbed, ["theorem1", "closure"]),
    ],
)
def test_polygon_sweeps_report_injected_faults(capsys, monkeypatch, target, name, fault, failing):
    # a wrong phi in the closed form, or a wrong phase row under the corner
    # products, fails the sweeps at their unchanged tolerances
    monkeypatch.setattr(target, name, fault)
    suites = {"theorem1": verify_theorem1((3, 4), 12), "closure": verify_closure((3, 4), 12)}
    assert [suite for suite, result in suites.items() if not result.passed] == failing
    for suite in failing:
        code = main(["verify", suite, "-M", "3..4", "--qmax", "12"])
        out, err = capsys.readouterr()
        assert code == EXIT_VERIFY
        assert suite in out and "FAIL" in out
        assert "Traceback" not in out + err


def test_sweeps_and_compound_stream_need_no_scalar_phi(capsys, monkeypatch):
    # every path but the circle stream takes phi as a row
    def refuse(p, q):
        raise AssertionError("scalar phi_p called")

    for module in (filament_prng, modular, prng, filament, gauss, verify):
        if hasattr(module, "phi_p"):
            monkeypatch.setattr(module, "phi_p", refuse)
    for argv in (
        ["verify", "theorem1", "-M", "3..4", "--qmax", "12"],
        ["verify", "closure", "-M", "3..4", "--qmax", "12"],
        ["verify", "compound", "--primes", "5,7", "--pmax", "1000"],
    ):
        assert main(argv) == 0, argv
        assert "pass" in capsys.readouterr().out
    stream = prng.compound_stream(3, (5, 7), 64, start=100)
    assert stream.n.tolist() == [p for p in range(1, 300) if p % 5 and p % 7][100:164]


def test_sweep_residues_are_one_period_of_coprimes():
    for q in range(1, 301):
        residues = verify._sweep_residues(q)
        assert residues.dtype == np.int64
        assert residues.tolist() == (coprimes_by_gcd(q) or [1]), q


def test_compound_case_counts_match_coprime_enumeration():
    for primes, p_max in [((5, 7), 1000), ((11, 13, 17), 2431), ((7, 11), 1)]:
        expected = sum(1 for p in range(1, p_max + 1) if all(p % prime for prime in primes))
        assert verify_compound((primes,), p_max).cases == expected
