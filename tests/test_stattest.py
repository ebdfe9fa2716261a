import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filament_prng import stattest
from filament_prng.errors import (
    BadDimension,
    BadLags,
    BadT,
    DomainError,
    EmptyInput,
    InvariantViolation,
    RangeError,
    TooLarge,
)
from filament_prng.prng import StreamSpec, eicg_stream, lcg_stream, vfe_unit_samples
from filament_prng.stattest import (
    MAX_EXACT_BOXES,
    MAX_EXACT_DIM,
    MAX_EXACT_POINTS,
    TupleCloud,
    check_exact,
    chi2_quantile_999,
    chi_square_uniformity,
    make_tuples,
    randu_plane_count,
    randu_plane_labels,
    serial_test,
    star_discrepancy,
    theorem2_upper,
    theorem3_lower,
)
from helpers import randu_plane_labels_by_division, star_discrepancy_oracle, star_scan_full_grid


def cloud_from(points) -> TupleCloud:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, k = pts.shape
    return TupleCloud(points=pts, k=k, lags=tuple(range(k)), n=n)


def test_make_tuples_overlapping_pairs():
    samples = [0.1, 0.2, 0.3, 0.4, 0.5]
    cloud = make_tuples(samples, 2, (0, 1))
    assert cloud.n == 5 and cloud.k == 2
    assert cloud.points[0].tolist() == [0.1, 0.2]
    assert cloud.points[4].tolist() == [0.5, 0.1]  # wraps around


def test_make_tuples_triples_wraparound():
    samples = [i / 7 for i in range(7)]
    cloud = make_tuples(samples, 3, (0, 1, 2))
    assert cloud.points.shape == (7, 3)
    assert cloud.points[5].tolist() == [5 / 7, 6 / 7, 0.0]
    assert cloud.points[6].tolist() == [6 / 7, 0.0, 1 / 7]


def test_make_tuples_constant_sequence():
    cloud = make_tuples([0.25] * 4, 2, (0, 1))
    assert np.all(cloud.points == 0.25)


def test_make_tuples_bad_lags():
    samples = [0.1, 0.2, 0.3]
    with pytest.raises(BadLags):
        make_tuples(samples, 2, (1, 2))  # must start at 0
    with pytest.raises(BadLags):
        make_tuples(samples, 2, (0, 0))  # strictly increasing
    with pytest.raises(BadLags):
        make_tuples(samples, 3, (0, 1))  # length must equal k
    with pytest.raises(BadLags):
        make_tuples(samples, 2, (0, 3))  # lag beyond the period
    with pytest.raises(EmptyInput):
        make_tuples([], 2, (0, 1))


def test_make_tuples_refuses_a_non_integer_lag():
    # a lag of 1.5 is refused, not truncated to 1
    with pytest.raises(BadLags):
        make_tuples([0.1, 0.2, 0.3], 2, [0, 1.5])


@pytest.mark.parametrize(
    "samples", [[math.nan, 0.1, 0.2], [-0.5, 0.2, 0.3], [0.1, 1.0, 0.2]], ids=["nan", "negative", "one"]
)
def test_star_discrepancy_refuses_coordinates_outside_the_unit_interval(samples):
    with pytest.raises(RangeError):
        serial_test(samples, 2)
    with pytest.raises(RangeError):
        star_discrepancy(cloud_from(np.array(samples)[:, None]))


def test_star_single_point():
    assert star_discrepancy(cloud_from([[0.5]])) == pytest.approx(0.5)


def test_star_equally_spaced_grid():
    q = 8
    cloud = cloud_from([[j / q] for j in range(q)])
    assert star_discrepancy(cloud) == pytest.approx(1 / q)


def test_star_midpoint_optimum():
    n = 10
    cloud = cloud_from([[(2 * i - 1) / (2 * n)] for i in range(1, n + 1)])
    assert star_discrepancy(cloud) == pytest.approx(1 / (2 * n))


def test_star_matches_oracle_random_sets():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 3))
        pts = rng.random((n, k))
        assert star_discrepancy(cloud_from(pts)) == star_discrepancy_oracle(pts)


@pytest.mark.parametrize("levels", [None, 1, 2, 3, 5, 8, 11])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_star_matches_oracle_with_duplicates(k, levels):
    rng = np.random.default_rng(7)
    if levels is None:  # repeated rows of a random cloud
        base = rng.random((20, k))
        pts = np.vstack([base, base[:7], base[3:5]])
    else:  # a grid cloud: coordinates tie on every axis
        pts = rng.integers(0, levels, (int(rng.integers(1, 61)), k)) / levels
    expected = star_discrepancy_oracle(pts)
    if k < 3:
        assert star_discrepancy(cloud_from(pts)) == expected
    else:  # the oracle multiplies the corner coordinates in another order
        assert star_discrepancy(cloud_from(pts)) == pytest.approx(expected, abs=1e-12)


def test_star_k3_matches_oracle():
    rng = np.random.default_rng(99)
    for n in (5, 17, 40):
        pts = rng.random((n, 3))
        assert star_discrepancy(cloud_from(pts)) == pytest.approx(
            star_discrepancy_oracle(pts), abs=1e-12
        )


def test_star_permutation_invariant():
    rng = np.random.default_rng(3)
    pts = rng.random((30, 2))
    shuffled = pts[rng.permutation(30)]
    assert star_discrepancy(cloud_from(pts)) == star_discrepancy(
        cloud_from(shuffled)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_star_duplicate_point_adjustment(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    base = star_discrepancy(cloud_from(pts))
    extended = np.vstack([pts, pts[:1]])
    grown = star_discrepancy(cloud_from(extended))
    assert grown >= base - 1.0 / n - 1e-12
    assert 0.0 <= grown <= 1.0


def test_star_too_large():
    with pytest.raises(TooLarge):
        star_discrepancy(cloud_from(np.zeros((10, 4))))
    with pytest.raises(TooLarge):
        star_discrepancy(cloud_from(np.linspace(0, 0.999, 40000)[:, None]))


def test_star_box_budget():
    # The box count is the product over axes of (distinct coordinates + 1):
    # k = 2 at N = 4096 fits, k = 3 at N = 4093 is refused before any work.
    assert 4097**2 <= MAX_EXACT_BOXES < 4094**3
    spread = np.arange(4093) / 4093
    with pytest.raises(TooLarge, match="anchored boxes"):
        star_discrepancy(cloud_from(np.column_stack([spread, spread[::-1], spread])))
    # ties shrink the count, so a large tie-heavy cloud is admitted
    tied = np.floor(np.random.default_rng(5).random((4093, 3)) * 8) / 8
    assert star_discrepancy(cloud_from(tied)) == star_discrepancy_oracle(tied)


def test_point_limit_is_the_largest_count():
    # The scan counts in int16, so N = 32,767 is the largest cloud; at k = 2
    # that is exactly the box budget's edge, (2^15)^2 = 2^30 boxes.
    assert MAX_EXACT_POINTS == np.iinfo(stattest._COUNT).max == 2**15 - 1
    assert (MAX_EXACT_POINTS + 1) ** 2 == MAX_EXACT_BOXES
    n = MAX_EXACT_POINTS
    assert star_discrepancy(cloud_from((np.arange(n) / n)[:, None])) == pytest.approx(1 / n)
    check_exact(MAX_EXACT_DIM, n)
    with pytest.raises(TooLarge, match="N <= 32767"):
        check_exact(1, n + 1)


def _scan_clouds(k: int, levels: int | None, seed: int):
    """Twenty clouds of k-tuples: random ones (levels None) or grid ones
    with `levels` values per axis, every fourth with some rows repeated."""
    rng = np.random.default_rng([k, levels or 0, seed])
    for trial in range(20):
        n = int(rng.integers(1, 50))
        pts = rng.random((n, k)) if levels is None else rng.integers(0, levels, (n, k)) / levels
        if trial % 4 == 0:
            pts = np.vstack([pts, pts[: n // 2 + 1], pts[-1:]])
        yield pts


@pytest.mark.parametrize("levels", [None, *range(1, 12)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_star_scan_is_the_full_grid_scan_bit_for_bit(k, levels):
    # Skipping the boxes whose count did not change, and the blocks whose
    # corner bound cannot beat the running maximum, loses no maximum: the
    # same double, not a close one, on random and tie-heavy clouds.
    for seed in range(2):
        for pts in _scan_clouds(k, levels, seed):
            assert star_discrepancy(cloud_from(pts)) == star_scan_full_grid(pts, len(pts))


# Block edges forced on the scan in place of its rule: 1 (every box its own
# block), 2 and 3 (axes of every length, most not a multiple of the edge),
# and one past the longest axis (one block holding the whole grid).
FORCED_EDGES = {
    "edge1": lambda shape: 1,
    "edge2": lambda shape: 2,
    "edge3": lambda shape: 3,
    "one-block": lambda shape: max(shape, default=1) + 1,
}


@pytest.mark.parametrize("levels", [None, *range(1, 12)])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("edge", list(FORCED_EDGES))
def test_star_scan_is_the_full_grid_scan_at_any_block_edge(edge, k, levels, monkeypatch):
    monkeypatch.setattr(stattest, "_block_edge", FORCED_EDGES[edge])
    for seed in range(2):
        for pts in _scan_clouds(k, levels, seed):
            assert star_discrepancy(cloud_from(pts)) == star_scan_full_grid(pts, len(pts))


def _golden_eicg_cloud(q: int, lags: tuple[int, ...]) -> TupleCloud:
    # the clouds of the golden `stats serial --kind eicg -a 17 -b 5` cases
    return make_tuples(eicg_stream(StreamSpec.eicg(q, a=17, b=5), q).u, len(lags), lags)


@pytest.mark.parametrize(
    "q,lags", [(4093, (0, 1234)), (401, (0, 100, 250))], ids=["k2-q4093", "k3-q401"]
)
def test_star_scan_is_the_full_grid_scan_on_golden_eicg_clouds(q, lags, monkeypatch):
    cloud = _golden_eicg_cloud(q, lags)
    expected = star_scan_full_grid(cloud.points, q)
    assert star_discrepancy(cloud) == expected
    for rule in FORCED_EDGES.values():
        monkeypatch.setattr(stattest, "_block_edge", rule)
        assert star_discrepancy(cloud) == expected


def test_star_scan_evaluates_a_small_share_of_the_changed_regions(monkeypatch):
    # A scan that evaluated every box whose count changes at each x (the
    # region above the lowest corner of x's points, read open and closed,
    # and every box at x = 1.0) would hand all of those cells to the term
    # evaluation; the block bounds let under 2 % of them through.
    cloud = _golden_eicg_cloud(401, (0, 100, 250))
    received = []
    evaluate = stattest._terms_max

    def counted(x, vol, counts, n, opened):
        received.append(np.size(vol))
        return evaluate(x, vol, counts, n, opened)

    monkeypatch.setattr(stattest, "_terms_max", counted)
    assert star_discrepancy(cloud) == star_scan_full_grid(cloud.points, cloud.n)
    axes = [np.unique(column, return_inverse=True) for column in cloud.points.T]
    sizes = np.array([len(values) + 1 for values, _ in axes[1:]])
    ix = axes[0][1]
    lows = np.full((ix.max() + 1, len(sizes)), sizes.max())
    np.minimum.at(lows, ix, np.stack([inverse for _, inverse in axes[1:]], axis=1))
    regions = int(np.prod(sizes - lows, axis=1).sum() + np.prod(sizes))
    assert 0 < sum(received) < 0.02 * 2 * regions


def _lattice_cloud(p: int) -> TupleCloud:
    # {(x/p, (a x mod p)/p) : 0 < x < p} with a = round(p/phi): the pairs of
    # `lcg -q p -a a -b 0` over a full period when a is a primitive root
    a = round(2 * p / (1 + math.sqrt(5)))
    x = np.arange(1, p)
    return cloud_from(np.column_stack([x / p, a * x % p / p]))


@pytest.mark.parametrize("p", [101, 211, 1009])
def test_star_scan_is_the_full_grid_scan_on_lattice_clouds(p):
    # N D* stays below a block's slack on these clouds, so the block bounds
    # prune almost nothing and the skip test decides at every x.
    cloud = _lattice_cloud(p)
    assert star_discrepancy(cloud) == star_scan_full_grid(cloud.points, cloud.n)


@pytest.mark.parametrize(
    "a,b,lags", [(1234, 77, (0, 1717)), (4, 0, (0, 1))], ids=["a1234-lag1717", "a4-lag1"]
)
def test_star_scan_skips_most_bound_passes(a, b, lags, monkeypatch):
    # Without the skip test the scan makes two bound passes per distinct x
    # and two at x = 1.0; the seeded running maximum lets it skip over three
    # quarters of them on the EICG clouds at q = 4093, k = 2.
    q = 4093
    cloud = make_tuples(eicg_stream(StreamSpec.eicg(q, a=a, b=b), q).u, 2, lags)
    passes = []
    bound_pass = stattest._bound_pass

    def counted(x, *args):
        passes.append(x)
        return bound_pass(x, *args)

    monkeypatch.setattr(stattest, "_bound_pass", counted)
    assert star_discrepancy(cloud) == star_scan_full_grid(cloud.points, cloud.n)
    assert 0 < len(passes) <= 2 * (cloud.n + 1) / 4


# Primes where theorem2_upper(p, 2) is below 1 (0.9977 and 0.7217), so that
# 4 D* <= bound can fail, with the EICG multipliers, shifts and lags read.
_THEOREM2_PRIMES = [12553, 32749]
_THEOREM2_STREAMS = [(4, 0, (0, 1)), (17, 5, (0, 1234)), (1234, 77, (0, 1717))]


@pytest.mark.parametrize("p", _THEOREM2_PRIMES)
@pytest.mark.parametrize("a,b,lags", _THEOREM2_STREAMS, ids=["a4-lag1", "a17-lag1234", "a1234-lag1717"])
def test_theorem2_holds_at_k2_where_it_can_fail(p, a, b, lags):
    report = serial_test(eicg_stream(StreamSpec.eicg(p, a=a, b=b), p).u, 2, lags)
    assert report.n == p and report.theorem2_upper < 1
    assert report.extreme_upper <= report.theorem2_upper


def test_theorem2_fails_without_the_inversion():
    # x_n = 4n mod p, the full period with the inversion replaced by a
    # linear map: its pairs lie on one line, and 4 D* is near 1
    p = _THEOREM2_PRIMES[-1]
    report = serial_test(4 * np.arange(p) % p / p, 2, (0, 1))
    assert report.theorem2_upper < 1
    assert report.extreme_upper > report.theorem2_upper


def test_star_scan_is_the_full_grid_scan_where_theorem2_can_fail():
    p = _THEOREM2_PRIMES[0]
    cloud = make_tuples(eicg_stream(StreamSpec.eicg(p, a=4, b=0), p).u, 2, (0, 1))
    assert star_discrepancy(cloud) == star_scan_full_grid(cloud.points, p)


def test_serial_test_eicg_within_bound():
    q = 101
    samples = eicg_stream(StreamSpec.eicg(q, a=4, b=0), q)
    report = serial_test(samples.u, 2, (0, 1))
    assert report.n == q and report.k == 2
    assert report.extreme_lower == report.star
    assert report.extreme_upper == pytest.approx(4 * report.star)
    assert report.theorem2_upper is not None
    assert report.extreme_upper <= report.theorem2_upper


def test_serial_test_default_lags_and_early_refusal():
    samples = eicg_stream(StreamSpec.eicg(101, a=4, b=0), 101).u
    for k in (1, 2, 3):
        assert serial_test(samples, k) == serial_test(samples, k, tuple(range(k)))
    # refused before k lags or k-tuples are built
    with pytest.raises(TooLarge, match="k <= 3"):
        serial_test(samples, 10**12)


def test_serial_test_constant_sequence_clusters():
    report = serial_test([0.1] * 32, 2, (0, 1))
    assert report.star > 0.9
    assert report.theorem2_upper is None  # 32 is not prime


def test_serial_test_grid_k1():
    q = 64
    report = serial_test([j / q for j in range(q)], 1, (0,))
    assert report.star == pytest.approx(1 / q)
    assert report.theorem2_upper is None


def test_theorem2_frozen_value():
    # independent evaluation of the bound at p=101, k=2
    expected = 2 / math.sqrt(101) * ((2 / math.pi * math.log(101) + 1.4) ** 2 + 1) + 2 / 101
    assert theorem2_upper(101, 2) == pytest.approx(expected, rel=1e-15)
    assert theorem2_upper(101, 2) == pytest.approx(3.9640, abs=5e-4)


def test_theorem2_limits():
    assert theorem2_upper(10**12 + 39, 2) < 1e-3  # decays like (log p)^k / sqrt(p)
    values = [theorem2_upper(101, k) for k in range(2, 6)]
    assert values == sorted(values)
    with pytest.raises(BadDimension):
        theorem2_upper(101, 1)
    with pytest.raises(BadDimension):
        theorem2_upper(5, 7)


def test_theorem3_values():
    threshold, fraction = theorem3_lower(101, 1.0)
    assert fraction == 0.0
    assert threshold == pytest.approx(1 / (2 * (math.pi + 2) * math.sqrt(101)))
    threshold_05, fraction_05 = theorem3_lower(101, 0.5)
    assert fraction_05 == pytest.approx(
        0.75 * 101 / (3.75 * 101 + 12 * math.sqrt(101) + 9), rel=1e-15
    )
    # threshold scales exactly like p^(-1/2)
    assert theorem3_lower(4 * 101, 0.5)[0] == pytest.approx(threshold_05 / 2)
    with pytest.raises(BadT):
        theorem3_lower(101, 0.0)
    with pytest.raises(BadT):
        theorem3_lower(101, 1.5)


def test_randu_single_triple():
    assert randu_plane_count(3) == 1


def test_randu_labels_within_range():
    labels = randu_plane_labels(20_000)
    assert labels <= set(range(-5, 10))
    xs = [1]  # the recurrence in Python integers, seed 1
    for _ in range(20_000 - 1):
        xs.append(65539 * xs[-1] % 2**31)
    assert labels == {
        (x2 - 6 * x1 + 9 * x0) // 2**31 for x0, x1, x2 in zip(xs, xs[1:], xs[2:])
    }
    assert randu_plane_count(20_000) == len(labels)


@pytest.mark.parametrize("window", [1, 2, 5])
def test_randu_windows_cover_every_triple(monkeypatch, window):
    # The first triples' labels (0 seven times, then -1, 8, -4, 3, ...) make
    # the set of a short stream change with each triple taken or dropped.
    monkeypatch.setattr(stattest, "_RANDU_WINDOW", window)
    xs = [1]
    for _ in range(40):
        xs.append(65539 * xs[-1] % 2**31)
    triples = [(x2 - 6 * x1 + 9 * x0) // 2**31 for x0, x1, x2 in zip(xs, xs[1:], xs[2:])]
    for count in range(3, 42):
        assert randu_plane_labels(count) == set(triples[: count - 2]), count


@pytest.mark.parametrize(
    "count", [3, 2**16 + 1, 2**16 + 2, 2**16 + 3, 3 * 2**16 + 2, 1_000_000]
)
def test_randu_labels_are_the_division_labels(count):
    # 2^16 + 2 samples fill one window exactly; 2^16 + 3 add a second window
    # of one triple.
    assert randu_plane_labels(count) == randu_plane_labels_by_division(count)


@pytest.mark.parametrize("window, state", [(1, 0), (0, -1)])
def test_randu_check_covers_the_window_seam(monkeypatch, window, state):
    # One state raised by one as one window reads it: the second window's
    # first state, seen only by that window's first triple, or the first
    # window's last state, seen only by its last triple, which reaches two
    # states into the second window.
    def broken(spec, count, start=0):
        stream = lcg_stream(spec, count, start)
        if start == window * stattest._RANDU_WINDOW:
            stream.x[state] += 1
        return stream

    monkeypatch.setattr(stattest, "lcg_stream", broken)
    with pytest.raises(InvariantViolation, match="recurrence"):
        randu_plane_labels(2 * stattest._RANDU_WINDOW)


def test_randu_peak_memory_is_one_window():
    # Two and eight windows: one window's states, combinations and count
    # (about 2 MB traced at both), whatever the sample count.
    def peak(count: int) -> int:
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            randu_plane_labels(count)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top - before

    window = stattest._RANDU_WINDOW
    assert peak(8 * window) <= 1.1 * peak(2 * window)


def test_randu_monotone_in_count():
    assert randu_plane_count(100) <= randu_plane_count(1000) <= 15


def test_chi2_uniform_grid_is_zero():
    q = 40
    stat, bins = chi_square_uniformity([j / q for j in range(q)], 20)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert bins == 20


def test_chi2_single_bin_maximal():
    n, bins = 60, 12
    stat, _ = chi_square_uniformity([0.01] * n, bins)
    assert stat == pytest.approx(n * (bins - 1))


def test_chi2_bin_budget_refused_before_any_work():
    # the quantile table judges 2..101 bins; a huge count is refused, not allocated
    assert chi_square_uniformity([0.5] * 10, 101)[1] == 101
    for bins in (102, 10**12):
        with pytest.raises(DomainError, match="bins"):
            chi_square_uniformity([0.5] * 10, bins)


@pytest.mark.parametrize(
    "samples", [[1.0, 0.2], [-0.1, 0.5], [math.nan, 0.5]], ids=["one", "negative", "nan"]
)
def test_chi2_refuses_samples_outside_the_unit_interval(samples):
    # 1.0 would be counted in a bin past the last, -0.1 in bin 0
    with pytest.raises(RangeError):
        chi_square_uniformity(samples, 2)


def test_chi2_rejects_empty():
    with pytest.raises(EmptyInput):
        chi_square_uniformity([], 10)


def test_chi2_eicg_passes():
    samples = eicg_stream(StreamSpec.eicg(1009, a=4, b=0), 1009)
    stat, _ = chi_square_uniformity(samples.u, 20)
    assert stat < chi2_quantile_999(19)


def test_chi2_quantile_table():
    assert chi2_quantile_999(1) == pytest.approx(10.828, abs=1e-3)
    assert chi2_quantile_999(19) == pytest.approx(43.820, abs=1e-3)
    assert chi2_quantile_999(100) == pytest.approx(149.449, abs=1e-3)
    with pytest.raises(ValueError):
        chi2_quantile_999(101)


def test_vfe_discrepancy_transfers_from_eicg():
    # same underlying integers, so identical serial behaviour once the
    # leading zero sample is prepended
    q = 211
    phases = vfe_unit_samples(q).u.tolist()
    eicg = eicg_stream(StreamSpec.eicg(q, a=4, b=0), q).u.tolist()
    assert eicg == [0.0] + phases
    star_eicg = star_discrepancy(make_tuples(eicg, 2, (0, 1)))
    star_vfe = star_discrepancy(make_tuples([0.0] + phases, 2, (0, 1)))
    assert star_eicg == star_vfe


def test_report_json_round_trip():
    q = 101
    samples = eicg_stream(StreamSpec.eicg(q, a=4, b=0), q)
    report = serial_test(samples.u, 2, (0, 1))
    payload = json.loads(json.dumps(dataclasses.asdict(report)))
    assert set(payload) == {
        "n",
        "k",
        "lags",
        "star",
        "extreme_lower",
        "extreme_upper",
        "theorem2_upper",
        "theorem_lower_scale",
    }
    assert payload["n"] == q
    assert payload["lags"] == [0, 1]
