"""Serial-test discrepancy machinery, reference bounds, and structure probes.

The quality measure is the discrepancy of wraparound k-tuples from a full
generator period.  The extreme discrepancy (over all subintervals) is
expensive to compute exactly, so the star discrepancy D* over anchored
boxes is computed exactly instead and the standard enclosure
D* <= D <= 2^k D* is reported alongside it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import BadDimension, BadLags, BadParameters, BadT, EmptyInput, InvariantViolation, RangeError, TooLarge
from .modular import is_probable_prime
from .prng import check_budget, lcg_stream, randu_preset

# The dtype of the exact scan's counts; no count exceeds N, so N is
# limited to its largest value, 32,767.
_COUNT = np.int16
MAX_EXACT_POINTS = int(np.iinfo(_COUNT).max)
MAX_EXACT_DIM = 3
# Work budget of the exact scan: the number of anchored boxes on its grid,
# the product over axes of (distinct coordinates + 1).  It admits k = 2 up
# to N = MAX_EXACT_POINTS, as (2^15)^2 = 2^30, and k = 3 up to N = 1023.
# On a 2-core machine one scan of an EICG cloud takes about 0.016 s at
# k = 2, N = 4093, 0.24-0.41 s at k = 2, N = 32,749, 0.012 s at k = 3,
# N = 401 and 0.11 s at k = 3, N = 1009.  The k = 2 lattice cloud at
# p = 32,749, where the block bounds prune almost nothing, takes 4.3-4.9 s
# at a peak RSS of 47 MB.  The k = 3 cost is left to the count increments,
# which still grow like N^3.
MAX_EXACT_BOXES = 2**30
# Triples per window of the RANDU plane scan.
_RANDU_WINDOW = 2**16
# The star scan's seed: its stride over the distinct first coordinates, and
# the entries of one slice of its cumulative histograms.
_SEED_STRIDE = 8
_SEED_SLICE = 2**14
# Rounding margin of the star scan's skip tests, far above the few ulps by
# which fl(x*v), fl(c/n), their difference and fl(x' - x) can stray.
_SKIP_MARGIN = 2.0**-40


@dataclass(frozen=True, eq=False)
class TupleCloud:
    """k-tuples (u_{n+n_1}, ..., u_{n+n_k}) over a full period, wrapped."""

    points: np.ndarray  # (n, k), every coordinate in [0, 1)
    k: int
    lags: tuple[int, ...]
    n: int


@dataclass(frozen=True)
class DiscrepancyReport:
    """Measured star discrepancy with its extreme-discrepancy enclosure,
    its fields in the order of the `stats serial` JSON report."""

    n: int
    k: int
    lags: tuple[int, ...]
    star: float
    extreme_lower: float
    extreme_upper: float
    theorem2_upper: float | None = None
    theorem_lower_scale: float | None = None


def make_tuples(samples: Sequence[float], k: int, lags: Sequence[int]) -> TupleCloud:
    """One k-tuple per sample index, indices wrapping modulo the period."""
    u = np.asarray(samples, dtype=float)
    n = len(u)
    if n == 0:
        raise EmptyInput("no samples")
    try:
        lags = tuple(operator.index(x) for x in lags)
    except TypeError:
        raise BadLags(f"lags must be integers, got {tuple(lags)}") from None
    if (
        len(lags) != k
        or not lags
        or lags[0] != 0
        or any(b <= a for a, b in zip(lags, lags[1:]))
        or lags[-1] >= n
    ):
        raise BadLags(f"lags must satisfy 0 = n_1 < ... < n_k < {n}, got {lags}")
    idx = (np.arange(n)[:, None] + np.array(lags)[None, :]) % n
    return TupleCloud(points=u[idx], k=k, lags=lags, n=n)


def star_discrepancy(cloud: TupleCloud) -> float:
    """Exact star discrepancy D*_N of the tuple cloud.

    The supremum over anchored boxes is attained on the grid of point
    coordinates extended by 1.0 in each axis, provided both the open count
    (coordinates strictly below the corner) and the closed count (below or
    equal) are examined; this scans both.  Exact for k <= 3 and N <= 32,767,
    and refused before any work when the box count exceeds MAX_EXACT_BOXES
    or a coordinate lies outside [0, 1).
    """
    check_exact(cloud.k, cloud.n)
    if not ((cloud.points >= 0.0) & (cloud.points < 1.0)).all():
        raise RangeError("tuple coordinates must lie in [0, 1)")
    axes = [np.unique(column, return_inverse=True) for column in cloud.points.T]
    boxes = math.prod(len(values) + 1 for values, _ in axes)
    if boxes > MAX_EXACT_BOXES:
        raise TooLarge(
            f"exact scan limited to {MAX_EXACT_BOXES} anchored boxes (2**30); "
            f"k={cloud.k}, N={cloud.n} needs {boxes}"
        )
    return _star_scan(axes, cloud.n)


def check_exact(k: int, n: int) -> None:
    """Refuse a serial test of dimension k over n samples beyond the exact
    scan; the box budget needs the cloud and is checked with it."""
    if k > MAX_EXACT_DIM or n > MAX_EXACT_POINTS:
        raise TooLarge(
            f"exact algorithm limited to k <= {MAX_EXACT_DIM}, "
            f"N <= {MAX_EXACT_POINTS}; got k={k}, N={n}"
        )


def _star_scan(axes: list[tuple[np.ndarray, np.ndarray]], n: int) -> float:
    """One sweep over the distinct first coordinates x, then x = 1.0,
    evaluating exactly only the anchored boxes that can beat the running
    maximum.

    `axes` holds np.unique(column, return_inverse=True) of each column.
    The corners are the other axes' distinct coordinates, each extended by
    1.0; `closed` counts the points at or below a corner in every other
    coordinate and at or below x, behind a leading zero row per axis (the
    boxes with an empty side).  At a corner, the open box at x holds the
    count one row lower on every axis before x's points are added; the
    closed box holds the corner's own count after them.  The counts are
    `_COUNT`, which holds every count up to N = MAX_EXACT_POINTS.

    A box's count changes only at an x with a point in it, inside the
    region above the componentwise lowest corner of x's points.  So only
    that region is examined: the open term x*vol - count/n before x's
    increments, the closed term count/n - x*vol after them.  The pass at
    x = 1.0 examines every box, the open ones with an empty side included.
    Nothing skipped can be larger.  fl(x*v) never decreases as x grows
    (v >= 0), and fl(a - b) is monotone in each argument.  So while a
    count stays put, its open term is largest at the last x before the
    count rises (read there, or at 1.0 when it never rises again), and its
    closed term at the first x with that count (read there, or at most 0
    for a count of 0).

    The corner grid is cut into blocks of `_block_edge` corners a side,
    the far end of each axis padded with copies of its last corner, and
    the region into the blocks that meet it.  vol and both counts never
    decrease along an axis, and fl(x*v), fl(c/n) and fl(a - b) are
    monotone in each argument, so no box of a block has an open term above
    x*vol at the block's far corner minus the open count at its near
    corner over n, nor a closed term above the closed count at its far
    corner over n minus x*vol at its near corner.  A bound pass
    (`_bound_pass`) takes these bounds for every block at one x, and
    evaluates, whole, the region's blocks whose bound exceeds the running
    maximum: their cells outside the region are boxes of a scan of every
    box at every x too.

    Most bound passes are skipped.  Let G be the largest bound over all
    blocks at the last pass of a kind that was taken, at x.  At a later
    x', a block's open bound is at most G + (x' - x): its far vol is at
    most 1, so fl(x'*v) exceeds fl(x*v) by at most (x' - x) and a few
    ulps, and its near count has not fallen.  A closed bound is at most
    G + K/n after K more points: x*vol at the near corner has not fallen,
    and the far count has grown by at most K.  So a pass whose G plus that
    growth, plus `_SKIP_MARGIN` for the rounding of fl(x*v), fl(c/n), the
    differences and fl(x' - x), does not exceed the running maximum would
    let no block through, and it is not taken; its points are still added.

    The running maximum starts from `_seed`: the largest exact open and
    closed terms at the blocks' near corners at every `_SEED_STRIDE`-th
    distinct x, counted before and after that x's points as above.  Each
    is the term of a box that the scan of every box at every x evaluates
    with the same float expressions, so the seed never exceeds the result,
    and every term skipped, by a region, a block or a pass, is at most the
    running maximum.  The result is the same double as that scan.  On the
    EICG clouds of the pinned `stats serial` cases at k = 2, N = 4093 and
    k = 3, N = 401 the scan takes 745 of 8,188 and 186 of 804 bound passes.
    """
    (xs, ix), *others = axes
    sizes = tuple(len(u) + 1 for u, _ in others)
    edge = _block_edge(sizes)
    padded = [-(-size // edge) * edge for size in sizes]
    vol = reduce(
        np.multiply.outer,
        [np.append(u, np.ones(length - len(u))) for (u, _), length in zip(others, padded)],
        np.ones(()),
    )
    order = np.argsort(ix)
    corners = np.stack([inverse for _, inverse in axes], axis=1)[order, 1:]
    ends = np.cumsum(np.bincount(ix)).tolist()  # the points of each x are corners[lo:hi]
    lows = (np.minimum.reduceat(corners, [0, *ends[:-1]], axis=0) // edge).tolist()
    steps = [tuple(slice(c + 1, None) for c in corner) for corner in corners.tolist()]
    # the padding repeats the count at 1.0, as vol's repeats 1.0; the
    # trailing ... keeps the 0-d grids of k = 1 views
    closed = np.zeros(tuple(length + 1 for length in padded), dtype=_COUNT)
    near, far = ((slice(start, None, edge),) * vol.ndim + (...,) for start in (0, edge - 1))
    lower, upper = ((slice(start, stop),) * vol.ndim + (...,) for start, stop in ((0, -1), (1, None)))
    near_vol, far_vol = vol[near].copy(), vol[far].copy()  # compact: every bound pass reads them
    cells = _by_block(vol, edge)
    # per kind of box, the vol and counts of its block bounds, then of its
    # cells: at a corner, closed[lower] is the open box's count (one row
    # lower on every axis) and closed[upper] the closed box's
    opened = (far_vol, closed[lower][near], cells, _by_block(closed[lower], edge), True)
    shut = (near_vol, closed[upper][far], cells, _by_block(closed[upper], edge), False)
    best = _seed(xs, ix[order], corners, near_vol, edge, n)
    top_open = top_closed = math.inf
    x_open, added = 0.0, 0
    for x, low, lo, hi in zip([*xs.tolist(), 1.0], [*lows, [0] * vol.ndim], [0, *ends], [*ends, n]):
        if top_open + (x - x_open) + _SKIP_MARGIN > best:
            top_open, best = _bound_pass(x, low, best, n, *opened)
            x_open = x
        for step in steps[lo:hi]:
            closed[step] += 1
        added += hi - lo
        if top_closed + added / n + _SKIP_MARGIN > best:
            top_closed, best = _bound_pass(x, low, best, n, *shut)
            added = 0
    return best


def _block_edge(shape: tuple[int, ...]) -> int:
    """Corners a side of the scan's blocks: about the cube root of the
    longest axis, which balances the per-x bounds against the cells of the
    blocks they let through."""
    return max(1, round(max(shape, default=1) ** (1 / 3)))


def _by_block(grid: np.ndarray, edge: int) -> np.ndarray:
    """A view of a grid of whole blocks with the block indices first: cell
    (b_1 edge + c_1, ..., b_d edge + c_d) at [b_1, ..., b_d, c_1, ..., c_d]."""
    split = grid.reshape([part for size in grid.shape for part in (size // edge, edge)])
    return split.transpose([*range(0, 2 * grid.ndim, 2), *range(1, 2 * grid.ndim, 2)])


def _seed(
    xs: np.ndarray, ix: np.ndarray, corners: np.ndarray, near_vol: np.ndarray, edge: int, n: int
) -> float:
    """The largest open or closed term, or 0.0, at the blocks' near corners
    at xs[0], xs[S], xs[2S], ... (S = _SEED_STRIDE), for the scan's seed.

    `ix` holds each point's x index in ascending order and `corners` its
    other corner indices in the same order.  A point counts in the open box
    at sample s and near corner b*edge when its x index is below s*S and
    each other corner index below b*edge, i.e. from sample ix // S + 1 and
    block c // edge + 1 on; in the closed box when they are at most those,
    from sample ceil(ix / S) and block ceil(c / edge) on.  So each count is
    a cumulative sum, over samples and blocks, of the histogram of those
    first bins.  It is summed a slice of at most _SEED_SLICE entries (or
    one sample) at a time, carrying the sum of the samples before, and each
    term is taken with the scan's own float expressions.
    """
    samples = xs[::_SEED_STRIDE]
    shape = tuple(size + 1 for size in near_vol.shape)  # a bin past the last block counts nowhere
    width = math.prod(shape)
    strides = np.array([math.prod(shape[axis + 1 :]) for axis in range(len(shape))], dtype=np.intp)
    rows = max(1, _SEED_SLICE // width)
    cut = (slice(None),) + (slice(0, -1),) * near_vol.ndim
    best = 0.0
    for opened in (True, False):
        if opened:  # x' < x and c < near: the first sample and block past the point's
            row, flat = ix // _SEED_STRIDE + 1, (corners // edge + 1) @ strides
        else:  # x' <= x and c <= near: the first sample and block at or past it
            row, flat = -(-ix // _SEED_STRIDE), -(-corners // edge) @ strides
        total = np.zeros(shape, dtype=np.int64)
        for first in range(0, len(samples), rows):
            last = min(first + rows, len(samples))
            lo, hi = np.searchsorted(row, [first, last])
            counts = np.bincount(
                (row[lo:hi] - first) * width + flat[lo:hi], minlength=(last - first) * width
            ).reshape((last - first, *shape))
            for axis in range(1, counts.ndim):
                np.cumsum(counts, axis=axis, out=counts)
            counts[0] += total
            for sample in range(1, len(counts)):
                counts[sample] += counts[sample - 1]
            total = counts[-1]
            x = samples[first:last].reshape((-1,) + (1,) * near_vol.ndim)
            best = max(best, float(_terms(x, near_vol, counts[cut], n, opened).max()))
    return best


def _bound_pass(
    x: float,
    low: list[int],
    best: float,
    n: int,
    bound_vol: np.ndarray,
    bound_counts: np.ndarray,
    vol_cells: np.ndarray,
    count_cells: np.ndarray,
    opened: bool,
) -> tuple[float, float]:
    """One bound pass at x: every block's bound (x*vol at its far corner
    minus its open count at its near corner over n, or its closed count at
    its far corner over n minus x*vol at its near corner), then the cells of
    the blocks of x's region, above `low`, whose bound exceeds `best`,
    evaluated.  Returns the largest bound over all blocks and the new
    running maximum."""
    bound = _terms(x, bound_vol, bound_counts, n, opened)
    top = float(bound.max())
    if top > best:
        region = tuple(slice(b, None) for b in low) + (...,)
        chosen = bound[region] > best
        if chosen.any():
            best = max(
                best,
                _terms_max(x, vol_cells[region][chosen], count_cells[region][chosen], n, opened),
            )
    return top, best


def _terms(x: float | np.ndarray, vol: np.ndarray, counts: np.ndarray, n: int, opened: bool) -> np.ndarray:
    """The open terms x*vol - count/n, or the closed terms count/n - x*vol."""
    frac = counts / n
    return x * vol - frac if opened else frac - x * vol


def _terms_max(x: float, vol: np.ndarray, counts: np.ndarray, n: int, opened: bool) -> float:
    """The largest open or closed term over the cells given."""
    return float(_terms(x, vol, counts, n, opened).max())


def theorem2_upper(p: int, k: int) -> float:
    """Upper discrepancy bound for any full-period inversive stream:
    2 p^(-1/2) ((k-1)((2/pi) ln p + 7/5)^k + 1) + k/p."""
    if not 2 <= k < p:
        raise BadDimension(f"need 2 <= k < p, got k={k}, p={p}")
    return (
        2.0 / math.sqrt(p) * ((k - 1) * (2.0 / math.pi * math.log(p) + 1.4) ** k + 1.0)
        + k / p
    )


def theorem3_lower(p: int, t: float) -> tuple[float, float]:
    """Existence threshold t/(2(pi+2)) p^(-1/2) together with the parameter
    fraction A_p(t) = (1-t^2) p / ((4-t^2) p + 12 sqrt(p) + 9).

    This is a statement about how many multipliers exceed the threshold,
    not a per-instance inequality; callers report it, they do not assert it.
    """
    if not 0.0 < t <= 1.0:
        raise BadT(f"need 0 < t <= 1, got {t}")
    threshold = t / (2.0 * (math.pi + 2.0)) / math.sqrt(p)
    fraction = (1.0 - t * t) * p / ((4.0 - t * t) * p + 12.0 * math.sqrt(p) + 9.0)
    return threshold, fraction


def serial_test(
    samples: Sequence[float], k: int, lags: Sequence[int] | None = None
) -> DiscrepancyReport:
    """Star discrepancy of the wraparound k-tuples with the enclosure
    [D*, 2^k D*]; the reference bounds are attached when the sample count
    is prime (the full-period case they apply to).  The lags default to
    0, 1, ..., k - 1; a cloud beyond the exact algorithm is refused first."""
    check_exact(k, len(samples))
    cloud = make_tuples(samples, k, range(k) if lags is None else lags)
    star = star_discrepancy(cloud)
    upper = scale = None
    if 2 <= k < cloud.n and is_probable_prime(cloud.n):
        upper = theorem2_upper(cloud.n, k)
        scale = theorem3_lower(cloud.n, 1.0)[0]
    return DiscrepancyReport(
        n=cloud.n,
        k=k,
        lags=cloud.lags,
        star=star,
        extreme_lower=star,
        extreme_upper=float(2**k) * star,
        theorem2_upper=upper,
        theorem_lower_scale=scale,
    )


def randu_plane_labels(sample_count: int) -> set[int]:
    """Distinct integers (x_{n+2} - 6 x_{n+1} + 9 x_n) / 2^31 over RANDU
    triples; each labels one plane 9x - 6y + z = label in the unit cube.

    The triples are read in windows of at most _RANDU_WINDOW, each window's
    states from one jump-ahead lcg_stream call, so memory is bounded by one
    window; the sample count is refused beyond MAX_STREAM_SAMPLES, as one
    stream call would refuse it.

    The modulus q = 2^31 is a power of two, so each combination is checked
    to be a multiple of q by the mask q - 1 and labelled by the arithmetic
    shift by 31, the floor of combo / q.  With every state in [0, q),
    combo lies in (-6q, 10q), so every label lies in -6..9 (in -5..9, the
    15 planes, once combo is a multiple of q) and the labels seen are the
    nonzero bins of one 16-bin count summed over the windows.
    A window holding a state outside [0, q) is refused first: a state
    raised by a multiple of q keeps every combination a multiple of q and
    can move its labels outside -6..9, to planes that miss the unit cube."""
    if sample_count < 3:
        raise BadParameters(f"need at least 3 samples, got {sample_count}")
    check_budget(sample_count)  # the stream's own refusal, before any window
    spec = randu_preset()
    mask, shift = spec.q - 1, spec.q.bit_length() - 1
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, sample_count - 2, _RANDU_WINDOW):
        x = lcg_stream(spec, min(_RANDU_WINDOW, sample_count - 2 - start) + 2, start).x
        if np.any(x >> shift):
            raise InvariantViolation("RANDU state outside [0, 2^31)")
        combo = x[2:] - 6 * x[1:-1] + 9 * x[:-2]
        if np.any(combo & mask):
            raise InvariantViolation("RANDU three-term recurrence violated")
        combo >>= shift
        combo += 6
        counts += np.bincount(combo, minlength=16)
    return set((np.flatnonzero(counts) - 6).tolist())


def randu_plane_count(sample_count: int) -> int:
    """Number of distinct planes hit by consecutive RANDU triples."""
    return len(randu_plane_labels(sample_count))


def chi_square_uniformity(samples: Sequence[float], bins: int) -> tuple[float, int]:
    """Pearson chi^2 statistic of the sample histogram against uniformity,
    over 2..101 bins: the bin counts chi2_quantile_999 can judge."""
    if not 2 <= bins <= len(_CHI2_Q999) + 1:
        raise BadParameters(f"need 2..{len(_CHI2_Q999) + 1} bins, got {bins}")
    u = np.asarray(samples, dtype=float)
    if u.size == 0:
        raise EmptyInput("no samples")
    if not ((u >= 0.0) & (u < 1.0)).all():
        raise RangeError("samples must lie in [0, 1)")
    counts = np.bincount((u * bins).astype(np.int64), minlength=bins)
    expected = u.size / bins
    return float(((counts - expected) ** 2 / expected).sum()), bins


# 99.9% chi^2 quantiles for 1..100 degrees of freedom (frozen constants, so
# no statistics library is needed at runtime).
_CHI2_Q999 = (
    10.8276, 13.8155, 16.2662, 18.4668, 20.5150,
    22.4577, 24.3219, 26.1245, 27.8772, 29.5883,
    31.2641, 32.9095, 34.5282, 36.1233, 37.6973,
    39.2524, 40.7902, 42.3124, 43.8202, 45.3147,
    46.7970, 48.2679, 49.7282, 51.1786, 52.6197,
    54.0520, 55.4760, 56.8923, 58.3012, 59.7031,
    61.0983, 62.4872, 63.8701, 65.2472, 66.6188,
    67.9852, 69.3465, 70.7029, 72.0547, 73.4020,
    74.7449, 76.0838, 77.4186, 78.7495, 80.0767,
    81.4003, 82.7204, 84.0371, 85.3506, 86.6608,
    87.9680, 89.2722, 90.5734, 91.8718, 93.1675,
    94.4605, 95.7510, 97.0388, 98.3242, 99.6072,
    100.8879, 102.1662, 103.4424, 104.7163, 105.9881,
    107.2579, 108.5256, 109.7913, 111.0551, 112.3169,
    113.5769, 114.8351, 116.0915, 117.3462, 118.5991,
    119.8503, 121.1000, 122.3480, 123.5944, 124.8392,
    126.0826, 127.3244, 128.5648, 129.8037, 131.0412,
    132.2773, 133.5121, 134.7455, 135.9776, 137.2084,
    138.4379, 139.6661, 140.8931, 142.1189, 143.3435,
    144.5670, 145.7892, 147.0104, 148.2304, 149.4493,
)


def chi2_quantile_999(dof: int) -> float:
    """99.9% quantile of the chi^2 distribution, dof in 1..100."""
    if not 1 <= dof <= len(_CHI2_Q999):
        raise BadParameters(
            f"quantile table covers dof 1..{len(_CHI2_Q999)} "
            f"(2..{len(_CHI2_Q999) + 1} bins), got dof {dof}"
        )
    return _CHI2_Q999[dof - 1]
