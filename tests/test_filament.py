import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filament_prng.errors import DegeneratePolygon, NotCoprime
from filament_prng.filament import (
    CornerAngle,
    PolygonConfig,
    RationalTime,
    _side_rotations,
    build_polygon,
    circle_row,
    closure_residual_sides,
    corner_angle,
    corner_products_sides,
    polygon_windows,
    rotation_stack,
    z_qm_closed,
)
from filament_prng.gauss import active_indices, theta_sequence

from helpers import coprimes_by_gcd, transported_products


def config(sides, p, q):
    return PolygonConfig(sides, RationalTime(p, q))


def rotation(angle, theta):
    return rotation_stack(angle, np.array([theta]))[0]


def period_products(cfg):
    """Triple and scalar products over one period (L,) of one polygon, the
    stack of one side and one p; its M L products repeat this period."""
    q = cfg.time.q
    triples, scalars = corner_products_sides((cfg.sides,), q, theta_sequence(cfg.time.p, q))
    return triples[0], scalars[0]


def transported_frames(cfg):
    """Frames after each corner of one period: running products of the
    corner rotations, the phase at grid index j being theta_(j mod q)."""
    q = cfg.time.q
    active = active_indices(q)
    phases = dict(zip(active, theta_sequence(cfg.time.p, q).tolist()))
    grid = range(active.start, cfg.sides * q, active.step)
    rots = rotation_stack(corner_angle(cfg.sides, q), np.array([phases[j % q] for j in grid]))
    frames = []
    frame = np.eye(3)
    for rot in rots:
        frame = rot @ frame
        frames.append(frame)
    return frames


def test_rational_time_validation():
    with pytest.raises(NotCoprime):
        RationalTime(2, 4)
    with pytest.raises(ValueError):
        RationalTime(1, 0)
    assert RationalTime(0, 1).p == 0  # t = 0 is the initial polygon


def test_polygon_config_validation():
    with pytest.raises(DegeneratePolygon):
        PolygonConfig(2, RationalTime(1, 3))


def test_corner_count_and_spacing():
    assert config(3, 1, 5).corner_count == 15
    assert config(4, 1, 2).corner_count == 4
    assert config(3, 1, 1).side_length == pytest.approx(2 * math.pi / 3)
    assert config(5, 1, 2).side_length == pytest.approx(4 * math.pi / 10)


def test_corner_angle_examples():
    assert corner_angle(3, 1).rho == pytest.approx(2 * math.pi / 3, abs=1e-14)
    assert corner_angle(4, 1).rho == pytest.approx(math.pi / 2, abs=1e-14)
    assert corner_angle(6, 2).cos_rho == pytest.approx(0.5, abs=1e-14)


def test_corner_angle_rejects_degenerate():
    with pytest.raises(DegeneratePolygon):
        corner_angle(2, 1)


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=1, max_value=60))
def test_corner_angle_range(sides, q):
    angle = corner_angle(sides, q)
    assert 0.0 < angle.rho < math.pi
    assert angle.cos_rho**2 + angle.sin_rho**2 == pytest.approx(1.0, abs=1e-12)


def test_rotation_matrix_identity_at_zero_angle():
    flat = CornerAngle(rho=0.0, cos_rho=1.0, sin_rho=0.0)
    assert np.allclose(rotation(flat, 1.234), np.eye(3), atol=1e-15)


def test_rotation_matrix_theta_zero_layout():
    angle = corner_angle(3, 1)
    c, s = angle.cos_rho, angle.sin_rho
    expected = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(rotation(angle, 0.0), expected, atol=1e-15)


@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_rotation_matrix_orthogonal(rho, theta):
    angle = CornerAngle(rho=rho, cos_rho=math.cos(rho), sin_rho=math.sin(rho))
    m = rotation(angle, theta)
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_transport_planar_triangle():
    frames = transported_frames(config(3, 0, 1))
    assert len(frames) == 3
    step = rotation(corner_angle(3, 1), 0.0)
    acc = np.eye(3)
    for frame in frames:
        acc = step @ acc
        assert np.allclose(frame, acc, atol=1e-12)
    assert np.allclose(frames[-1], np.eye(3), atol=1e-10)


def test_transport_frame_count_and_orthonormality():
    frames = transported_frames(config(5, 1, 3))
    assert len(frames) == 15
    for frame in frames:
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-10)
        assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-10)
        assert frame[0] @ frame[1] == pytest.approx(0.0, abs=1e-10)
        assert frame[0] @ frame[2] == pytest.approx(0.0, abs=1e-10)


def test_orthonormality_drift_stays_small():
    frames = transported_frames(config(10, 7, 50))
    last = frames[-1]
    assert np.linalg.norm(last @ last.T - np.eye(3)) < 1e-8


@pytest.mark.parametrize(
    "sides,p,q,bound",
    [(3, 0, 1, 1e-10), (3, 1, 2, 1e-8), (7, 2, 5, 1e-8)],
)
def test_closure_examples(sides, p, q, bound):
    assert closure_residual_sides((sides,), q, theta_sequence(p, q))[0] < bound


def test_build_polygon_square():
    verts = build_polygon(config(4, 0, 1))
    assert verts.shape == (4, 3)
    ell = config(4, 0, 1).side_length
    final_tangent = transported_frames(config(4, 0, 1))[-1][0]
    assert np.linalg.norm(verts[0] - (verts[-1] + ell * final_tangent)) < 1e-10


def test_build_polygon_triangle_side_length():
    verts = build_polygon(config(3, 0, 1))
    assert np.linalg.norm(verts[1] - verts[0]) == pytest.approx(
        2 * math.pi / 3, abs=1e-12
    )


def test_build_polygon_skew_closes():
    cfg = config(5, 1, 2)
    verts = build_polygon(cfg)
    assert verts.shape == (5, 3)
    final_tangent = transported_frames(cfg)[-1][0]
    gap = verts[0] - (verts[-1] + cfg.side_length * final_tangent)
    assert np.linalg.norm(gap) < 1e-10


def test_build_polygon_matches_transported_frames():
    # bit-identical to the running products of the corner rotations
    for sides, p, q in [(5, 1, 3), (4, 5, 6), (6, 5, 12), (7, 3, 97), (3, 511, 1024)]:
        cfg = config(sides, p, q)
        tangents = np.array([frame[0] for frame in transported_frames(cfg)])
        expected = np.zeros_like(tangents)
        expected[1:] = np.cumsum(cfg.side_length * tangents[:-1], axis=0)
        assert np.array_equal(build_polygon(cfg), expected)


def test_polygon_windows_concatenate_to_the_polygon_bit_for_bit():
    # the frame, the last vertex and its step carry across blocks of any size
    for sides, p, q in [(5, 1, 3), (4, 5, 6), (6, 5, 12), (7, 3, 97), (3, 511, 1024)]:
        cfg = config(sides, p, q)
        whole = build_polygon(cfg)
        count = cfg.corner_count
        for rows in (1, 2, 7, count - 1, count, count + 1):
            blocks = list(polygon_windows(cfg, rows))
            assert [len(b) for b in blocks] == [min(rows, count - lo) for lo in range(0, count, rows)]
            assert np.concatenate(blocks).tobytes() == whole.tobytes(), (sides, q, rows)


def test_triple_product_planar_is_zero():
    cfg = config(4, 1, 1)
    triples, _ = period_products(cfg)
    assert len(triples) * cfg.sides == cfg.corner_count
    for triple in triples.tolist():
        assert triple == pytest.approx(0.0, abs=1e-12)


def test_scalar_product_planar_is_cos_2rho():
    for sides in (3, 4, 7):
        cfg = config(sides, 1, 1)
        rho = corner_angle(sides, 1).rho
        _, scalars = period_products(cfg)
        assert len(scalars) * sides == cfg.corner_count
        for scalar in scalars.tolist():
            assert scalar == pytest.approx(math.cos(2 * rho), abs=1e-12)


def test_q2_degenerate_case():
    # the half-turn time: triple 0 and scalar cos(4 pi / M)
    for sides in (3, 4, 5, 8):
        cfg = config(sides, 1, 2)
        triples, scalars = period_products(cfg)
        assert len(triples) * sides == cfg.corner_count
        for triple, scalar in zip(triples.tolist(), scalars.tolist()):
            assert triple == pytest.approx(0.0, abs=1e-12)
            assert scalar == pytest.approx(math.cos(4 * math.pi / sides), abs=1e-12)


@pytest.mark.parametrize(
    "sides,q,p,m",
    [(3, 5, 1, 0), (4, 4, 1, 0), (5, 3, 1, 1)],
)
def test_products_match_closed_form_examples(sides, q, p, m):
    triples, scalars = period_products(config(sides, p, q))
    closed = z_qm_closed(sides, q, p, m)
    assert triples[m % len(triples)] == pytest.approx(closed.real, abs=1e-10)
    assert scalars[m % len(scalars)] == pytest.approx(closed.imag, abs=1e-10)


def test_products_match_closed_form_sweep():
    for sides in (3, 4, 5):
        for q in range(1, 16):
            for p in coprimes_by_gcd(q) or [1]:
                cfg = config(sides, p, q)
                triples, scalars = period_products(cfg)
                for m in range(cfg.corner_count):  # index m reads column m mod L
                    closed = z_qm_closed(sides, q, p, m)
                    j = m % len(triples)
                    assert complex(triples[j], scalars[j]) == pytest.approx(
                        closed, abs=1e-9
                    )


def test_rotation_invariance_of_products():
    # the transported products do not depend on the starting frame, which is
    # why the corner products can be read in the frame at each corner
    spin = rotation(
        CornerAngle(rho=0.9, cos_rho=math.cos(0.9), sin_rho=math.sin(0.9)), 1.3
    )
    tilt = rotation(
        CornerAngle(rho=0.4, cos_rho=math.cos(0.4), sin_rho=math.sin(0.4)), -2.6
    )
    initial = spin @ tilt
    for sides, p, q in [(3, 1, 5), (4, 1, 6), (5, 1, 8), (6, 5, 12)]:
        thetas = theta_sequence(p, q)
        base_t, base_s = transported_products(sides, q, thetas)
        rot_t, rot_s = transported_products(sides, q, thetas, initial=initial)
        assert np.allclose(base_t, rot_t, atol=1e-10)
        assert np.allclose(base_s, rot_s, atol=1e-10)
        triples, scalars = period_products(config(sides, p, q))
        assert np.allclose(triples, rot_t.reshape(sides, -1), atol=1e-10)
        assert np.allclose(scalars, rot_s.reshape(sides, -1), atol=1e-10)


def test_corner_products_match_transported_oracle():
    # every coprime (p, q <= 60) and M = 3..8: one period of the
    # two-rotation products against every period of a frame transported
    # through every corner, reshaped to (P, M, L) (gap at most 2.7e-14)
    sides_range = range(3, 9)
    for q in range(1, 61):
        ps = np.array(coprimes_by_gcd(q) or [1], dtype=np.int64)
        thetas = theta_sequence(ps, q)
        period = len(active_indices(q))
        all_t, all_s = corner_products_sides(sides_range, q, thetas)
        assert all_t.shape == (len(sides_range), len(ps), period)
        for sides, triples, scalars in zip(sides_range, all_t, all_s):
            want_t, want_s = transported_products(sides, q, thetas)
            assert want_t.shape == (len(ps), config(sides, 1, q).corner_count)
            periods = (len(ps), sides, period)
            assert np.max(np.abs(triples[:, None, :] - want_t.reshape(periods))) < 1e-12
            assert np.max(np.abs(scalars[:, None, :] - want_s.reshape(periods))) < 1e-12


@pytest.mark.parametrize("q", [4093, 4095, 4094, 4096, 65537, 65538])
def test_large_q_products_in_every_class(q):
    # q = 1 mod 4 (prime), 3 mod 4, 2 mod 4, 0 mod 4 near 2**12, and the
    # prime 2**16 + 1 with its 2 mod 4 neighbour, for three seeded p each
    rng = np.random.default_rng(q)
    ps = np.sort(rng.choice(coprimes_by_gcd(q), 3, replace=False)).astype(np.int64)
    thetas = theta_sequence(ps, q)
    all_t, all_s = corner_products_sides((3, 5), q, thetas)
    residuals = closure_residual_sides((3, 5), q, thetas)
    for sides, t, s, residual in zip((3, 5), all_t, all_s, residuals):
        # one period against every period of the closed form and the transport
        periods = (len(ps), sides, t.shape[-1])
        triples, scalars = t[:, None, :], s[:, None, :]
        closed = z_qm_closed(sides, q, ps[:, None], np.arange(sides * t.shape[-1]))
        closed = closed.reshape(periods)
        assert np.max(np.hypot(triples - closed.real, scalars - closed.imag)) < 1e-8
        want_t, want_s = transported_products(sides, q, thetas)
        # transport drift over up to 5 * 65537 corners measured at most 5.4e-12
        assert np.max(np.abs(triples - want_t.reshape(periods))) < 1e-10
        assert np.max(np.abs(scalars - want_s.reshape(periods))) < 1e-10
        assert np.max(residual) < 1e-7


def test_z_qm_closed_trivial_time():
    for sides in (3, 5):
        rho = corner_angle(sides, 1).rho
        z = z_qm_closed(sides, 1, 0, 0)
        assert z == pytest.approx(1j * math.cos(2 * rho), abs=1e-12)


def test_z_qm_closed_example_real_part():
    angle = corner_angle(3, 3)
    z = z_qm_closed(3, 3, 1, 0)
    assert z.real == pytest.approx(
        angle.sin_rho**2 * math.sqrt(3) / 2, abs=1e-12
    )


def test_z_qm_closed_circle_invariant():
    for sides, q in [(3, 7), (4, 12), (5, 10), (6, 9)]:
        angle = corner_angle(sides, q)
        center = 1j * angle.cos_rho**2
        for p in coprimes_by_gcd(q)[:6]:
            cfg = config(sides, p, q)
            for m in range(cfg.corner_count):
                z = z_qm_closed(sides, q, p, m)
                assert abs(z - center) == pytest.approx(
                    angle.sin_rho**2, abs=1e-9
                )


@pytest.mark.parametrize(
    "sides,q,p",
    # p = (-4)^-1 mod q makes phi = (4p)^-1 = q - 1, the largest phase.
    [(3, 7, 3), (4, 10, 3), (5, 12, 5), (3, 2**31 - 1, pow(-4, -1, 2**31 - 1))],
)
def test_z_qm_closed_row_matches_exact_phase(sides, q, p):
    # Indices reach 3q; at q = 2**31 - 1 an unreduced phi * (2m + 1) would
    # overflow int64.
    rng = np.random.default_rng(q)
    m = np.concatenate([np.arange(3 * min(q, 40) + 1), [q - 1, q, 2 * q + 5, 3 * q],
                        rng.integers(0, 3 * q + 1, 64)])
    if q % 2:
        phases = [Fraction(pow(4 * p, -1, q) * (2 * k + 1), q) % 1 for k in m.tolist()]
    elif q % 4 == 2:
        phases = [Fraction(pow(p, -1, q // 2) * k, q // 2) % 1 for k in m.tolist()]
    else:
        phases = [Fraction(pow(p, -1, q) * (2 * k + 1), q) % 1 for k in m.tolist()]
    row = z_qm_closed(sides, q, p, m)
    # Equal phases, correctly rounded, give bit-identical circle points.
    expected = circle_row(corner_angle(sides, q), [float(u) for u in phases])
    assert row.tolist() == expected.tolist()
    assert [z_qm_closed(sides, q, p, k) for k in m[:5].tolist()] == row[:5].tolist()


def test_z_qm_closed_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        z_qm_closed(3, 6, 3, 0)


def test_stacked_rows_equal_single_polygon_rows():
    # every polygon of the default theorem1 sweep (M <= 8, q <= 40): the
    # theta rows, corner products and closure residuals of a stack of all
    # coprime p equal, bit for bit, those of each polygon on its own
    polygons = 0
    for q in range(1, 41):
        ps = np.array(coprimes_by_gcd(q) or [1], dtype=np.int64)
        thetas = theta_sequence(ps, q)
        for sides in range(3, 9):
            (triples,), (scalars,) = corner_products_sides((sides,), q, thetas)
            (residuals,) = closure_residual_sides((sides,), q, thetas)
            for i, p in enumerate(ps.tolist()):
                single = theta_sequence(p, q)
                assert np.array_equal(thetas[i], single)
                (one_t,), (one_s,) = corner_products_sides((sides,), q, single)
                assert np.array_equal(triples[i], one_t)
                assert np.array_equal(scalars[i], one_s)
                assert residuals[i] == closure_residual_sides((sides,), q, single)[0]
                polygons += 1
    assert polygons == 2940


def test_side_stacks_equal_one_side_forms_byte_for_byte():
    # every q <= 60 (all four classes mod 4) and M = 3..10: the rotations,
    # products and residuals of one stack over every M equal the one-side
    # forms byte for byte, so signed zeros too (the rotations hold -0.0)
    sides = range(3, 11)
    negative_zeros = 0
    for q in range(1, 61):
        thetas = theta_sequence(np.array(coprimes_by_gcd(q) or [1], dtype=np.int64), q)
        rotations = _side_rotations(sides, q, thetas)
        triples, scalars = corner_products_sides(sides, q, thetas)
        residuals = closure_residual_sides(sides, q, thetas)
        for i, m in enumerate(sides):
            assert rotations[i].tobytes() == rotation_stack(corner_angle(m, q), thetas).tobytes()
            one_t, one_s = corner_products_sides((m,), q, thetas)
            assert triples[i].tobytes() == one_t[0].tobytes(), (q, m)
            assert scalars[i].tobytes() == one_s[0].tobytes(), (q, m)
            assert residuals[i].tobytes() == closure_residual_sides((m,), q, thetas)[0].tobytes()
        negative_zeros += int(np.sum((rotations == 0) & np.signbit(rotations)))
    assert negative_zeros > 0
