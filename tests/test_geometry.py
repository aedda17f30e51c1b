import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefield_anc.geometry import ball_points, cart_to_sph, sphere_points

finite_coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def sph_to_cart(r, theta, phi):
    st_ = np.sin(theta)
    return np.array([r * st_ * np.cos(phi), r * st_ * np.sin(phi), r * np.cos(theta)])


def test_pole_case():
    r, theta, phi = cart_to_sph([0.0, 0.0, 1.0])
    assert (r, theta, phi) == (1.0, 0.0, 0.0)


def test_equator_case():
    r, theta, phi = cart_to_sph([1.0, 0.0, 0.0])
    assert r == 1.0
    assert theta == pytest.approx(np.pi / 2)
    assert phi == 0.0


def test_corner_radius_matches_nominal_sphere():
    r, _, _ = cart_to_sph([0.15, 0.15, 0.15])
    assert r == pytest.approx(np.sqrt(3) * 0.15, abs=1e-15)
    assert r == pytest.approx(0.259808, abs=1e-6)


def test_origin_maps_to_zero():
    assert cart_to_sph([0.0, 0.0, 0.0]) == (0.0, 0.0, 0.0)
    # the same convention inside a point set, and phi = 0 on the z-axis
    r, theta, phi = cart_to_sph([[0.0, 0.0, 0.0], [0.0, 0.0, -2.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(r, [0.0, 2.0, 1.0])
    assert np.array_equal(theta, [0.0, np.pi, np.pi / 2])
    assert np.array_equal(phi, [0.0, 0.0, 0.0])


def test_phi_wraps_into_range():
    # just below the positive x-axis arctan2 gives -tiny; wrapped it is 2*pi - tiny,
    # and a value that rounds up to 2*pi wraps to 0
    _, _, phi = cart_to_sph([[1.0, -1e-300, 0.0], [1.0, -1e-3, 0.0], [-1.0, -1e-3, 0.0]])
    assert np.all((0.0 <= phi) & (phi < 2 * np.pi))
    assert phi[0] == 0.0
    assert phi[1] == pytest.approx(2 * np.pi - 1e-3, rel=1e-9)
    assert phi[2] == pytest.approx(np.pi + 1e-3, rel=1e-9)


@given(finite_coord, finite_coord, finite_coord)
@settings(max_examples=200)
def test_cart_sph_round_trip(x, y, z):
    p = np.array([x, y, z])
    r, theta, phi = cart_to_sph(p)
    if r < 1e-9:
        return
    q = sph_to_cart(r, theta, phi)
    # arccos conditioning near the poles limits the round trip to ~sqrt(eps)*r
    assert np.allclose(q, p, rtol=1e-9, atol=1e-7 * max(r, 1.0))
    assert 0.0 <= theta <= np.pi
    assert 0.0 <= phi < 2 * np.pi


@given(finite_coord, finite_coord, finite_coord)
@settings(max_examples=100)
def test_radius_definition(x, y, z):
    r, _, _ = cart_to_sph([x, y, z])
    assert r == np.sqrt(x * x + y * y + z * z)


def test_sphere_points_single_is_pole():
    pts = sphere_points(0.26, 1)
    assert pts.shape == (1, 3)
    assert pts[0] == pytest.approx([0.0, 0.0, 0.26])


def test_sphere_points_all_on_sphere():
    pts = sphere_points(0.26, 400)
    assert pts.shape == (400, 3)
    radii, _, _ = cart_to_sph(pts)
    assert np.max(np.abs(radii - 0.26)) < 1e-12


def test_sphere_points_near_uniform_spacing():
    r, n = 0.26, 400
    pts = sphere_points(r, n)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    nn = np.sqrt(d2.min(axis=1))
    expected = np.sqrt(4 * np.pi * r * r / n)
    assert abs(nn.mean() - expected) / expected < 0.2


def test_ball_points_inside_radius():
    pts = ball_points(0.26, 500, seed=7)
    assert pts.shape == (500, 3)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.26)


def test_ball_points_deterministic():
    a = ball_points(0.26, 100, seed=42)
    b = ball_points(0.26, 100, seed=42)
    assert np.array_equal(a, b)


def test_ball_points_keep_draw_order():
    # the first accepted candidates of the seeded stream, three coordinates a draw
    rng = np.random.default_rng(5)
    expected = []
    while len(expected) < 40:
        cand = rng.uniform(-0.26, 0.26, size=3)
        if np.linalg.norm(cand) <= 0.26:
            expected.append(cand)
    assert np.array_equal(ball_points(0.26, 40, seed=5), expected)
    assert ball_points(0.26, 0, seed=5).shape == (0, 3)


def test_ball_points_volume_ratio():
    pts = ball_points(1.0, 10_000, seed=0)
    frac = np.mean(np.linalg.norm(pts, axis=1) <= 0.5)
    assert abs(frac - 1.0 / 8.0) < 0.02
