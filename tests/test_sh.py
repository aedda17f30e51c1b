from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import Legendre
from scipy.special import spherical_jn

from wavefield_anc import sh
from wavefield_anc.acoustics import TonalSource, ToneComponent, propagate_tonal
from wavefield_anc.anc import repeat_period
from wavefield_anc.geometry import cart_to_sph, sphere_points
from wavefield_anc.scenario import default_scenario
from wavefield_anc.sh import (
    _radial_ratio,
    common_radius,
    interpolation_error,
    max_order,
    ratio_to_db,
    real_sh,
    sh_fit,
    sh_interpolate,
    spherical_bessel_j,
)

FS = 24_000.0
C = 343.0


def flat(u, v):
    """Column of mode (u, v) in real_sh's basis matrix."""
    return u * u + u + v


def test_constant_mode_value():
    (y00,) = real_sh(0, 0.3, 1.2)
    assert y00 == pytest.approx(1 / np.sqrt(4 * np.pi), abs=1e-12)
    assert y00 == pytest.approx(0.2820948, abs=1e-7)


def test_dipole_at_pole():
    y10 = real_sh(1, 0.0, 0.0)[flat(1, 0)]
    assert y10 == pytest.approx(np.sqrt(3 / (4 * np.pi)), abs=1e-12)
    assert y10 == pytest.approx(0.4886025, abs=1e-7)


@pytest.mark.parametrize("theta", [1e-8, 1e-4, np.pi - 1e-4, np.pi - 1e-8])
def test_basis_is_exact_near_the_poles(theta):
    """sin(theta) taken as sqrt(1 - cos^2) would lose it: Y_1^1 read exactly 0 at 1e-8."""
    phi, x, sin = 0.7, np.cos(theta), np.sin(theta)
    dp8 = (51480 * x**7 - 72072 * x**5 + 27720 * x**3 - 2520 * x) / 128  # P_8'(x)
    Y = real_sh(8, theta, phi)
    closed = {
        (1, 1): np.sqrt(3 / (4 * np.pi)) * sin * np.cos(phi),
        (8, 1): np.sqrt(17 / (144 * np.pi)) * sin * dp8 * np.cos(phi),
    }
    for (u, v), value in closed.items():
        assert Y[flat(u, v)] == pytest.approx(value, rel=1e-12, abs=0.0), (u, v)


def test_basis_shape_broadcasts_the_angles():
    assert real_sh(4, np.zeros((3, 1)), np.zeros(5)).shape == (3, 5, 25)


def legendre_real_sh(u, v, theta, phi):
    """The per-mode formula, P_u^m = sin^m(theta) times the m-th derivative of the Legendre
    polynomial P_u at cos(theta) (numpy's Legendre series), as the oracle of real_sh. Not
    scipy's lpmv: it takes sin(theta) as sqrt(1 - cos^2), up to 6.6e-8 off near the poles."""
    m = abs(v)
    norm = np.sqrt((2 * u + 1) / (4.0 * np.pi) * factorial(u - m) / factorial(u + m))
    leg = np.sin(theta) ** m * Legendre.basis(u).deriv(m)(np.cos(theta))
    if v == 0:
        return norm * leg
    return np.sqrt(2.0) * norm * leg * (np.cos(m * phi) if v > 0 else np.sin(m * phi))


@given(
    st.integers(0, 8),
    st.lists(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)), max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_real_sh_matches_the_legendre_formula(U, angles):
    theta, phi = np.array([(0.0, 0.3), (np.pi, 1.1), *angles]).T  # both poles, then drawn
    Y = real_sh(U, theta, phi)
    assert Y.shape == (len(theta), (U + 1) ** 2)
    for u in range(U + 1):
        for v in range(-u, u + 1):
            ours = Y[:, flat(u, v)]
            assert np.max(np.abs(ours - legendre_real_sh(u, v, theta, phi))) <= 1e-13, (u, v)


def test_quadrature_orthogonality():
    _, th, ph = cart_to_sph(sphere_points(1.0, 10_000))
    Y = real_sh(1, th, ph)
    inner = np.mean(Y[:, flat(1, 0)] * Y[:, flat(1, 1)]) * 4 * np.pi
    assert abs(inner) < 1e-3


def test_bessel_origin_limits():
    assert spherical_bessel_j(2, 0.0).tolist() == [1.0, 0.0, 0.0]


def test_bessel_j0_at_pi():
    assert spherical_bessel_j(0, np.pi)[0] == pytest.approx(0.0, abs=1e-15)


def test_bessel_against_scipy():
    """Every order to 60 over x up to 100 (the Nyquist bins at the 0.4 m radius reach
    x = 88): absolute error <= 1e-14, and relative <= 1e-12 below the turning point."""
    x = np.concatenate([[0.0, 1e-8], np.linspace(1e-3, 100.0, 20_001)])
    ours = spherical_bessel_j(60, x)
    assert ours.shape == (61, len(x))
    for u in range(61):
        ref = spherical_jn(u, x)
        err = np.abs(ours[u] - ref)
        assert np.max(err) <= 1e-14, u
        below = (x < u) & (ref != 0.0)
        assert np.all(err[below] <= 1e-12 * np.abs(ref[below])), u


@given(st.integers(0, 30), st.floats(0.0, 100.0, allow_subnormal=False))  # scipy: NaN there
@settings(max_examples=100, deadline=None)
def test_bessel_of_a_0d_argument(U, x):
    ours = spherical_bessel_j(U, np.float64(x))
    assert ours.shape == (U + 1,)
    assert np.max(np.abs(ours - spherical_jn(np.arange(U + 1), x))) <= 1e-14


def test_max_order_examples():
    assert max_order(500.0, default_scenario(0).mic_radius, C) == 3
    assert max_order(C / (2 * np.pi), 1.0, C) == 1
    with pytest.raises(ValueError):
        max_order(0.0, 1.0, C)


def _constant_field_signals(positions, value, n=32):
    return np.full((len(positions), n), value)


def test_fit_constant_field():
    positions = sphere_points(0.26, 12)
    series = sh_fit(positions, _constant_field_signals(positions, 2.5), 2, FS)
    assert series.coeffs[0, 0] == pytest.approx(2.5 * np.sqrt(4 * np.pi), rel=1e-6)
    assert np.max(np.abs(series.coeffs[1:])) < 1e-6


def test_underdetermined_fit_is_min_norm():
    sc = default_scenario(0)
    positions = sc.monitoring_positions
    rng = np.random.default_rng(5)
    signals = rng.normal(size=(len(positions), 4))
    series = sh_fit(positions, signals, 2, FS)
    _, th, ph = cart_to_sph(positions)
    Y = real_sh(2, th, ph)
    expected = np.linalg.pinv(Y) @ signals
    assert np.allclose(series.coeffs, expected, atol=1e-5)


def test_fit_radius_mismatch():
    positions = np.array([[0.26, 0, 0], [0, 0.30, 0]])
    signals = _constant_field_signals(positions, 1.0)
    with pytest.raises(ValueError, match="span 0.04 m"):
        sh_fit(positions, signals, 1, FS)
    with pytest.raises(ValueError):  # a config error, like the other load-time checks
        common_radius(positions)
    assert common_radius(sphere_points(0.26, 8)) == pytest.approx(0.26, abs=1e-15)


def test_fit_empty_signals():
    with pytest.raises(ValueError, match="non-empty signals"):
        sh_fit(np.zeros((0, 3)), np.zeros((0, 8)), 1, FS)
    with pytest.raises(ValueError, match="non-empty signals"):
        sh_fit(sphere_points(0.26, 4), np.zeros((4, 0)), 1, FS)


def test_fit_shape_mismatch():
    positions = sphere_points(0.26, 6)
    with pytest.raises(ValueError):
        sh_fit(positions, np.ones((5, 8)), 1, FS)  # one signal row short
    with pytest.raises(ValueError):
        sh_fit(positions, np.ones(6), 1, FS)  # not (Q, T)
    with pytest.raises(ValueError):
        sh_fit(positions[:, :2], np.ones((6, 8)), 1, FS)  # not (Q, 3)


def test_interpolate_identity_radius():
    sc = default_scenario(0)
    mics = repeat_period(propagate_tonal(sc.primary_source, sc.monitoring_positions, FS, C), 1200)
    series = sh_fit(sc.monitoring_positions, mics, 2, FS)
    theta, phi = 1.0, 2.0
    target = sc.mic_radius * np.array(
        [[np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]]
    )
    (out,) = sh_interpolate(series, target, C)
    # identity translation: every Bessel ratio is 1; compare with direct synthesis
    direct = real_sh(2, theta, phi) @ series.coeffs
    assert np.allclose(out, direct, atol=1e-9)


def test_interpolate_linearity():
    sc = default_scenario(0)
    rng = np.random.default_rng(11)
    sig_a = rng.normal(size=(len(sc.monitoring_positions), 64))
    sig_b = rng.normal(size=(len(sc.monitoring_positions), 64))
    targets = sphere_points(0.2, 5)

    def interpolate(signals):
        return sh_interpolate(sh_fit(sc.monitoring_positions, signals, 2, FS), targets, C)

    out_ab = interpolate(sig_a + sig_b)
    assert np.allclose(out_ab, interpolate(sig_a) + interpolate(sig_b), atol=1e-10)


def test_sh_interpolate_translates_once_per_sphere(monkeypatch):
    """The sweep's 400 points on one sphere hold several radii one ulp apart: one radial
    translation serves them all. Targets on two spheres are rejected."""
    sc = default_scenario(0)
    mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, FS, C)
    series = sh_fit(sc.monitoring_positions, mics, 3, FS)
    calls = []

    def counted(*args):
        calls.append(args)
        return _radial_ratio(*args)

    monkeypatch.setattr(sh, "_radial_ratio", counted)
    sh_interpolate(series, sphere_points(0.2, 400), C)
    assert len(calls) == 1
    two_spheres = np.vstack([sphere_points(0.2, 10), sphere_points(0.3, 10)])
    with pytest.raises(ValueError, match="sensor radii span 0.1 m, not one sphere"):
        sh_interpolate(series, two_spheres, C)


def test_dc_bessel_ratio_limit():
    # DC bin for u >= 1 is the 0/0 limit (r_s/r)^u, checked against a bin just above it
    lim, small = _radial_ratio(8, np.array([0.0, 1e-4]), 0.26, 0.13, C).T
    for u in range(9):
        assert lim[u] == pytest.approx(0.5**u, rel=1e-12)
        assert small[u] == pytest.approx(0.5**u, rel=1e-6)


def test_single_tone_baseline_quality():
    sc = default_scenario(0)
    src = TonalSource((0.6, 0.8, 1.0), (ToneComponent(400.0, 1.0, 0.2),))
    mics = repeat_period(propagate_tonal(src, sc.monitoring_positions, FS, C), 2400)
    series = sh_fit(sc.monitoring_positions, mics, 2, FS)
    pts = sphere_points(0.1, 400)
    truth = repeat_period(propagate_tonal(src, pts, FS, C), 2400)
    est = sh_interpolate(series, pts, C)
    assert interpolation_error(truth, est) < 0.5


def test_interpolation_error_examples():
    truth = np.sin(np.linspace(0, 10, 100))[None]
    same = truth.copy()
    assert interpolation_error(truth, same) == pytest.approx(0.0, abs=1e-30)
    zero = np.zeros((1, 100))
    assert interpolation_error(truth, zero) == pytest.approx(1.0)
    scaled = 0.9 * truth
    eps = interpolation_error(truth, scaled)
    assert eps == pytest.approx(0.01, rel=1e-9)
    assert ratio_to_db(eps) == pytest.approx(-20.0, abs=1e-9)
    with pytest.raises(ValueError, match="identically zero"):
        interpolation_error(zero, truth)


def test_interpolation_error_shape_mismatch():
    truth = np.ones((3, 10))
    for estimate in (np.ones((3, 11)), np.ones((2, 10)), np.ones(30)):
        with pytest.raises(ValueError):
            interpolation_error(truth, estimate)
    with pytest.raises(ValueError):
        interpolation_error(np.ones((0, 10)), np.ones((0, 10)))


def test_ratio_to_db_floor():
    assert ratio_to_db(0.0) == -300.0
    assert ratio_to_db(1.0) == 0.0
    assert type(ratio_to_db(10.0)) is float


def test_ratio_to_db_on_arrays_is_the_scalar_result():
    ratios = np.array([0.0, 1e-31, 1e-30, 1e-29, 1.0, 10.0])
    db = ratio_to_db(ratios)
    assert isinstance(db, np.ndarray) and db.shape == ratios.shape
    assert np.array_equal(db, [ratio_to_db(float(r)) for r in ratios])
    assert db[0] == -300.0


@given(st.floats(1e-20, 1e10))
@settings(max_examples=50)
def test_ratio_to_db_monotone(r):
    assert ratio_to_db(r) <= ratio_to_db(r * 10.0) or ratio_to_db(r) == -300.0
