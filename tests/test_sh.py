import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from wavefield_anc.acoustics import TonalSource, ToneComponent, propagate_tonal
from wavefield_anc.errors import EmptySignals, RadiusMismatch, ZeroDenominator
from wavefield_anc.geometry import cart_to_sph, sphere_points
from wavefield_anc.scenario import MIC_RADIUS, default_scenario
from wavefield_anc.sh import (
    ShCoeffSeries,
    ShIndex,
    interpolation_error,
    max_order,
    ratio_to_db,
    real_sh,
    sh_fit,
    sh_indices,
    sh_interpolate,
    spherical_bessel_j,
)

FS = 24_000.0
C = 343.0


def test_sh_index_flat_ordering():
    idxs = sh_indices(2)
    assert len(idxs) == 9
    assert [ix.flat for ix in idxs] == list(range(9))
    with pytest.raises(ValueError):
        ShIndex(1, 2)


def test_constant_mode_value():
    assert real_sh(ShIndex(0, 0), 0.3, 1.2) == pytest.approx(1 / np.sqrt(4 * np.pi), abs=1e-12)
    assert real_sh(ShIndex(0, 0), 0.3, 1.2) == pytest.approx(0.2820948, abs=1e-7)


def test_dipole_at_pole():
    assert real_sh(ShIndex(1, 0), 0.0, 0.0) == pytest.approx(np.sqrt(3 / (4 * np.pi)), abs=1e-12)
    assert real_sh(ShIndex(1, 0), 0.0, 0.0) == pytest.approx(0.4886025, abs=1e-7)


def test_quadrature_orthogonality():
    _, th, ph = cart_to_sph(sphere_points(1.0, 10_000))
    inner = np.mean(real_sh(ShIndex(1, 0), th, ph) * real_sh(ShIndex(1, 1), th, ph)) * 4 * np.pi
    assert abs(inner) < 1e-3


def test_gram_identity_dense_quadrature():
    nth, nph = 80, 160
    theta = (np.arange(nth) + 0.5) * np.pi / nth
    phi = np.arange(nph) * 2 * np.pi / nph
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    w = np.sin(TH) * (np.pi / nth) * (2 * np.pi / nph)
    idxs = sh_indices(3)
    Y = np.stack([real_sh(ix, TH, PH) for ix in idxs])
    gram = np.einsum("iab,jab,ab->ij", Y, Y, w)
    assert np.max(np.abs(gram - np.eye(len(idxs)))) < 1e-3


def test_bessel_origin_limits():
    assert spherical_bessel_j(0, 0.0) == 1.0
    assert spherical_bessel_j(1, 0.0) == 0.0
    assert spherical_bessel_j(2, 0.0) == 0.0


def test_bessel_j0_at_pi():
    assert spherical_bessel_j(0, np.pi) == pytest.approx(0.0, abs=1e-15)


def test_bessel_j1_at_one():
    assert spherical_bessel_j(1, 1.0) == pytest.approx(0.3011687, abs=1e-6)


def test_bessel_against_scipy():
    x = np.linspace(0.0, 50.0, 2001)
    for u in range(5):
        ours = spherical_bessel_j(u, x)
        ref = spherical_jn(u, x)
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_bessel_series_closed_form_agree_at_cutover():
    x = np.linspace(1.5, 2.5, 101)
    for u in range(5):
        ref = spherical_jn(u, x)
        assert np.allclose(spherical_bessel_j(u, x), ref, atol=1e-12)


def test_bessel_order_range():
    with pytest.raises(ValueError):
        spherical_bessel_j(5, 1.0)


def test_max_order_examples():
    assert max_order(500.0, MIC_RADIUS, C) == 3
    assert max_order(C / (2 * np.pi), 1.0, C) == 1
    with pytest.raises(ValueError):
        max_order(0.0, 1.0, C)


def _constant_field_signals(positions, value, n=32):
    return np.full((len(positions), n), value)


def test_fit_constant_field():
    positions = sphere_points(0.26, 12)
    series = sh_fit(positions, _constant_field_signals(positions, 2.5), 2, FS, reg=1e-9)
    assert series.coeffs[0, 0] == pytest.approx(2.5 * np.sqrt(4 * np.pi), rel=1e-6)
    assert np.max(np.abs(series.coeffs[1:])) < 1e-6


def test_fit_pure_mode():
    positions = sphere_points(0.26, 16)
    _, th, ph = cart_to_sph(positions)
    vals = real_sh(ShIndex(1, 0), th, ph)
    signals = np.repeat(vals[:, None], 8, axis=1)
    series = sh_fit(positions, signals, 1, FS, reg=1e-9)
    assert series.coeffs[ShIndex(1, 0).flat, 0] == pytest.approx(1.0, abs=1e-6)
    others = np.delete(series.coeffs[:, 0], ShIndex(1, 0).flat)
    assert np.max(np.abs(others)) < 1e-6


def test_underdetermined_fit_is_min_norm():
    sc = default_scenario(0)
    positions = sc.monitoring_positions
    rng = np.random.default_rng(5)
    signals = rng.normal(size=(len(positions), 4))
    series = sh_fit(positions, signals, 2, FS, reg=1e-9)
    _, th, ph = cart_to_sph(positions)
    Y = np.column_stack([real_sh(ix, th, ph) for ix in sh_indices(2)])
    expected = np.linalg.pinv(Y) @ signals
    assert np.allclose(series.coeffs, expected, atol=1e-5)


def test_fit_radius_mismatch():
    positions = np.array([[0.26, 0, 0], [0, 0.30, 0]])
    signals = _constant_field_signals(positions, 1.0)
    with pytest.raises(RadiusMismatch):
        sh_fit(positions, signals, 1, FS)


def test_fit_empty_signals():
    with pytest.raises(EmptySignals):
        sh_fit(np.zeros((0, 3)), np.zeros((0, 8)), 1, FS)
    with pytest.raises(EmptySignals):
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
    mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, FS, 1200, C)
    series = sh_fit(sc.monitoring_positions, mics, 2, FS)
    theta, phi = 1.0, 2.0
    target = MIC_RADIUS * np.array(
        [[np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]]
    )
    (out,) = sh_interpolate(series, target, C)
    # identity translation: every Bessel ratio is 1; compare with direct synthesis
    direct = np.zeros(len(out))
    for ix in sh_indices(2):
        direct += series.coeffs[ix.flat] * real_sh(ix, theta, phi)
    assert np.allclose(out, direct, atol=1e-9)


def test_interpolate_linearity():
    sc = default_scenario(0)
    rng = np.random.default_rng(11)
    sig_a = rng.normal(size=(len(sc.monitoring_positions), 64))
    sig_b = rng.normal(size=(len(sc.monitoring_positions), 64))
    targets = np.array([[0.0, 0.1, 0.0], [0.05, -0.2, 0.1]])

    def interpolate(signals):
        return sh_interpolate(sh_fit(sc.monitoring_positions, signals, 2, FS), targets, C)

    out_ab = interpolate(sig_a + sig_b)
    assert np.allclose(out_ab, interpolate(sig_a) + interpolate(sig_b), atol=1e-10)


def test_dc_bessel_ratio_limit():
    # DC bin for u >= 1 is the 0/0 limit (r_s/r)^u, checked via the small-x series
    from wavefield_anc.sh import _radial_ratio

    for u in (1, 2):
        lim = _radial_ratio(u, np.array([0.0]), 0.26, 0.13, C)[0]
        assert lim == pytest.approx(0.5**u, rel=1e-12)
        small = _radial_ratio(u, np.array([1e-4]), 0.26, 0.13, C)[0]
        assert small == pytest.approx(0.5**u, rel=1e-6)


def test_single_tone_baseline_quality():
    sc = default_scenario(0)
    src = TonalSource((0.6, 0.8, 1.0), (ToneComponent(400.0, 1.0, 0.2),))
    mics = propagate_tonal(src, sc.monitoring_positions, FS, 2400, C)
    series = sh_fit(sc.monitoring_positions, mics, 2, FS)
    pts = sphere_points(0.1, 400)
    truth = propagate_tonal(src, pts, FS, 2400, C)
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
    with pytest.raises(ZeroDenominator):
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


@given(st.floats(1e-20, 1e10))
@settings(max_examples=50)
def test_ratio_to_db_monotone(r):
    assert ratio_to_db(r) <= ratio_to_db(r * 10.0) or ratio_to_db(r) == -300.0


def test_coeff_series_shape_check():
    with pytest.raises(ValueError):
        ShCoeffSeries(2, 0.26, FS, np.zeros((4, 10)))
