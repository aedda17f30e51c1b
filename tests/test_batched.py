"""Whole-point-set evaluation and the fused training kernel against per-point
and unfused formulas kept here as references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefield_anc.acoustics import (
    PATH_TAPS,
    SINC_WINDOW_HALF_WIDTH,
    TonalSource,
    ToneComponent,
    make_path_fir,
    propagate_tonal,
)
from wavefield_anc.geometry import cart_to_sph, sphere_points
from wavefield_anc.pinn import (
    glorot_init,
    loss_and_grads,
    mlp_forward,
    pde_residual,
    pinn_predict,
    time_axis,
    unpack,
)
from wavefield_anc.scenario import default_scenario
from wavefield_anc.sh import _radial_ratio, sh_fit, sh_interpolate

from test_sh import legendre_real_sh

FS = 24_000.0
C = 343.0
seeds = st.integers(0, 2**32 - 1)
counts = st.integers(1, 12)


def random_points(rng, count, r_lo, r_hi):
    u = rng.normal(size=(count, 3))
    return u * rng.uniform(r_lo, r_hi, size=(count, 1)) / np.linalg.norm(u, axis=1, keepdims=True)


def random_source(rng):
    freqs = rng.choice(np.arange(100.0, 1000.0, 10.0), size=rng.integers(1, 4), replace=False)
    tones = tuple(
        ToneComponent(f, rng.uniform(0.5, 20.0), rng.uniform(0, 2 * np.pi)) for f in freqs
    )
    return TonalSource(random_points(rng, 1, 1.0, 2.0)[0], tones)


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def sph_one(x, y, z):
    """(r, theta, phi) of one point: origin (0, 0, 0), phi in [0, 2*pi)."""
    r = float(np.sqrt(x * x + y * y + z * z))
    theta = 0.0 if r == 0.0 else float(np.arccos(np.clip(z / r, -1.0, 1.0)))
    if x == 0.0 and y == 0.0:
        return r, theta, 0.0
    phi = float(np.arctan2(y, x) % (2.0 * np.pi))
    return r, theta, 0.0 if phi >= 2.0 * np.pi else phi


def propagate_one(source, receiver):
    """Samples k = 0 .. P - 1 at t = k / FS, P = FS / gcd(FS, tones) the sample period."""
    d = float(np.linalg.norm(source.position - receiver))
    period = int(FS) // np.gcd.reduce([int(FS), *(int(c.frequency) for c in source.components)])
    t = np.arange(period) / FS
    p = np.zeros(period)
    for comp in source.components:
        p += comp.amplitude * (1.0 / (4.0 * np.pi * d)) * np.sin(
            2.0 * np.pi * comp.frequency * (t - d / C) + comp.phase
        )
    return p


def fir_one(source_pos, receiver, taps):
    d = float(np.linalg.norm(source_pos - receiver))
    offset = np.arange(taps) - d / C * FS
    x = np.pi * offset / SINC_WINDOW_HALF_WIDTH
    window = 0.42 + 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    window[np.abs(offset) > SINC_WINDOW_HALF_WIDTH] = 0.0
    return np.sinc(offset) * window / (4.0 * np.pi * d)


def sh_interpolate_one(coeffs, U, fit_radius, target):
    """Radial translation of every mode of the order-``U`` ``coeffs`` at one target, summed
    mode by mode on the per-mode Legendre basis formula."""
    r, theta, phi = sph_one(*target)
    T = coeffs.shape[1]
    freqs = np.fft.rfftfreq(T, d=1.0 / FS)
    spec = np.fft.rfft(coeffs, axis=1)
    ratios = _radial_ratio(U, freqs, fit_radius, r, C)
    out = np.zeros(T)
    for u in range(U + 1):
        for v in range(-u, u + 1):
            translated = np.fft.irfft(spec[u * u + u + v] * ratios[u], n=T)
            out += translated * legendre_real_sh(u, v, theta, phi)
    return out


def loss_and_grads_unfused(params, U, tgt, C, lam, c_eff):
    """One network's data + PDE loss and gradients, term by term, the bias b1 added apart."""
    W1, b1, W2, b2 = unpack(params)
    B, A = len(U), len(C)
    H = np.tanh(U @ W1.T + b1)
    resid = H @ W2 + b2 - tgt
    dLdp = 2.0 * resid / B
    delta = dLdp[:, None] * W2 * (1.0 - H * H)
    gW1, gb1, gW2, gb2 = delta.T @ U, delta.sum(axis=0), H.T @ dLdp, dLdp.sum()

    a_vec = np.array([-1.0, c_eff**2, c_eff**2, c_eff**2])
    g = (W1**2) @ a_vec
    Hc = np.tanh(C @ W1.T + b1)
    Hc2 = Hc * Hc
    hpp = -2.0 * Hc * (1.0 - Hc2)
    hppp = -2.0 + 8.0 * Hc2 - 6.0 * Hc2 * Hc2
    R = hpp @ (W2 * g)
    dLdR = 2.0 * R / A
    S, T = dLdR @ hppp, dLdR @ hpp
    gW2 = gW2 + lam * T * g
    gb1 = gb1 + lam * W2 * S * g
    gW1 = gW1 + lam * (
        (W2 * g)[:, None] * ((dLdR[:, None] * hppp).T @ C) + (W2 * T)[:, None] * 2.0 * a_vec * W1
    )
    grads = np.concatenate([gW1.ravel(), gb1, gW2, [gb2]])
    return np.mean(resid**2), np.mean(R**2), grads


def random_network(rng, n):
    params = glorot_init(int(rng.integers(1000)), n)
    W1, b1, _, b2 = unpack(params)
    W1[:, 0] *= rng.choice([1.0, 100.0])
    b1[:] = rng.normal(size=n)
    b2[...] = rng.normal()
    return params


def kernel_case(rng, restarts=None):
    """Random (U, targets, colloc, pde weight, c_eff); colloc is (restarts, A, 4) if given."""
    B, A = rng.integers(1, 60), rng.integers(1, 30)
    U = rng.uniform(-0.3, 0.3, size=(B, 4))
    C = rng.uniform(-0.3, 0.3, size=(A, 4) if restarts is None else (restarts, A, 4))
    return U, rng.normal(size=B), C, rng.uniform(0.0, 2.0), rng.uniform(0.5, 20.0)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 24))
def test_fused_loss_and_grads_matches_unfused(seed, n):
    rng = np.random.default_rng(seed)
    params = random_network(rng, n)
    U, tgt, C, lam, c_eff = kernel_case(rng)
    L_data, L_pde, grads = loss_and_grads(params, U, tgt, C, lam, c_eff)
    ref_data, ref_pde, ref = loss_and_grads_unfused(params, U, tgt, C, lam, c_eff)
    assert abs(L_data - ref_data) <= 1e-12 * ref_data
    assert abs(L_pde - ref_pde) <= 1e-12 * ref_pde
    assert grads.shape == ref.shape
    for got, want in zip(unpack(grads), unpack(ref)):
        assert rel_err(got, want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 24), restarts=st.integers(1, 4))
def test_stacked_loss_and_grads_is_each_network_alone(seed, n, restarts):
    rng = np.random.default_rng(seed)
    nets = [random_network(rng, n) for _ in range(restarts)]
    stack = np.stack(nets)
    U, tgt, C, lam, c_eff = kernel_case(rng, restarts)
    L_data, L_pde, grads = loss_and_grads(stack, U, tgt, C, lam, c_eff)
    residual = pde_residual(stack, U, c_eff)  # the restart score's term, at shared points
    for r, net in enumerate(nets):
        alone = loss_and_grads(net, U, tgt, C[r], lam, c_eff)
        assert L_data[r] == alone[0] and L_pde[r] == alone[1]
        assert np.array_equal(grads[r], alone[2])
        assert np.array_equal(residual[r], pde_residual(net, U, c_eff))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, count=counts)
def test_cart_to_sph_matches_per_point(seed, count):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3)) * rng.choice([1e-3, 1.0, 10.0])
    # axis points and the origin exercise the conventions
    pts[rng.random(count) < 0.2, :2] = 0.0
    pts[rng.random(count) < 0.1] = 0.0
    r, theta, phi = cart_to_sph(pts)
    expected = np.array([sph_one(*p) for p in pts.tolist()])
    assert np.array_equal(np.column_stack([r, theta, phi]), expected)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, count=counts)
def test_propagate_tonal_matches_per_point(seed, count):
    rng = np.random.default_rng(seed)
    src = random_source(rng)
    receivers = random_points(rng, count, 0.01, 0.5)
    out = propagate_tonal(src, receivers, FS, C)
    assert out.shape == (count, src.period_samples(FS))
    # same arithmetic per sample, so bitwise equal
    assert np.array_equal(out, [propagate_one(src, r) for r in receivers])


@settings(max_examples=40, deadline=None)
@given(seed=seeds, count=counts, sources=st.integers(1, 3))
def test_make_path_fir_matches_per_point(seed, count, sources):
    rng = np.random.default_rng(seed)
    # 0.1 to 0.6 m: the delay fits the filter
    source_pos = random_points(rng, sources, 0.3, 0.4)
    receivers = random_points(rng, count, 0.01, 0.2)
    out = make_path_fir(source_pos, receivers, FS, C)
    assert out.shape == (sources, count, PATH_TAPS)
    for s, row in zip(source_pos, out):  # each source's row is a one-source call
        assert np.array_equal(row, make_path_fir([s], receivers, FS, C)[0])
        assert np.array_equal(row, [fir_one(s, r, PATH_TAPS) for r in receivers])


@settings(max_examples=25, deadline=None)
@given(seed=seeds, radii=st.lists(st.floats(0.05, 0.4), min_size=1, max_size=4))
def test_sh_interpolate_matches_per_point(seed, radii):
    rng = np.random.default_rng(seed)
    sc = default_scenario(0)
    src = random_source(rng)
    coeffs = sh_fit(
        sc.monitoring_positions, propagate_tonal(src, sc.monitoring_positions, FS, C), 2
    )
    for r in radii:  # one call per sphere
        targets = sphere_points(r, int(rng.integers(1, 8)))
        out = sh_interpolate(coeffs, sc.mic_radius, targets, FS, C)
        expected = np.array([sh_interpolate_one(coeffs, 2, sc.mic_radius, p)
                             for p in targets.tolist()])
        assert out.shape == expected.shape
        assert rel_err(out, expected) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=seeds, count=counts, n=st.integers(1, 240))
def test_pinn_predict_matches_per_point(seed, count, n):
    rng = np.random.default_rng(seed)
    params = glorot_init(int(rng.integers(1000)), int(rng.integers(1, 20)))
    W1, b1, _, _ = unpack(params)
    W1[:, 0] *= 100.0
    b1[:] = rng.normal(size=b1.size)
    points = random_points(rng, count, 0.0, 0.3)
    out = pinn_predict(params, points, n, FS)
    tau, _ = time_axis(n, FS)
    expected = [
        mlp_forward(params, np.column_stack([tau, np.broadcast_to(p, (n, 3))])) for p in points
    ]
    assert out.shape == (count, n)
    assert rel_err(out, np.array(expected)) <= 1e-12
