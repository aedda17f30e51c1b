import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavefield_anc.acoustics import TonalSource, ToneComponent, propagate_tonal
from wavefield_anc.anc import (
    EPS_WINDOW,
    FILTER_LEN,
    PATH_TAPS,
    WEIGHT_BOUND,
    field_grid_power,
    filtered_reference,
    fxlms_step,
    path_firs,
    run_anc,
)
from wavefield_anc.pinn import pinn_predict
from wavefield_anc.scenario import ScenarioConfig, default_scenario
from wavefield_anc.sh import DB_FLOOR


def truth(scenario, points, iterations):
    """The primary field at the (P, 3) points, propagated directly over ``iterations`` samples."""
    sc = scenario
    return propagate_tonal(sc.primary_source, points, sc.sample_rate, iterations, sc.speed_of_sound)


def multipoint(scenario, iterations, mu):
    """Control on the measured signals at the monitoring mics."""
    mics = scenario.monitoring_positions
    return run_anc(scenario, mics, truth(scenario, mics, iterations), mu)


def scaled_scenario(mult, seed=0):
    sc = default_scenario(seed)
    src = TonalSource(
        sc.primary_source.position,
        tuple(
            ToneComponent(c.frequency, mult * c.amplitude, c.phase)
            for c in sc.primary_source.components
        ),
    )
    return dataclasses.replace(sc, primary_source=src)


def single_channel_scenario(amp=40.0, freq=400.0):
    return ScenarioConfig(
        primary_source=TonalSource((0.6, 0.8, 1.0), (ToneComponent(freq, amp, 0.3),)),
        secondary_positions=[(0.0, 0.5, 0.0)],
        monitoring_positions=[(0.0, 0.1, 0.0)],
        virtual_positions=[(0.0, 0.12, 0.0)],
    )


def test_filtered_reference_identity():
    x = np.arange(40.0)
    out = filtered_reference(x, np.ones((1, 1, 1)))
    assert out.shape == (1, 1, 40)
    assert np.array_equal(out[0, 0], x)


def test_filtered_reference_delay():
    x = np.arange(40.0)
    out = filtered_reference(x, np.array([[[0.0, 0.0, 1.0]]]))
    assert np.array_equal(out[0, 0], np.concatenate([[0.0, 0.0], x[:-2]]))


def test_filtered_reference_brute_force():
    rng = np.random.default_rng(0)
    firs = rng.normal(size=(2, 3, 8))
    x = np.arange(32.0)
    out = filtered_reference(x, firs)
    assert out.shape == (2, 3, 32)
    # out[l, m, n] should be sum_k firs[l, m, k] * x[n - k], zero before the first sample
    for l, m, n in np.ndindex(2, 3, 32):
        direct = sum(firs[l, m, k] * x[n - k] for k in range(min(8, n + 1)))
        assert out[l, m, n] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_fxlms_zero_error_fixed_point():
    w = np.zeros((2, 16))
    refs = np.random.default_rng(1).normal(size=(2, 3, 16))
    out = fxlms_step(w, refs, np.zeros(3), 1e-3)
    assert np.array_equal(out, w)


def test_fxlms_update_along_reference():
    w = np.zeros((1, 8))
    x = np.random.default_rng(2).normal(size=8)
    refs = x[None, None, :]
    e = np.array([0.5])
    out = fxlms_step(w, refs, e, 1e-2)
    assert np.allclose(out[0], 1e-2 * 0.5 * x, atol=1e-15)


def test_run_anc_zero_step_size():
    sc = default_scenario(0)
    rep = multipoint(sc, 600, 0.0)
    assert np.all(rep.weights == 0.0)
    assert np.allclose(rep.eps_db, 0.0, atol=1e-9)


def test_run_anc_rejects_negative_step_size():
    with pytest.raises(ValueError):
        multipoint(default_scenario(0), 100, -1e-5)


def test_single_tone_sensor_convergence():
    rep = multipoint(single_channel_scenario(), 5000, 1e-5)
    assert rep.converged
    p0 = rep.sensor_mse[:50].mean()
    pf = rep.sensor_mse[-480:].mean()
    assert 10 * np.log10(pf / p0) < -40.0


def test_zero_primary_keeps_weights_bitwise_zero():
    sc = single_channel_scenario(amp=0.0)
    rep = multipoint(sc, 300, 1e-5)
    assert np.all(rep.weights == 0.0)


def test_scale_covariance():
    a = multipoint(scaled_scenario(1.0), 800, 1e-7)
    b = multipoint(scaled_scenario(2.0), 800, 0.25e-7)
    # scaling amplitudes by s and mu by 1/s^2 gives the identical trajectory
    assert np.allclose(a.eps_db, b.eps_db, atol=1e-6)


def test_sensor_mse_decreases_multipoint():
    rep = multipoint(default_scenario(0), 4000, 1e-5)
    assert rep.sensor_mse[-480:].mean() < rep.sensor_mse[:480].mean()


def test_divergence_guard():
    rep = multipoint(scaled_scenario(50.0), 20_000, 1e-3)
    assert not rep.converged
    assert rep.iterations < 20_000


@pytest.mark.parametrize("rows, samples", [(7, 100), (9, 100), (8, 0)])
def test_run_anc_rejects_primary_not_matching_sensors(rows, samples):
    sc = default_scenario(0)
    with pytest.raises(ValueError):
        run_anc(sc, sc.monitoring_positions, np.zeros((rows, samples)), 1e-5)


def test_ear_truth_is_direct_propagation_for_a_period_not_dividing_the_scenario():
    sc = single_channel_scenario(freq=375.0)  # 64-sample period; 2 400 / 64 = 37.5
    assert sc.period_samples == 64 and sc.num_samples % 64 != 0
    rep = multipoint(sc, 5000, 0.0)  # no control: the ear residual is the ear primary
    direct = truth(sc, sc.virtual_positions, 5000)
    assert np.max(np.abs(rep.ear_residual - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_ideal_mode_bounds_pinn_mode(scenario, trained_quick):
    params, report = trained_quick
    ears = scenario.virtual_positions
    ideal = run_anc(scenario, ears, truth(scenario, ears, 4000), 1e-5)
    estimate = pinn_predict(params, report.norm, ears, scenario.sample_rate, 4000)
    pinn = run_anc(scenario, ears, estimate, 1e-5)
    # a perfect interpolator lower-bounds the PINN-driven loop at steady state
    assert ideal.eps_db[-480:].mean() <= pinn.eps_db[-480:].mean() + 0.5


def test_path_firs_shapes():
    sc = default_scenario(0)
    firs = path_firs(
        sc.secondary_positions, sc.monitoring_positions, sc.sample_rate, sc.speed_of_sound
    )
    assert firs.shape == (2, 8, PATH_TAPS)


def test_field_grid_zero_weights_is_primary():
    sc = default_scenario(0)
    gx, gy, (p_none, p_zero) = field_grid_power(sc, [None, np.zeros((2, FILTER_LEN))])
    assert gx.size == 441 and gy.size == 441
    xs = np.unique(gx)
    assert xs.size == 21
    assert np.allclose(np.diff(xs), 0.02)
    assert np.allclose(p_none, p_zero, rtol=1e-12)


def test_field_grid_single_tone_power_is_analytic():
    sc = single_channel_scenario(amp=40.0)  # one 400 Hz tone
    gx, gy, (power,) = field_grid_power(sc, [None])
    for i in (0, 17, 220, 301, 440):
        d = np.linalg.norm(sc.primary_source.position - [gx[i], gy[i], 0.0])
        assert power[i] == pytest.approx((40.0 / (4 * np.pi * d)) ** 2 / 2, rel=1e-9)


def reference_run_anc(scenario, sensors, iterations, mu):
    """The FxLMS loop in shift-register form: every buffer newest first, the
    filtered reference and the ear residuals formed sample by sample in the loop,
    the true field at the sensors as the error signal's primary part.

    Returns (weights, sensor_mse, eps_db, converged).
    """
    fs, c = scenario.sample_rate, scenario.speed_of_sound
    src = scenario.primary_source
    primary = truth(scenario, sensors, iterations)
    ear_primary = truth(scenario, scenario.virtual_positions, iterations)
    S = path_firs(scenario.secondary_positions, sensors, fs, c)
    S_ear = path_firs(scenario.secondary_positions, scenario.virtual_positions, fs, c)
    L, M = S.shape[:2]
    x = src.waveform(fs, iterations)

    w = np.zeros((L, FILTER_LEN))
    xbuf = np.zeros(max(FILTER_LEN, PATH_TAPS))
    dbuf = np.zeros((L, PATH_TAPS))
    fx = np.zeros((L, M, FILTER_LEN))
    sensor_mse, ear_resid = [], []
    converged = True
    for n in range(iterations):
        xbuf[1:] = xbuf[:-1]
        xbuf[0] = x[n]
        d = -(w @ xbuf[:FILTER_LEN])
        dbuf[:, 1:] = dbuf[:, :-1]
        dbuf[:, 0] = d
        fx[:, :, 1:] = fx[:, :, :-1]
        fx[:, :, 0] = np.einsum("lmt,t->lm", S, xbuf[:PATH_TAPS])
        e = primary[:, n] + np.einsum("lmt,lt->m", S, dbuf)
        ear_resid.append(ear_primary[:, n] + np.einsum("lvt,lt->v", S_ear, dbuf))
        sensor_mse.append(np.mean(e**2))
        w = w + mu * np.einsum("lmn,m->ln", fx, e)
        if np.max(np.abs(w)) > WEIGHT_BOUND:
            converged = False
            break

    # trailing-window power ratio at the ears
    n_done = len(sensor_mse)
    win = min(EPS_WINDOW, n_done)
    num = np.sum(np.array(ear_resid).T ** 2, axis=0)
    den = np.sum(ear_primary[:, :n_done] ** 2, axis=0)
    csum_n = np.concatenate([[0.0], np.cumsum(num)])
    csum_d = np.concatenate([[0.0], np.cumsum(den)])
    idx = np.arange(1, n_done + 1)
    lo = np.maximum(idx - win, 0)
    wn = csum_n[idx] - csum_n[lo]
    wd = csum_d[idx] - csum_d[lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wd > 0, wn / np.maximum(wd, 1e-300), 1.0)
    eps_db = np.maximum(10.0 * np.log10(np.maximum(ratio, 10.0 ** (DB_FLOOR / 10.0))), DB_FLOOR)
    return w, np.array(sensor_mse), eps_db, converged


FS = 24_000
WINDOW = 240  # scenario length in samples: shorter than most runs, so a tiled truth would wrap
# tone-set periods in samples that fit the window, many not dividing it (64, 75, ...)
PERIODS = [p for p in range(24, WINDOW + 1) if FS % p == 0]


def random_scenario(seed, num_sources, num_sensors, period):
    """Random geometry and 1-2 tones, harmonics between 100 and 1000 Hz of FS / period,
    in a WINDOW-sample scenario."""
    rng = np.random.default_rng(seed)

    def points(count, r_lo, r_hi):
        u = rng.normal(size=(count, 3))
        u *= rng.uniform(r_lo, r_hi, size=(count, 1)) / np.linalg.norm(u, axis=1, keepdims=True)
        return u

    f0 = FS // period
    harmonics = np.arange(max(1, -(-100 // f0)), 1000 // f0 + 1)
    freqs = f0 * rng.choice(harmonics, size=min(rng.integers(1, 3), harmonics.size), replace=False)
    tones = tuple(
        ToneComponent(float(f), rng.uniform(1.0, 20.0), rng.uniform(0, 2 * np.pi)) for f in freqs
    )
    return ScenarioConfig(
        primary_source=TonalSource(points(1, 1.0, 2.0)[0], tones),
        secondary_positions=points(num_sources, 0.3, 0.8),
        monitoring_positions=points(num_sensors, 0.05, 0.25),
        virtual_positions=points(2, 0.05, 0.2),
        duration=WINDOW / FS,
    )


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sources=st.integers(1, 2),
    num_sensors=st.integers(1, 3),
    log_mu=st.floats(-6.0, 0.0),
    iterations=st.integers(50, 400),
    ideal=st.booleans(),
    period=st.sampled_from(PERIODS),
)
@example(  # diverges
    seed=7, num_sources=2, num_sensors=3, log_mu=0.0, iterations=400, ideal=False, period=240
)
@example(  # 375 Hz: a 64-sample period that does not divide the window
    seed=3, num_sources=1, num_sensors=2, log_mu=-2.0, iterations=400, ideal=True, period=64
)
def test_run_anc_matches_shift_register_loop(
    seed, num_sources, num_sensors, log_mu, iterations, ideal, period
):
    sc = random_scenario(seed, num_sources, num_sensors, period)
    sensors = sc.virtual_positions if ideal else sc.monitoring_positions
    mu = 10.0**log_mu
    w, sensor_mse, eps_db, converged = reference_run_anc(sc, sensors, iterations, mu)
    rep = run_anc(sc, sensors, truth(sc, sensors, iterations), mu)
    assert rep.converged == converged
    assert rep.iterations == sensor_mse.size
    assert rel_err(rep.weights, w) <= 1e-12
    assert rel_err(rep.sensor_mse, sensor_mse) <= 1e-12
    assert rel_err(rep.eps_db, eps_db) <= 1e-12


@pytest.fixture(scope="module")
def trained_quick(scenario, mic_signals):
    import wavefield_anc as wa

    params, report = wa.train_pinn(
        scenario, mic_signals, wa.TrainConfig(epochs=3000, restarts=1)
    )
    return params, report
