import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavefield_anc.acoustics import TonalSource, ToneComponent, make_path_fir, propagate_tonal
from wavefield_anc.anc import (
    EPS_WINDOW,
    FILTER_LEN,
    PATH_TAPS,
    WEIGHT_BOUND,
    _fir_sum,
    field_grid,
    field_grid_power,
    filtered_reference,
    fxlms_step,
    repeat_period,
    run_anc,
    run_controllers,
)
from wavefield_anc.experiments import run_controls
from wavefield_anc.pinn import TrainConfig, pinn_predict, train_pinn
from wavefield_anc.scenario import ScenarioConfig, default_scenario
from wavefield_anc.sh import DB_FLOOR


def truth(scenario, points):
    """One period of the primary field at the (R, 3) points, propagated directly."""
    sc = scenario
    return propagate_tonal(sc.primary_source, points, sc.sample_rate, sc.speed_of_sound)


def multipoint(scenario, iterations, mu):
    """Control on the measured signals at the monitoring mics."""
    mics = scenario.monitoring_positions
    return run_anc(scenario, mics, truth(scenario, mics), mu, iterations)


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
    assert out.shape == (40, 1, 1)
    assert np.array_equal(out[::-1, 0, 0], x)  # newest sample first


def test_filtered_reference_delay():
    x = np.arange(40.0)
    out = filtered_reference(x, np.array([[[0.0, 0.0, 1.0]]]))
    assert np.array_equal(out[::-1, 0, 0], np.concatenate([[0.0, 0.0], x[:-2]]))


def test_filtered_reference_brute_force():
    rng = np.random.default_rng(0)
    firs = rng.normal(size=(2, 3, 8))
    x = np.arange(32.0)
    out = filtered_reference(x, firs)
    assert out.shape == (32, 2, 3)
    # out[31 - n, l, m] should be sum_k firs[l, m, k] * x[n - k], zero before the first sample
    for l, m, n in np.ndindex(2, 3, 32):
        direct = sum(firs[l, m, k] * x[n - k] for k in range(min(8, n + 1)))
        assert out[31 - n, l, m] == pytest.approx(direct, rel=1e-12, abs=1e-12)


@st.composite
def sparse_firs(draw):
    """(L, M, taps) FIRs, each all zero, one live tap, or one live span at its own offset,
    so that the set has leading and trailing zero taps of its own."""
    L, M, taps = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    firs = np.zeros((L, M, taps))
    for l, m in np.ndindex(L, M):
        start = draw(st.integers(0, taps - 1))
        stop = draw(st.integers(start, taps))
        firs[l, m, start:stop] = rng.normal(size=stop - start)
    return firs


@settings(max_examples=60, deadline=None)
@given(firs=sparse_firs(), samples=st.integers(1, 80))
@example(firs=np.zeros((2, 3, 16)), samples=20)
@example(firs=np.eye(8)[None, None, 5], samples=20)
def test_fir_kernel_on_the_live_taps_is_the_convolution(firs, samples):
    """filtered_reference and the multichannel _fir_sum multiply only over the taps live in
    some FIR; each output is the sum of full-length convolutions, and exact zeros when
    every FIR is zero."""
    L, M, taps = firs.shape
    rng = np.random.default_rng(samples)
    x, history = rng.normal(size=samples), rng.normal(size=(samples + taps - 1, L))
    mono, multi = filtered_reference(x, firs), _fir_sum(history, firs)
    assert mono.shape == (samples, L, M) and multi.shape == (samples, M)
    if not firs.any():
        assert np.array_equal(mono, np.zeros_like(mono))
        assert np.array_equal(multi, np.zeros_like(multi))
    oldest_first = history[::-1]
    for m in range(M):
        total = sum(np.convolve(oldest_first[:, l], firs[l, m])[taps - 1 : len(history)]
                    for l in range(L))
        assert multi[::-1, m] == pytest.approx(total, rel=1e-12, abs=1e-12)
        for l in range(L):
            direct = np.convolve(x, firs[l, m])[:samples]
            assert mono[::-1, l, m] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_fxlms_zero_error_fixed_point():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(1, 32))
    before = w.copy()  # the update is in place
    update = np.empty((1, 32))
    controllers = [(rng.normal(size=(3, 6)), np.empty(3), update[0])]
    step = [(np.zeros(6), rng.normal(size=(32, 3)), np.zeros(3))]  # silent sources
    out = fxlms_step(w, controllers, step, 1e-3, update)
    assert np.array_equal(out, before)


def test_fxlms_update_along_reference():
    w = np.zeros((1, 8))
    before = w.copy()  # the update is in place
    x = np.random.default_rng(2).normal(size=8)
    update = np.empty((1, 8))
    controllers = [(np.ones((1, 4)), np.empty(1), update[0])]
    step = [(np.zeros(4), x[:, None], np.array([0.5]))]  # silent sources
    out = fxlms_step(w, controllers, step, 1e-2, update)
    assert np.allclose(out[0] - before[0], 1e-2 * 0.5 * x, atol=1e-15)


@pytest.mark.parametrize("F, L, M", [(96, 2, 8), (96, 1, 1), (5, 3, 1), (7, 1, 4)])
@pytest.mark.parametrize("seed", range(5))
def test_fxlms_step_in_place_is_the_out_of_place_update(F, L, M, seed):
    """In a stack of controllers of M, 1 and M + 2 sensors, each completes its own error
    and takes its own update."""
    rng = np.random.default_rng(seed)
    sensors, recent_len = (M, 1, M + 2), 3 * L
    w = rng.normal(size=(len(sensors), F * L))
    paths = [rng.normal(size=(m, recent_len)) for m in sensors]
    recent = [rng.normal(size=recent_len) for _ in sensors]
    refs = [rng.normal(size=(F * L, m)) for m in sensors]
    e = [rng.normal(size=m) for m in sensors]
    mu = rng.uniform(1e-6, 1e-2)
    full = [e_c + p @ r for e_c, p, r in zip(e, paths, recent)]
    expected = [w_c + mu * (refs_c @ e_c) for w_c, refs_c, e_c in zip(w, refs, full)]
    given, update = w.copy(), np.empty_like(w)
    controllers = [(p, np.empty(len(p)), row) for p, row in zip(paths, update)]
    out = fxlms_step(given, controllers, list(zip(recent, refs, e)), mu, update)
    assert out is given
    for e_c, full_c in zip(e, full):  # the errors, completed in place
        assert np.array_equal(e_c, full_c)
    for row, expected_row in zip(out, expected):
        assert np.array_equal(row, expected_row)


def test_run_anc_zero_step_size():
    sc = default_scenario(0)
    rep = multipoint(sc, 600, 0.0)
    assert np.all(rep.weights == 0.0)
    assert np.allclose(rep.eps_db, 0.0, atol=1e-9)


def test_run_anc_rejects_negative_step_size():
    with pytest.raises(ValueError):
        multipoint(default_scenario(0), 100, -1e-5)


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


def test_nan_in_error_signal_is_divergence():
    sc = default_scenario(0)
    ears = sc.virtual_positions
    primary = truth(sc, ears)
    primary[1, 220] = np.nan  # column 220 of the 240-sample period
    rep = run_anc(sc, ears, primary, 1e-5, 2000)
    assert not rep.converged
    assert rep.iterations == 221  # stops at the NaN sample's first step
    assert np.isnan(rep.sensor_mse[-1]) and np.all(np.isfinite(rep.sensor_mse[:-1]))
    assert np.all(np.isfinite(rep.eps_db))  # the NaN never reached the secondary outputs


def test_weights_are_per_source_newest_lag_first():
    # the last step adds mu * e * (the filtered reference, newest sample first)
    sc = single_channel_scenario()
    mu, n = 1e-5, 300
    before, after = multipoint(sc, n - 1, mu), multipoint(sc, n, mu)
    assert after.weights.shape == (1, FILTER_LEN)
    fs, c = sc.sample_rate, sc.speed_of_sound
    paths = make_path_fir(sc.secondary_positions, sc.monitoring_positions, fs, c)
    x = repeat_period(sc.primary_source.waveform(fs), n)
    ref = filtered_reference(x, paths)[:FILTER_LEN, 0, 0]
    step = after.weights[0] - before.weights[0]
    e = step @ ref / (ref @ ref) / mu  # the last error, fitted
    assert np.allclose(step, mu * e * ref, rtol=1e-9, atol=0.0)
    assert abs(e) == pytest.approx(np.sqrt(after.sensor_mse[-1]), rel=1e-9)


@pytest.mark.parametrize("rows, samples", [(7, 100), (9, 100), (8, 0)])
def test_run_anc_rejects_primary_not_matching_sensors(rows, samples):
    """A primary that is not one 240-sample period at each of the 8 mics: its rows, its
    samples, or both off."""
    sc = default_scenario(0)
    for shape in {(rows, samples), (rows, 240), (8, samples)} - {(8, 240)}:
        with pytest.raises(ValueError, match="period per sensor"):
            run_anc(sc, sc.monitoring_positions, np.zeros(shape), 1e-5, 100)


def test_ear_truth_is_direct_propagation_for_a_period_not_dividing_the_scenario():
    """The ear truth, unrolled from one 64-sample period over 5 000 steps (78.125 periods),
    is the tone formula at t = n / fs for every step n."""
    sc = single_channel_scenario(freq=375.0)
    assert sc.period_samples == 64 and 5000 % 64 != 0
    rep = multipoint(sc, 5000, 0.0)  # no control: the ear residual is the ear primary
    (tone,) = sc.primary_source.components
    d = np.linalg.norm(sc.virtual_positions - sc.primary_source.position, axis=1)[:, None]
    t = np.arange(5000) / sc.sample_rate
    phase = 2 * np.pi * tone.frequency * (t - d / sc.speed_of_sound) + tone.phase
    direct = tone.amplitude / (4 * np.pi * d) * np.sin(phase)
    assert np.max(np.abs(rep.ear_residual - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_ideal_mode_bounds_pinn_mode(scenario, trained_quick):
    params, _ = trained_quick
    ears = scenario.virtual_positions
    ideal = run_anc(scenario, ears, truth(scenario, ears), 1e-5, 4000)
    estimate = pinn_predict(params, ears, scenario.period_samples, scenario.sample_rate)
    pinn = run_anc(scenario, ears, estimate, 1e-5, 4000)
    # a perfect interpolator lower-bounds the PINN-driven loop at steady state
    assert ideal.eps_db[-480:].mean() <= pinn.eps_db[-480:].mean() + 0.5


def test_make_path_fir_shapes():
    sc = default_scenario(0)
    fs, c = sc.sample_rate, sc.speed_of_sound
    firs = make_path_fir(sc.secondary_positions, sc.monitoring_positions, fs, c)
    assert firs.shape == (2, 8, PATH_TAPS)  # (sources, receivers, taps)
    one = make_path_fir(sc.secondary_positions[:1], sc.virtual_positions, fs, c)
    assert one.shape == (1, 2, PATH_TAPS)


def test_field_grid_zero_weights_is_primary():
    sc = default_scenario(0)
    p_none, p_zero = field_grid_power(sc, [np.zeros((2, FILTER_LEN))])
    grid = field_grid()
    assert grid.shape == (441, 3) and p_none.shape == (441,)
    xs = np.unique(grid[:, 0])
    assert xs.size == 21
    assert np.allclose(np.diff(xs), 0.02)
    assert np.array_equal(p_none, p_zero)


@pytest.mark.parametrize("freqs", [(300.0, 400.0, 500.0), (375.0,), (250.0, 350.0, 450.0)])
def test_field_map_primary_is_the_whole_signals_last_period(freqs):
    """The uncontrolled map is, bit for bit, the mean square of the last period of the whole
    PATH_TAPS + 4P-sample signal, which the map forms from the first period rolled by 16
    samples (P = 240), 0 (P = 64) and 256 (P = 480)."""
    sc = default_scenario(0)
    comps = sc.primary_source.components
    tones = tuple(ToneComponent(f, c.amplitude, c.phase) for f, c in zip(freqs, comps))
    sc = dataclasses.replace(sc, primary_source=TonalSource(sc.primary_source.position, tones))
    fs, c, P = sc.sample_rate, sc.speed_of_sound, sc.period_samples
    (power,) = field_grid_power(sc, [])
    first = propagate_tonal(sc.primary_source, field_grid(), fs, c)
    whole = repeat_period(first, PATH_TAPS + 4 * P)
    assert np.array_equal(power, np.mean(np.ascontiguousarray(whole[:, -P:]) ** 2, axis=1))


def test_field_grid_single_tone_power_is_analytic():
    sc = single_channel_scenario(amp=40.0)  # one 400 Hz tone
    (power,) = field_grid_power(sc, [])
    grid = field_grid()
    for i in (0, 17, 220, 301, 440):
        d = np.linalg.norm(sc.primary_source.position - grid[i])
        assert power[i] == pytest.approx((40.0 / (4 * np.pi * d)) ** 2 / 2, rel=1e-9)


def traced_peak(call):
    """The peak of the memory tracemalloc traces, numpy's buffers included, during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_map_works_one_grid_row_at_a_time():
    """0.8 MB: one row's path FIRs at a time; the whole grid's (2, 441, PATH_TAPS) FIRs and
    their temporaries take 10 MB or more."""
    sc = default_scenario(0)
    w = 1e-3 * np.random.default_rng(0).normal(size=(2, FILTER_LEN))
    assert traced_peak(lambda: field_grid_power(sc, [w, w])) < 2e6


def test_run_anc_frees_the_filtered_reference_before_the_ears():
    """2.2 MB on the 8 mics over 10 000 samples; 3.3 MB while a view of the 1.3 MB filtered
    reference outlives the loop."""
    sc = default_scenario(0)
    mics = sc.monitoring_positions
    primary = truth(sc, mics)
    assert traced_peak(lambda: run_anc(sc, mics, primary, 1e-5, 10_000)) < 2.5e6


def test_run_controls_frees_each_filtered_reference_before_the_ears():
    """2.91 MB for both controllers over 10 000 steps on the 250/350/450 Hz tones of
    default_scenario(1), each sensing one period, the mic signals given; 3.70 MB while each sensing held its
    primary over every step beside the error buffer, and 5.6 MB while both filtered
    references outlive the loop and the errors are squared out of place."""
    sc = default_scenario(1)
    tones = zip((250.0, 350.0, 450.0), sc.primary_source.components)
    src = TonalSource(
        sc.primary_source.position, tuple(ToneComponent(f, c.amplitude, c.phase) for f, c in tones)
    )
    sc = dataclasses.replace(sc, primary_source=src)
    mics = truth(sc, sc.monitoring_positions)
    params, _ = train_pinn(sc, mics, TrainConfig(epochs=10, restarts=1))
    assert traced_peak(lambda: run_controls(sc, params, mics)) < 3.3e6


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 1.0),
    points=st.lists(st.integers(0, 440), min_size=1, max_size=3),
    far=st.booleans(),
)
@example(seed=0, log_scale=0.0, points=[0, 220, 440], far=False)
@example(seed=0, log_scale=0.0, points=[0, 220, 440], far=True)
def test_field_grid_matches_brute_force(seed, log_scale, points, far):
    """Each point's power is the last-period mean of the primary plus every secondary
    source's output, -w_l * x, through its path FIR, by full-length convolution."""
    sc = default_scenario(0)
    if far:  # path delays near PATH_TAPS: the oldest controller outputs reach the grid
        sc = dataclasses.replace(sc, secondary_positions=[(0.0, 3.0, 0.0), (0.0, -3.0, 0.0)])
    fs, c, period = sc.sample_rate, sc.speed_of_sound, sc.period_samples
    n_total = PATH_TAPS + 4 * period
    w = 10.0**log_scale * np.random.default_rng(seed).normal(size=(2, FILTER_LEN))
    _, power = field_grid_power(sc, [w])
    grid = field_grid()
    x = repeat_period(sc.primary_source.waveform(fs), n_total)
    for i in points:
        point = grid[i : i + 1]
        firs = make_path_fir(sc.secondary_positions, point, fs, c)[:, 0]
        p = repeat_period(truth(sc, point)[0], n_total)
        for w_l, fir_l in zip(w, firs):
            p = p + np.convolve(np.convolve(x, -w_l), fir_l)[:n_total]
        assert power[i] == pytest.approx(np.mean(p[-period:] ** 2), rel=1e-12)


def reference_run_anc(scenario, sensors, primary, mu, iterations):
    """The FxLMS loop in shift-register form: every buffer newest first, the
    filtered reference and the ear residuals formed sample by sample in the loop,
    step n reading column n mod P of each one-period signal, ``primary`` (M, P) the
    error signal's primary part.

    Returns (weights, sensor_mse, eps_db, converged).
    """
    fs, c = scenario.sample_rate, scenario.speed_of_sound
    src, period = scenario.primary_source, scenario.period_samples
    cycle = np.arange(iterations) % period
    ear_primary = truth(scenario, scenario.virtual_positions)[:, cycle]
    secondaries, ears = scenario.secondary_positions, scenario.virtual_positions
    S = make_path_fir(secondaries, sensors, fs, c)
    S_ear = make_path_fir(secondaries, ears, fs, c)
    L, M = S.shape[:2]
    x = src.waveform(fs)[cycle]

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
        e = primary[:, n % period] + np.einsum("lmt,lt->m", S, dbuf)
        ear_resid.append(ear_primary[:, n] + np.einsum("lvt,lt->v", S_ear, dbuf))
        sensor_mse.append(np.mean(e**2))
        w = w + mu * np.einsum("lmn,m->ln", fx, e)
        if not np.all(np.abs(w) <= WEIGHT_BOUND):  # NaN included
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


def rel_err(a, b, floor=1e-300):
    """Largest difference over the largest magnitude, or over ``floor`` when that is larger
    (1 dB for eps_db, which near 0 dB holds its ratio's roundoff, ~1e-15 dB, unscaled);
    NaNs must sit at the same places."""
    assert a.shape == b.shape and np.array_equal(np.isnan(a), np.isnan(b))
    a, b = a[~np.isnan(b)], b[~np.isnan(b)]
    return np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b), initial=0.0), floor)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sources=st.integers(1, 2),
    num_sensors=st.integers(1, 3),
    log_mu=st.floats(-6.0, 0.0),
    iterations=st.integers(50, 400),
    ideal=st.booleans(),
    period=st.sampled_from(PERIODS),
    nan_at=st.none() | st.integers(0, 399),
)
@example(  # diverges
    seed=7, num_sources=2, num_sensors=3, log_mu=0.0, iterations=400, ideal=False, period=240,
    nan_at=None,
)
@example(  # 375 Hz: a 64-sample period that does not divide the window
    seed=3, num_sources=1, num_sensors=2, log_mu=-2.0, iterations=400, ideal=True, period=64,
    nan_at=None,
)
@example(  # a NaN in the error signal diverges at its sample, column 70 of the period
    seed=5, num_sources=2, num_sensors=2, log_mu=-3.0, iterations=300, ideal=False, period=80,
    nan_at=150,
)
@example(  # stops at step 74 with eps_db below 4e-4 dB, 1e-15 dB from the reference's
    seed=299, num_sources=1, num_sensors=1, log_mu=0.0, iterations=100, ideal=False,
    period=100, nan_at=373,
)
def test_run_anc_matches_shift_register_loop(
    seed, num_sources, num_sensors, log_mu, iterations, ideal, period, nan_at
):
    sc = random_scenario(seed, num_sources, num_sensors, period)
    sensors = sc.virtual_positions if ideal else sc.monitoring_positions
    mu = 10.0**log_mu
    primary = truth(sc, sensors)
    if nan_at is not None:
        k = nan_at % min(sc.period_samples, iterations)  # reached within the run
        primary[-1, k] = np.nan
    w, sensor_mse, eps_db, converged = reference_run_anc(sc, sensors, primary, mu, iterations)
    rep = run_anc(sc, sensors, primary, mu, iterations)
    if nan_at is not None:  # stopped at step k + 1, or sooner by a weight beyond the bound
        assert not rep.converged and rep.iterations <= k + 1
    assert rep.converged == converged
    assert rep.iterations == sensor_mse.size
    assert rel_err(rep.weights, w) <= 1e-12
    assert rel_err(rep.sensor_mse, sensor_mse) <= 1e-12
    assert rel_err(rep.eps_db, eps_db, floor=1.0) <= 1e-12


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sources=st.integers(1, 2),
    counts=st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True),
    log_mu=st.floats(-6.0, 0.0),
    iterations=st.integers(50, 300),
    period=st.sampled_from(PERIODS),
    nan_at=st.integers(0, 299),
)
@example(  # the NaN sensing stops at its sample, the others run to the end
    seed=5, num_sources=2, counts=[3, 1, 2], log_mu=-4.0, iterations=300, period=80, nan_at=150
)
@example(  # every controller diverges, the NaN sensing first
    seed=7, num_sources=2, counts=[2, 3], log_mu=0.0, iterations=300, period=240, nan_at=20
)
def test_stacked_controllers_each_run_as_alone(
    seed, num_sources, counts, log_mu, iterations, period, nan_at
):
    """run_controllers on 2-3 sensings of different sensor counts, the last with a NaN in
    its primary: each report is bitwise run_anc on its sensing alone, and within 1e-12 of
    the shift-register loop."""
    sc = random_scenario(seed, num_sources, 3, period)
    pool = np.concatenate([sc.monitoring_positions, sc.virtual_positions])
    sensings = [(pool[i : i + k], truth(sc, pool[i : i + k])) for i, k in enumerate(counts)]
    k = nan_at % min(sc.period_samples, iterations)  # the NaN's column, reached in the run
    sensings[-1][1][-1, k] = np.nan
    mu = 10.0**log_mu
    reports = run_controllers(sc, sensings, mu, iterations)
    assert len(reports) == len(sensings)
    assert reports[-1].iterations <= k + 1 and not reports[-1].converged
    for (sensors, primary), rep in zip(sensings, reports):
        alone = run_anc(sc, sensors, primary, mu, iterations)
        for name in ("weights", "sensor_mse", "eps_db", "ear_residual"):
            assert same_bits(getattr(rep, name), getattr(alone, name)), name
        assert (rep.iterations, rep.converged) == (alone.iterations, alone.converged)
        w, sensor_mse, eps_db, converged = reference_run_anc(sc, sensors, primary, mu, iterations)
        assert rep.converged == converged and rep.iterations == sensor_mse.size
        assert rel_err(rep.weights, w) <= 1e-12
        assert rel_err(rep.sensor_mse, sensor_mse) <= 1e-12
        assert rel_err(rep.eps_db, eps_db, floor=1.0) <= 1e-12


def test_a_diverging_controller_stops_while_the_others_run_on():
    sc = default_scenario(0)
    mics, ears = sc.monitoring_positions, sc.virtual_positions
    estimate = truth(sc, ears)
    estimate[1, 220] = np.nan  # column 220 of the 240-sample period
    mp, pn = run_controllers(sc, [(mics, truth(sc, mics)), (ears, estimate)], 1e-5, 2000)
    assert (pn.iterations, pn.converged) == (221, False)
    assert (mp.iterations, mp.converged) == (2000, True)
    assert mp.ear_residual.shape == (2, 2000) and pn.ear_residual.shape == (2, 221)


@pytest.mark.parametrize("lengths", [(), (100, 101), (240, 239)])
def test_run_controllers_rejects_no_sensing_or_unequal_lengths(lengths):
    """No sensing, or sensings not of one 240-sample period, the second such sensing
    checked after the first's arrays are built; and, on one that is, a run of fewer than
    one iteration."""
    sc = default_scenario(0)
    mics = sc.monitoring_positions
    bad = [n for n in lengths if n != 240]  # the error names the first such shape
    match = rf"period per sensor: \(8, {bad[0]}\)" if bad else "sensing"
    with pytest.raises(ValueError, match=match):
        run_controllers(sc, [(mics, np.zeros((8, n))) for n in lengths], 1e-5, 100)
    for iterations in (0, -1):
        with pytest.raises(ValueError, match="at least one iteration"):
            run_controllers(sc, [(mics, np.zeros((8, 240)))], 1e-5, iterations)


@pytest.fixture(scope="module")
def trained_quick(scenario, mic_signals):
    params, report = train_pinn(scenario, mic_signals, TrainConfig(epochs=3000, restarts=1))
    return params, report
