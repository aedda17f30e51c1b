import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavefield_anc.acoustics import (
    PATH_TAPS,
    SINC_WINDOW_HALF_WIDTH,
    TonalSource,
    ToneComponent,
    _tone_phasors,
    make_path_fir,
    path_distances,
    propagate_tonal,
)
from wavefield_anc.anc import repeat_period
from wavefield_anc.scenario import default_scenario

FS = 24_000.0
C = 343.0


def P(x, y, z):
    return np.array([x, y, z], dtype=float)


def propagate_one(source, receiver, count):
    """Signal at one receiver, its period repeated to a (count,) array."""
    (sig,) = propagate_tonal(source, receiver[None], FS, C)
    return repeat_period(sig, count)


def fir_one(source_pos, receiver):
    return make_path_fir([source_pos], receiver[None], FS, C)[0, 0]


def tone_source(pos, freq=400.0, amp=1.0, phase=0.0):
    return TonalSource(pos, (ToneComponent(freq, amp, phase),))


def sample_period(freqs):
    """FS / gcd(FS, tones): samples per period of whole-hertz tones sampled at FS."""
    return int(FS) // np.gcd.reduce([int(FS), *(int(f) for f in freqs)])


def direct(source, receivers, t):
    """The free-field formula at the times t, per receiver and tone, summed tone by tone."""
    d = np.array([np.linalg.norm(source.position - r) for r in receivers])[:, None]
    p = np.zeros((len(d), len(t)))
    for comp in source.components:
        p += comp.amplitude * (1.0 / (4.0 * np.pi * d)) * np.sin(
            2.0 * np.pi * comp.frequency * (t - d / C) + comp.phase
        )
    return p


def test_unit_amplitude_at_one_meter():
    # A = 4*pi cancels the 1/(4*pi*d) spreading at d = 1
    src = tone_source(P(0, 0, 0), freq=400.0, amp=4.0 * np.pi)
    sig = propagate_one(src, P(1, 0, 0), 240)
    t = np.arange(len(sig)) / FS
    expected = np.sin(2 * np.pi * 400.0 * (t - 1.0 / C))
    assert np.allclose(sig, expected, atol=1e-12)


def test_paper_source_delay_to_origin():
    d = np.linalg.norm(P(0.6, 0.8, 1.0) - P(0, 0, 0))
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert d / C == pytest.approx(4.1233e-3, abs=1e-6)


def test_inverse_distance_law():
    src = tone_source(P(0, 0, 0), freq=300.0, phase=0.4)
    near = propagate_one(src, P(1, 0, 0), 480)
    far = propagate_one(src, P(2, 0, 0), 480)
    t = np.arange(len(near)) / FS
    # doubling d halves the amplitude and adds a 2*pi*f*d/c phase lag
    expected = 0.5 * np.amax(np.abs(near))
    assert np.amax(np.abs(far)) == pytest.approx(expected, rel=1e-3)
    shifted = 0.5 / (4 * np.pi) * np.sin(2 * np.pi * 300.0 * (t - 2.0 / C) + 0.4)
    assert np.allclose(far, shifted, atol=1e-12)


def test_zero_distance_raises():
    """The zero-distance rule of the path FIRs, naming the receiver and its position."""
    src = tone_source(P(0.1, 0.2, 0.3))
    at = r"^source 0 at \[0.1, 0.2, 0.3\] to receiver 1 at \[0.1, 0.2, 0.3\]: 0 m apart$"
    with pytest.raises(ValueError, match=at):
        propagate_tonal(src, np.array([P(1, 0, 0), P(0.1, 0.2, 0.3)]), FS, C)


def test_nyquist_guard():
    src = tone_source(P(0, 0, 0), freq=12_000.0)
    with pytest.raises(ValueError, match="12000.0 Hz is at or above Nyquist"):
        propagate_one(src, P(1, 0, 0), 240)


@given(
    st.integers(100, 900),  # whole hertz: a tone set without a sample period is rejected
    st.integers(100, 900),
    st.floats(0.0, 2 * np.pi),
    st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=30)
def test_superposition(f1, f2, ph1, ph2):
    if f1 == f2:
        return
    pos = P(0.5, 0.5, 0.5)
    rx = P(0, 0, 0)
    both = propagate_one(
        TonalSource(pos, (ToneComponent(f1, 1.0, ph1), ToneComponent(f2, 2.0, ph2))), rx, 240
    )
    a = propagate_one(TonalSource(pos, (ToneComponent(f1, 1.0, ph1),)), rx, 240)
    b = propagate_one(TonalSource(pos, (ToneComponent(f2, 2.0, ph2),)), rx, 240)
    assert np.allclose(both, a + b, atol=1e-12)


def test_reciprocity():
    a, b = P(0.6, 0.8, 1.0), P(0.05, -0.1, 0.02)
    fwd = propagate_one(tone_source(a, phase=1.1), b, 480)
    rev = propagate_one(tone_source(b, phase=1.1), a, 480)
    assert np.allclose(fwd, rev, atol=1e-15)


def test_fir_matches_analytic_propagation():
    src_pos, rx = P(0.0, 0.5, 0.0), P(0.0, 0.1, 0.0)
    fir = fir_one(src_pos, rx)  # PATH_TAPS = 256
    src = tone_source(src_pos, freq=400.0, amp=4 * np.pi)
    approx = np.convolve(repeat_period(src.waveform(FS), 2400), fir)[:2400]
    exact = propagate_one(src, rx, 2400)
    err = np.linalg.norm(approx[256:] - exact[256:]) / np.linalg.norm(exact[256:])
    assert err < 1e-2


def test_integer_delay_collapses_to_impulse():
    # place receiver so the delay is an integer number of samples
    k = 20
    d = k * C / FS
    fir = fir_one(P(0, 0, 0), P(d, 0, 0))
    peak = np.argmax(np.abs(fir))
    assert peak == k
    assert fir[k] == pytest.approx(1.0 / (4 * np.pi * d), rel=1e-12)
    others = np.delete(fir, k)
    assert np.max(np.abs(others)) < 1e-12  # sinc vanishes at the other integers


def test_delay_exceeds_filter():
    """PATH_TAPS = 256 taps model delays up to 240 samples, 3.43 m at 343 m/s."""
    fir_one(P(0, 0, 0), P(3.4, 0, 0))  # 237.9 samples
    with pytest.raises(ValueError, match="241.4-sample delay does not fit in 256 taps"):
        fir_one(P(0, 0, 0), P(3.45, 0, 0))


def test_path_error_names_the_worst_path():
    sources = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    receivers = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    farthest = r"secondary source 1 at \[5.0, 0.0, 0.0\] to mic 0 at \[1.0, 0.0, 0.0\]: 279.9-"
    with pytest.raises(ValueError, match=farthest):
        path_distances(sources, receivers, FS, C, kinds=("secondary source", "mic"))
    coincident = r"^source 0 at \[0.0, 0.0, 0.0\] to receiver 1 at \[0.0, 0.0, 0.0\]: 0 m apart"
    with pytest.raises(ValueError, match=coincident):
        path_distances(sources[:1], np.vstack([receivers[:1], sources[:1]]), FS, C)


def dense_path_fir(sources, receivers, sample_rate, c):
    """make_path_fir's formula evaluated on all PATH_TAPS taps: the oracle for its form on
    the taps each path's window spans."""
    d = path_distances(sources, receivers, sample_rate, c)[..., None]
    offset = np.arange(PATH_TAPS) - d / c * sample_rate
    x = np.pi * offset / SINC_WINDOW_HALF_WIDTH
    window = 0.42 + 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    window[np.abs(offset) > SINC_WINDOW_HALF_WIDTH] = 0.0
    return np.sinc(offset) * window / (4.0 * np.pi * d)


# path delays in samples: under the half width (the window cut at tap 0), mid-range, and
# in [PATH_TAPS - 17, PATH_TAPS - 16), the longest path_distances accepts, whose window
# reaches the last tap
path_delays = st.one_of(
    st.floats(1e-3, SINC_WINDOW_HALF_WIDTH),
    st.floats(SINC_WINDOW_HALF_WIDTH, PATH_TAPS - 17),
    st.floats(PATH_TAPS - 17, PATH_TAPS - 16.001),
)
directions = st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, np.pi))


@given(
    sample_rate=st.integers(1_000, 96_000),
    source=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    paths=st.lists(st.tuples(path_delays, directions), min_size=1, max_size=4),
)
@example(24_000, (0.0, 0.0, 0.0), [(239.5, (0.0, 0.0)), (239.0, (1.0, 1.0)), (16.0, (2.0, 2.0))])
@example(48_000, (0.5, -1.0, 0.2), [(0.25, (0.3, 0.4)), (20.0, (0.0, 0.0)), (223.5, (1.0, 2.0))])
@settings(max_examples=80, deadline=None)
def test_path_fir_on_the_live_taps_is_the_dense_formula(sample_rate, source, paths):
    """Equal to the formula on every tap (np.array_equal: 0.0 == -0.0), from receivers
    placed at drawn delays from the source, at sample rates path_distances accepts."""
    fs, source = float(sample_rate), np.array(source)
    receivers = [source + delay * C / fs * np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        for delay, (phi, theta) in paths]
    sources, receivers = source[None], np.array(receivers)
    assert np.array_equal(make_path_fir(sources, receivers, fs, C),
                          dense_path_fir(sources, receivers, fs, C))


@given(
    tones=st.lists(
        st.tuples(st.integers(20, 3000), st.floats(0.1, 10.0), st.floats(0.0, 2.0 * np.pi)),
        min_size=1, max_size=4, unique_by=lambda tone: tone[0],
    ),
    receivers=st.lists(st.tuples(*[st.floats(-0.5, 0.5)] * 3), min_size=1, max_size=3),
)
@example([(300, 10.0, 1.0), (400, 10.0, 2.0), (500, 10.0, 3.0)], [(0.0, 0.1, 0.0)])
@settings(max_examples=40, deadline=None)
def test_tone_phasors_are_the_dft_bins_of_the_period(tones, receivers):
    """The complex amplitude a of each tone at each receiver is 2j X_k / P, X_k the rfft
    bin of the tone in the one-period signal that propagate_tonal synthesises."""
    src = TonalSource(P(0.6, 0.8, 1.0), tuple(ToneComponent(float(f), a, ph) for f, a, ph in tones))
    receivers = np.array(receivers)
    d = np.linalg.norm(receivers - src.position, axis=1)
    amplitudes = _tone_phasors(src, d / C, 1.0 / (4.0 * np.pi * d))
    signal = propagate_tonal(src, receivers, FS, C)
    period = signal.shape[1]
    bins = [round(f * period / FS) for f, _, _ in tones]
    expected = 2j * np.fft.rfft(signal, axis=1)[:, bins] / period
    assert amplitudes == pytest.approx(expected, rel=1e-12)


# harmonics of FS / P for periods P that mostly do not divide 2 400 (375 Hz: P = 64)
harmonics = st.builds(
    lambda period, k: k * 24_000 // period,
    st.sampled_from([48, 64, 75, 80, 96, 120, 160, 240]),
    st.integers(1, 10),
)


@given(
    st.lists(st.one_of(harmonics, st.integers(20, 3000)), min_size=1, max_size=3, unique=True),
    st.integers(0, 30_000),
    st.integers(1, 500),
)
@example([375], 0, 200)
@example([375], 29_990, 100)
@settings(max_examples=60, deadline=None)
def test_each_sample_is_the_formula_at_its_residue_in_the_period(freqs, start, count):
    tones = tuple(ToneComponent(float(f), 1.0 + i, 0.3 * i) for i, f in enumerate(freqs))
    src = TonalSource(P(0.6, 0.8, 1.0), tones)
    receivers = np.array([[0.1, 0.0, 0.0], [0.0, -0.2, 0.05], [-0.15, 0.15, -0.15]])
    t = (start + np.arange(count)) % sample_period(freqs) / FS
    out = repeat_period(propagate_tonal(src, receivers, FS, C), start + count)[:, start:]
    assert np.array_equal(out, direct(src, receivers, t))  # bitwise


@pytest.mark.parametrize("freqs", [(300.0, 400.0, 500.0), (375.0,), (250.0, 350.0, 450.0)])
def test_first_period_is_the_direct_formula(freqs):
    """Sample n < P is evaluated at t = n / FS exactly as direct synthesis evaluates it, so the
    period the PINN trains on does not depend on how later samples are formed."""
    sc = default_scenario(0)
    ref = sc.primary_source.components
    tones = tuple(ToneComponent(f, c.amplitude, c.phase) for f, c in zip(freqs, ref))
    src, mics = TonalSource(sc.primary_source.position, tones), sc.monitoring_positions
    period = sample_period(freqs)
    out = propagate_tonal(src, mics, FS, C)
    assert np.array_equal(out, direct(src, mics, np.arange(period) / FS))  # bitwise


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
def test_accuracy_against_extended_precision_synthesis():
    """10 000 samples (the ANC truth) of the reference scenario's mics and ears, against the
    formula in long double: within 1e-13 of the peak."""
    sc = default_scenario(0)
    receivers = np.vstack([sc.monitoring_positions, sc.virtual_positions])
    out = repeat_period(propagate_tonal(sc.primary_source, receivers, FS, C), 10_000)
    pi = np.arccos(np.longdouble(-1.0))
    pos = sc.primary_source.position.astype(np.longdouble)
    d = np.sqrt(np.sum((receivers.astype(np.longdouble) - pos) ** 2, axis=1))[:, None]
    t = np.arange(10_000, dtype=np.longdouble) / np.longdouble(FS)
    ref = np.zeros(out.shape, dtype=np.longdouble)
    for comp in sc.primary_source.components:
        f, amp, phase = (np.longdouble(x) for x in (comp.frequency, comp.amplitude, comp.phase))
        ref += amp / (4 * pi * d) * np.sin(2 * pi * f * (t - d / np.longdouble(C)) + phase)
    err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
    assert err <= 1e-13


def test_waveform_repeats_its_first_period():
    src = TonalSource(
        P(1, 2, 3), (ToneComponent(375.0, 2.0, 0.5), ToneComponent(750.0, 1.0, 1.5))
    )
    period = sample_period([375.0, 750.0])  # 64
    one = src.waveform(FS)
    assert one.shape == (period,)
    x = repeat_period(one, 10 * period + 7)
    t = np.arange(period) / FS
    first = 2.0 * np.sin(2 * np.pi * 375.0 * t + 0.5) + 1.0 * np.sin(2 * np.pi * 750.0 * t + 1.5)
    assert np.array_equal(x[:period], first)  # bitwise
    assert np.array_equal(x[period:], x[:-period])


def test_waveform_is_unit_gain_zero_delay():
    src = TonalSource(
        P(1, 2, 3), (ToneComponent(300.0, 2.0, 0.5), ToneComponent(400.0, 1.0, 1.5))
    )
    x = src.waveform(FS)
    t = np.arange(240) / FS  # one period
    expected = 2.0 * np.sin(2 * np.pi * 300 * t + 0.5) + np.sin(2 * np.pi * 400 * t + 1.5)
    assert np.allclose(x, expected, atol=1e-15)


def test_source_position_must_be_three_coordinates():
    for bad in ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0], [0.0, float("nan"), 1.0], None):
        with pytest.raises(ValueError):
            tone_source(bad)


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError):
        TonalSource(P(0, 0, 0), (ToneComponent(300.0), ToneComponent(300.0)))
