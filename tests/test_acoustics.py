import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefield_anc.acoustics import TonalSource, ToneComponent, make_path_fir, propagate_tonal
from wavefield_anc.errors import DelayExceedsFilter, ZeroDistance

FS = 24_000.0
C = 343.0


def P(x, y, z):
    return np.array([x, y, z], dtype=float)


def propagate_one(source, receiver, num_samples):
    """Signal at one receiver, as a (num_samples,) array."""
    (sig,) = propagate_tonal(source, receiver[None], FS, num_samples, C)
    return sig


def fir_one(source_pos, receiver, taps):
    (fir,) = make_path_fir(source_pos, receiver[None], FS, taps, C)
    return fir


def tone_source(pos, freq=400.0, amp=1.0, phase=0.0):
    return TonalSource(pos, (ToneComponent(freq, amp, phase),))


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
    src = tone_source(P(0.1, 0.2, 0.3))
    with pytest.raises(ZeroDistance):
        propagate_one(src, P(0.1, 0.2, 0.3), 240)


def test_nyquist_guard():
    src = tone_source(P(0, 0, 0), freq=12_000.0)
    with pytest.raises(ValueError):
        propagate_one(src, P(1, 0, 0), 240)


@given(
    st.floats(100.0, 900.0),
    st.floats(100.0, 900.0),
    st.floats(0.0, 2 * np.pi),
    st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=30)
def test_superposition(f1, f2, ph1, ph2):
    if abs(f1 - f2) < 1e-6:
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
    fir = fir_one(src_pos, rx, 256)
    src = tone_source(src_pos, freq=400.0, amp=4 * np.pi)
    approx = np.convolve(src.waveform(FS, 2400), fir)[:2400]
    exact = propagate_one(src, rx, 2400)
    err = np.linalg.norm(approx[256:] - exact[256:]) / np.linalg.norm(exact[256:])
    assert err < 1e-2


def test_fir_error_decreases_with_taps():
    src_pos, rx = P(0.0, 0.2, 0.0), P(0.0, 0.0, 0.0)
    src = tone_source(src_pos, freq=500.0)
    exact = propagate_one(src, rx, 2400)
    x = src.waveform(FS, 2400)
    errs = []
    for taps in (32, 64, 128, 256):
        approx = np.convolve(x, fir_one(src_pos, rx, taps))[:2400]
        errs.append(np.linalg.norm(approx[256:] - exact[256:]))
    assert errs == sorted(errs, reverse=True) or errs[-1] < errs[0]


def test_integer_delay_collapses_to_impulse():
    # place receiver so the delay is an integer number of samples
    k = 20
    d = k * C / FS
    fir = fir_one(P(0, 0, 0), P(d, 0, 0), 64)
    peak = np.argmax(np.abs(fir))
    assert peak == k
    assert fir[k] == pytest.approx(1.0 / (4 * np.pi * d), rel=1e-12)
    others = np.delete(fir, k)
    assert np.max(np.abs(others)) < 1e-12  # sinc vanishes at the other integers


def test_delay_exceeds_filter():
    with pytest.raises(DelayExceedsFilter):
        fir_one(P(0, 0, 0), P(10.0, 0, 0), 64)


def test_zero_length_signal_rejected():
    with pytest.raises(ValueError):
        propagate_one(tone_source(P(0, 0, 0)), P(1, 0, 0), 0)


def test_waveform_is_unit_gain_zero_delay():
    src = TonalSource(
        P(1, 2, 3), (ToneComponent(300.0, 2.0, 0.5), ToneComponent(400.0, 1.0, 1.5))
    )
    x = src.waveform(FS, 100)
    t = np.arange(100) / FS
    expected = 2.0 * np.sin(2 * np.pi * 300 * t + 0.5) + np.sin(2 * np.pi * 400 * t + 1.5)
    assert np.allclose(x, expected, atol=1e-15)


def test_source_position_must_be_three_coordinates():
    for bad in ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0], [0.0, float("nan"), 1.0], None):
        with pytest.raises(ValueError):
            tone_source(bad)


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError):
        TonalSource(P(0, 0, 0), (ToneComponent(300.0), ToneComponent(300.0)))
