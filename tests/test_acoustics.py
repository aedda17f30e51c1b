import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefield_anc.acoustics import (
    SampledSignal,
    TonalSource,
    ToneComponent,
    make_path_fir,
    propagate_tonal,
)
from wavefield_anc.errors import DelayExceedsFilter, ZeroDistance
from wavefield_anc.geometry import Point3

FS = 24_000.0
C = 343.0


def tone_source(pos, freq=400.0, amp=1.0, phase=0.0):
    return TonalSource(pos, (ToneComponent(freq, amp, phase),))


def test_unit_amplitude_at_one_meter():
    # A = 4*pi cancels the 1/(4*pi*d) spreading at d = 1
    src = tone_source(Point3(0, 0, 0), freq=400.0, amp=4.0 * np.pi)
    sig = propagate_tonal(src, Point3(1, 0, 0), FS, 0.01, C)
    t = np.arange(len(sig)) / FS
    expected = np.sin(2 * np.pi * 400.0 * (t - 1.0 / C))
    assert np.allclose(sig.samples, expected, atol=1e-12)


def test_paper_source_delay_to_origin():
    d = Point3(0.6, 0.8, 1.0).distance_to(Point3(0, 0, 0))
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert d / C == pytest.approx(4.1233e-3, abs=1e-6)


def test_inverse_distance_law():
    src = tone_source(Point3(0, 0, 0), freq=300.0, phase=0.4)
    near = propagate_tonal(src, Point3(1, 0, 0), FS, 0.02, C)
    far = propagate_tonal(src, Point3(2, 0, 0), FS, 0.02, C)
    t = np.arange(len(near)) / FS
    # doubling d halves the amplitude and adds a 2*pi*f*d/c phase lag
    expected = 0.5 * np.amax(np.abs(near.samples))
    assert np.amax(np.abs(far.samples)) == pytest.approx(expected, rel=1e-3)
    shifted = 0.5 / (4 * np.pi) * np.sin(2 * np.pi * 300.0 * (t - 2.0 / C) + 0.4)
    assert np.allclose(far.samples, shifted, atol=1e-12)


def test_zero_distance_raises():
    src = tone_source(Point3(0.1, 0.2, 0.3))
    with pytest.raises(ZeroDistance):
        propagate_tonal(src, Point3(0.1, 0.2, 0.3), FS, 0.01, C)


def test_nyquist_guard():
    src = tone_source(Point3(0, 0, 0), freq=12_000.0)
    with pytest.raises(ValueError):
        propagate_tonal(src, Point3(1, 0, 0), FS, 0.01, C)


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
    pos = Point3(0.5, 0.5, 0.5)
    rx = Point3(0, 0, 0)
    both = propagate_tonal(
        TonalSource(pos, (ToneComponent(f1, 1.0, ph1), ToneComponent(f2, 2.0, ph2))),
        rx, FS, 0.01, C,
    )
    a = propagate_tonal(TonalSource(pos, (ToneComponent(f1, 1.0, ph1),)), rx, FS, 0.01, C)
    b = propagate_tonal(TonalSource(pos, (ToneComponent(f2, 2.0, ph2),)), rx, FS, 0.01, C)
    assert np.allclose(both.samples, a.samples + b.samples, atol=1e-12)


def test_reciprocity():
    a, b = Point3(0.6, 0.8, 1.0), Point3(0.05, -0.1, 0.02)
    fwd = propagate_tonal(tone_source(a, phase=1.1), b, FS, 0.02, C)
    rev = propagate_tonal(tone_source(b, phase=1.1), a, FS, 0.02, C)
    assert np.allclose(fwd.samples, rev.samples, atol=1e-15)


def test_fir_matches_analytic_propagation():
    src_pos, rx = Point3(0.0, 0.5, 0.0), Point3(0.0, 0.1, 0.0)
    fir = make_path_fir(src_pos, rx, FS, 256, C)
    src = tone_source(src_pos, freq=400.0, amp=4 * np.pi)
    approx = np.convolve(src.waveform(FS, 2400), fir)[:2400]
    exact = propagate_tonal(src, rx, FS, 0.1, C).samples
    err = np.linalg.norm(approx[256:] - exact[256:]) / np.linalg.norm(exact[256:])
    assert err < 1e-2


def test_fir_error_decreases_with_taps():
    src_pos, rx = Point3(0.0, 0.2, 0.0), Point3(0.0, 0.0, 0.0)
    src = tone_source(src_pos, freq=500.0)
    exact = propagate_tonal(src, rx, FS, 0.1, C).samples
    x = src.waveform(FS, 2400)
    errs = []
    for taps in (32, 64, 128, 256):
        approx = np.convolve(x, make_path_fir(src_pos, rx, FS, taps, C))[:2400]
        errs.append(np.linalg.norm(approx[256:] - exact[256:]))
    assert errs == sorted(errs, reverse=True) or errs[-1] < errs[0]


def test_integer_delay_collapses_to_impulse():
    # place receiver so the delay is an integer number of samples
    k = 20
    d = k * C / FS
    fir = make_path_fir(Point3(0, 0, 0), Point3(d, 0, 0), FS, 64, C)
    peak = np.argmax(np.abs(fir))
    assert peak == k
    assert fir[k] == pytest.approx(1.0 / (4 * np.pi * d), rel=1e-12)
    others = np.delete(fir, k)
    assert np.max(np.abs(others)) < 1e-12  # sinc vanishes at the other integers


def test_delay_exceeds_filter():
    with pytest.raises(DelayExceedsFilter):
        make_path_fir(Point3(0, 0, 0), Point3(10.0, 0, 0), FS, 64, C)


def test_zero_length_signal_rejected():
    with pytest.raises(ValueError):
        SampledSignal(FS, np.array([]))


def test_combinability_checks():
    a = SampledSignal(FS, np.ones(10))
    b = SampledSignal(FS, np.ones(11))
    with pytest.raises(ValueError):
        a + b
    c = SampledSignal(FS / 2, np.ones(10))
    with pytest.raises(ValueError):
        a - c


def test_waveform_is_unit_gain_zero_delay():
    src = TonalSource(
        Point3(1, 2, 3), (ToneComponent(300.0, 2.0, 0.5), ToneComponent(400.0, 1.0, 1.5))
    )
    x = src.waveform(FS, 100)
    t = np.arange(100) / FS
    expected = 2.0 * np.sin(2 * np.pi * 300 * t + 0.5) + np.sin(2 * np.pi * 400 * t + 1.5)
    assert np.allclose(x, expected, atol=1e-15)


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError):
        TonalSource(Point3(0, 0, 0), (ToneComponent(300.0), ToneComponent(300.0)))
