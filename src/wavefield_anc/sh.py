"""Spherical-harmonic soundfield decomposition and radial translation.

The monitoring signals are decomposed on a real orthonormal SH basis and
re-expanded at another radius through ratios of spherical Bessel functions,
applied per DFT bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.fft import irfft, rfft, rfftfreq

from .errors import EmptySignals, RadiusMismatch, ZeroDenominator
from .geometry import cart_to_sph

DB_FLOOR = -300.0
BESSEL_DENOM_CLAMP = 1e-6
BESSEL_SERIES_CUTOFF = 2.0


@dataclass(frozen=True)
class ShIndex:
    order: int  # u >= 0
    degree: int  # |v| <= u

    def __post_init__(self):
        if self.order < 0 or abs(self.degree) > self.order:
            raise ValueError("need order >= 0 and |degree| <= order")

    @property
    def flat(self) -> int:
        return self.order * self.order + self.order + self.degree


def sh_indices(max_order: int) -> list[ShIndex]:
    return [ShIndex(u, v) for u in range(max_order + 1) for v in range(-u, u + 1)]


@dataclass
class ShCoeffSeries:
    """Per-mode coefficient time series from a fit at one radius."""

    max_order: int
    fit_radius: float
    sample_rate: float
    coeffs: np.ndarray  # shape ((U+1)^2, num_samples)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = (self.max_order + 1) ** 2
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != expected:
            raise ValueError(f"coeffs must have {expected} mode rows")


def real_sh(idx: ShIndex, theta, phi):
    """Real orthonormal spherical harmonic, Condon-Shortley phase omitted."""
    u, v = idx.order, idx.degree
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    m = abs(v)
    norm = np.sqrt((2 * u + 1) / (4.0 * np.pi) * factorial(u - m) / factorial(u + m))
    # P_u^m(x), x = cos theta, upward in degree from P_m^m = (2m - 1)!! (1 - x^2)^(m/2)
    x = np.cos(theta)
    prev, leg = 0.0, float(np.prod(np.arange(2 * m - 1, 0, -2))) * np.sqrt(1.0 - x * x) ** m
    for l in range(m + 1, u + 1):
        prev, leg = leg, ((2 * l - 1) * x * leg - (l + m - 1) * prev) / (l - m)
    if v == 0:
        out = norm * leg
    elif v > 0:
        out = np.sqrt(2.0) * norm * leg * np.cos(m * phi)
    else:
        out = np.sqrt(2.0) * norm * leg * np.sin(m * phi)
    return out if out.ndim else float(out)


_DOUBLE_FACT = {u: float(np.prod(np.arange(2 * u + 1, 0, -2))) for u in range(6)}


def spherical_bessel_j(u: int, x) -> np.ndarray | float:
    """Spherical Bessel function of the first kind, orders 0..4.

    Closed forms for large arguments; power series below x=2 where the closed
    forms cancel catastrophically.
    """
    if not 0 <= u <= 4:
        raise ValueError("orders 0..4 supported")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < BESSEL_SERIES_CUTOFF
    out[small] = _bessel_series(u, x[small])
    xl = x[~small]
    if xl.size:
        s, c = np.sin(xl), np.cos(xl)
        if u == 0:
            val = s / xl
        elif u == 1:
            val = s / xl**2 - c / xl
        elif u == 2:
            val = (3.0 / xl**3 - 1.0 / xl) * s - 3.0 / xl**2 * c
        elif u == 3:
            val = (15.0 / xl**4 - 6.0 / xl**2) * s - (15.0 / xl**3 - 1.0 / xl) * c
        else:
            val = (105.0 / xl**5 - 45.0 / xl**3 + 1.0 / xl) * s - (
                105.0 / xl**4 - 10.0 / xl**2
            ) * c
        out[~small] = val
    return float(out[0]) if scalar else out


def _bessel_series(u: int, x: np.ndarray) -> np.ndarray:
    # j_u(x) = sum_m (-1)^m x^(2m+u) / (2^m m! (2u+2m+1)!!)
    acc = np.zeros_like(x)
    term = x**u / _DOUBLE_FACT[u]
    acc += term
    x2 = x * x
    for m in range(1, 30):
        term = term * (-x2) / (2.0 * m * (2 * u + 2 * m + 1))
        acc += term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(acc) + 1e-300)):
            break
    return acc


def max_order(f_m: float, r: float, c: float) -> int:
    """Soundfield truncation order ceil(2 pi f r / c)."""
    if f_m <= 0 or r <= 0 or c <= 0:
        raise ValueError("all arguments must be positive")
    arg = 2.0 * np.pi * f_m * r / c
    if arg < 1e-12:
        return 0
    return int(np.ceil(arg))


def sh_fit(
    positions: np.ndarray,
    signals: np.ndarray,
    U: int,
    sample_rate: float,
    reg: float = 1e-6,
) -> ShCoeffSeries:
    """Ridge least-squares fit of SH mode coefficients, per time sample.

    ``signals`` is (Q, T), one row per sensor of the (Q, 3) ``positions``.
    ``reg`` is relative to the largest singular value of the basis matrix;
    as reg -> 0 the solution tends to the minimum-norm pseudoinverse solution.
    """
    P = np.asarray(signals, dtype=float)
    if P.size == 0:
        raise EmptySignals("need non-empty signals")
    positions = np.asarray(positions, dtype=float)
    if P.ndim != 2 or positions.shape != (len(P), 3):
        raise ValueError("need (Q, 3) positions and (Q, T) signals")
    radii, theta, phi = cart_to_sph(positions)
    if np.ptp(radii) > 1e-6:
        raise RadiusMismatch(f"sensor radii span {np.ptp(radii):.3g} m")

    Y = np.column_stack([real_sh(ix, theta, phi) for ix in sh_indices(U)])  # (Q, (U+1)^2)
    u_svd, s_svd, vt = np.linalg.svd(Y, full_matrices=False)
    lam = reg * s_svd[0]
    filt = s_svd / (s_svd**2 + lam**2)
    solver = vt.T @ (filt[:, None] * u_svd.T)  # ((U+1)^2, Q)
    coeffs = solver @ P
    return ShCoeffSeries(U, float(radii.mean()), sample_rate, coeffs)


def _radial_ratio(u: int, freqs: np.ndarray, r_from: float, r_to: float, c: float) -> np.ndarray:
    """Per-bin j_u(k r_to)/j_u(k r_from), clamped away from Bessel zeros."""
    k_from = 2.0 * np.pi * freqs * r_from / c
    k_to = 2.0 * np.pi * freqs * r_to / c
    num = spherical_bessel_j(u, k_to)
    den = spherical_bessel_j(u, k_from)
    # clamp only near genuine zeros; below x=1 j_u is zero-free and the small
    # values cancel legitimately against an equally small numerator
    near_zero = (np.abs(den) < BESSEL_DENOM_CLAMP) & (np.atleast_1d(k_from) >= 1.0)
    sign = np.where(den >= 0.0, 1.0, -1.0)
    den_clamped = np.where(near_zero | (den == 0.0), sign * BESSEL_DENOM_CLAMP, den)
    ratio = num / den_clamped
    # 0/0 limit at DC for u >= 1: j_u(x) ~ x^u / (2u+1)!!
    if u >= 1:
        tiny = k_from < 1e-12
        ratio = np.where(tiny, (r_to / r_from) ** u, ratio)
    return ratio


def sh_interpolate(series: ShCoeffSeries, targets: np.ndarray, c: float) -> np.ndarray:
    """Reconstruct the (P, T) pressure signals at the (P, 3) ``targets``.

    Each mode's coefficient series is translated radially in the DFT domain by
    the spherical-Bessel ratio at that bin's frequency, then recombined with
    the SH basis at the target angles. Targets sharing a radius share one
    translation.
    """
    r_s, theta, phi = cart_to_sph(targets)
    if np.any(r_s <= 0):
        raise ValueError("target radius must be positive")
    T = series.coeffs.shape[1]
    freqs = rfftfreq(T, d=1.0 / series.sample_rate)
    spec = rfft(series.coeffs, axis=1)
    idxs = sh_indices(series.max_order)
    orders = [ix.order for ix in idxs]
    Y = np.column_stack([real_sh(ix, theta, phi) for ix in idxs])  # (P, modes)
    radii, group = np.unique(r_s, return_inverse=True)
    out = np.empty((len(r_s), T))
    for g, radius in enumerate(radii):
        by_order = [
            _radial_ratio(u, freqs, series.fit_radius, radius, c)
            for u in range(series.max_order + 1)
        ]
        translated = irfft(spec * np.stack(by_order)[orders], n=T, axis=1)
        members = group == g
        out[members] = Y[members] @ translated
    return out


def interpolation_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Energy ratio sum((p - p_hat)^2) / sum(p^2) over all points and samples."""
    if np.shape(truth) != np.shape(estimate) or np.size(truth) == 0:
        raise ValueError("need non-empty signal arrays of one shape")
    den = float(np.sum(np.square(truth)))
    if den == 0.0:
        raise ZeroDenominator("truth signals are identically zero")
    err = np.subtract(truth, estimate)
    err *= err
    return float(np.sum(err)) / den


def ratio_to_db(ratio: float) -> float:
    """10 log10 of a power ratio, floored at -300 dB."""
    if ratio <= 10.0 ** (DB_FLOOR / 10.0):
        return DB_FLOOR
    return float(10.0 * np.log10(ratio))
