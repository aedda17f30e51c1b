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

from .geometry import cart_to_sph

DB_FLOOR = -300.0
BESSEL_DENOM_CLAMP = 1e-6
RIDGE_WEIGHT = 1e-6  # the SH fit's ridge weight, relative to the basis's largest singular value


@dataclass
class ShCoeffSeries:
    """Per-mode coefficient time series from a fit at one radius."""

    max_order: int
    fit_radius: float
    sample_rate: float
    coeffs: np.ndarray  # shape ((U+1)^2, T), the T samples of the fitted signals


def real_sh(U: int, theta, phi) -> np.ndarray:
    """Real orthonormal spherical harmonics of orders 0..U at the angles ``theta``, ``phi``
    (broadcast together), Condon-Shortley phase omitted, as (..., (U+1)^2): mode (u, v),
    |v| <= u, in column u^2 + u + v."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    x, sin_theta = np.cos(theta), np.sin(theta)  # not sqrt(1 - x^2): exact near the poles
    Y = np.empty(np.broadcast_shapes(x.shape, phi.shape) + ((U + 1) ** 2,))
    double_fact = 1.0  # (2m - 1)!!
    for m in range(U + 1):
        double_fact *= max(2 * m - 1, 1)
        cos_m, sin_m = np.cos(m * phi), np.sin(m * phi)
        # P_u^m(x) upward in degree from P_m^m = (2m - 1)!! (1 - x^2)^(m/2)
        prev, leg = 0.0, double_fact * sin_theta**m
        for u in range(m, U + 1):
            if u > m:
                prev, leg = leg, ((2 * u - 1) * x * leg - (u + m - 1) * prev) / (u - m)
            norm = np.sqrt((2 * u + 1) / (4.0 * np.pi) * factorial(u - m) / factorial(u + m))
            norm *= np.sqrt(2.0) if m else 1.0
            Y[..., u * u + u + m] = norm * leg * cos_m
            if m:
                Y[..., u * u + u - m] = norm * leg * sin_m
    return Y


def spherical_bessel_j(U: int, x) -> np.ndarray:
    """Spherical Bessel functions of the first kind j_0 .. j_U at ``x`` >= 0, as (U+1, ...).

    Orders up to floor(x) come from j_{-1} = cos(x)/x and j_0 = sin(x)/x by the upward
    recurrence j_{u+1} = (2u + 1)/x j_u - j_{u-1}, which is stable there. Each higher order is
    j_u = j_{u-1} r_u, with the ratio r_u = j_u / j_{u-1} from the downward continued
    fraction r_u = x / (2u + 1 - x r_{u+1}), started at u = U + 40 with r = 0. The anchor
    j_{floor(x)} lies before its first zero, so the product is well conditioned.
    """
    x = np.asarray(x, dtype=float)
    xs = np.where(x > 0.0, x, 1.0)  # x = 0 takes the continued fraction from order 1
    j = np.empty((U + 2, *x.shape))  # j[u + 1] = j_u, from j_{-1} = cos(x)/x
    j[0] = np.cos(xs) / xs
    j[1] = np.where(x > 0.0, np.sin(xs) / xs, 1.0)
    ratios = np.empty((U + 1, *x.shape))
    r = np.zeros(x.shape)
    # unused values may pass a pole (the ratios below floor(x)) or overflow (the upward
    # recurrence above it, at small x)
    with np.errstate(all="ignore"):
        for u in range(U + 40, 0, -1):
            r = x / (2 * u + 1 - x * r)
            if u <= U:
                ratios[u] = r
        for u in range(1, U + 1):
            up = (2 * u - 1) / xs * j[u] - j[u - 1]
            j[u + 1] = np.where(u > np.floor(x), j[u] * ratios[u], up)
    return j[1:]


def max_order(f_m: float, r: float, c: float) -> int:
    """Soundfield truncation order ceil(2 pi f r / c)."""
    if f_m <= 0 or r <= 0 or c <= 0:
        raise ValueError("all arguments must be positive")
    return int(np.ceil(2.0 * np.pi * f_m * r / c))


def common_radius(positions: np.ndarray) -> float:
    """Mean radius of the (Q, 3) ``positions``; ValueError unless their radii agree within
    1e-6 m, as the SH fit and evaluation need."""
    radii = cart_to_sph(positions)[0]
    if np.ptp(radii) > 1e-6:
        raise ValueError(f"sensor radii span {np.ptp(radii):.3g} m, not one sphere")
    return float(radii.mean())


def sh_fit(positions: np.ndarray, signals: np.ndarray, U: int, sample_rate: float) -> ShCoeffSeries:
    """Ridge least-squares fit of SH mode coefficients, per time sample, with RIDGE_WEIGHT.

    ``signals`` is (Q, T), one row per sensor of the (Q, 3) ``positions``. With so small a
    weight the fit is close to the minimum-norm pseudoinverse solution.
    """
    P = np.asarray(signals, dtype=float)
    if P.size == 0:
        raise ValueError("need non-empty signals")
    positions = np.asarray(positions, dtype=float)
    if P.ndim != 2 or positions.shape != (len(P), 3):
        raise ValueError("need (Q, 3) positions and (Q, T) signals")
    radius = common_radius(positions)
    _, theta, phi = cart_to_sph(positions)
    Y = real_sh(U, theta, phi)  # (Q, (U+1)^2)
    u_svd, s_svd, vt = np.linalg.svd(Y, full_matrices=False)
    lam = RIDGE_WEIGHT * s_svd[0]
    filt = s_svd / (s_svd**2 + lam**2)
    solver = vt.T @ (filt[:, None] * u_svd.T)  # ((U+1)^2, Q)
    coeffs = solver @ P
    return ShCoeffSeries(U, radius, sample_rate, coeffs)


def _radial_ratio(U: int, freqs: np.ndarray, r_from: float, r_to: float, c: float) -> np.ndarray:
    """(U+1, bins) ratios j_u(k r_to)/j_u(k r_from) of orders u = 0..U, clamped away
    from Bessel zeros."""
    k_from = 2.0 * np.pi * freqs * r_from / c
    k_to = 2.0 * np.pi * freqs * r_to / c
    num = spherical_bessel_j(U, k_to)
    den = spherical_bessel_j(U, k_from)
    # clamp only near genuine zeros; below x=1 j_u is zero-free and the small
    # values cancel legitimately against an equally small numerator
    near_zero = (np.abs(den) < BESSEL_DENOM_CLAMP) & (k_from >= 1.0)
    sign = np.where(den >= 0.0, 1.0, -1.0)
    den_clamped = np.where(near_zero | (den == 0.0), sign * BESSEL_DENOM_CLAMP, den)
    ratio = num / den_clamped
    # 0/0 limit at DC for u >= 1: j_u(x) ~ x^u / (2u+1)!!; 1 = j_0(0) / j_0(0) for u = 0
    return np.where(k_from < 1e-12, (r_to / r_from) ** np.arange(U + 1)[:, None], ratio)


def sh_interpolate(series: ShCoeffSeries, targets: np.ndarray, c: float) -> np.ndarray:
    """Reconstruct the (P, T) pressure signals at the (P, 3) ``targets``, which lie on one
    origin-centred sphere (common_radius).

    Each mode's coefficient series is translated radially to that sphere in the DFT
    domain by the spherical-Bessel ratio at each bin's frequency, then recombined with
    the SH basis at the target angles.
    """
    radius = common_radius(targets)
    if radius <= 0:
        raise ValueError("target radius must be positive")
    _, theta, phi = cart_to_sph(targets)
    T = series.coeffs.shape[1]
    freqs = rfftfreq(T, d=1.0 / series.sample_rate)
    U = series.max_order
    orders = np.repeat(np.arange(U + 1), 2 * np.arange(U + 1) + 1)  # of each mode row
    ratio = _radial_ratio(U, freqs, series.fit_radius, radius, c)
    translated = irfft(rfft(series.coeffs, axis=1) * ratio[orders], n=T, axis=1)
    return real_sh(U, theta, phi) @ translated


def interpolation_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Energy ratio sum((p - p_hat)^2) / sum(p^2) over all points and samples."""
    if np.shape(truth) != np.shape(estimate) or np.size(truth) == 0:
        raise ValueError("need non-empty signal arrays of one shape")
    den = float(np.sum(np.square(truth)))
    if den == 0.0:
        raise ValueError("truth signals are identically zero")
    err = np.subtract(truth, estimate)
    err *= err
    return float(np.sum(err)) / den


def ratio_to_db(ratio: float | np.ndarray) -> float | np.ndarray:
    """10 log10 of a power ratio or an array of them, floored at -300 dB; float for a scalar."""
    db = 10.0 * np.log10(np.maximum(ratio, 10.0 ** (DB_FLOOR / 10.0)))
    return float(db) if np.ndim(db) == 0 else db
