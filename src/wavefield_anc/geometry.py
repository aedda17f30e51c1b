"""Point sets as (P, 3) arrays in meters: spherical view, Fibonacci spheres, seeded balls."""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
ORIGIN = np.zeros(3)


def as_points(value, name: str) -> np.ndarray:
    """``value`` as a non-empty (n, 3) array of finite coordinates; ValueError naming it otherwise."""
    try:
        pts = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} must be a non-empty list of finite [x, y, z] positions")
    return pts


def distances(points: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Euclidean distance of each of the (P, 3) ``points`` from one (3,) ``origin``."""
    diff = np.atleast_2d(points) - origin
    # row-wise dot products: the same arithmetic as np.linalg.norm of one vector
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


def cart_to_sph(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, theta, phi) of (..., 3) points; theta in [0, pi], phi in [0, 2*pi).

    The origin maps to (0, 0, 0), and points on the z-axis to phi = 0.
    """
    x, y, z = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    r = np.sqrt(x * x + y * y + z * z)  # on NumPy scalars, ** is libm pow, 1 ulp off at times
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(r == 0.0, 0.0, np.arccos(np.clip(z / r, -1.0, 1.0)))
    phi = np.arctan2(y, x) % (2.0 * np.pi)
    phi = np.where(((x == 0.0) & (y == 0.0)) | (phi >= 2.0 * np.pi), 0.0, phi)
    return r, theta, phi


def sphere_points(radius: float, count: int) -> np.ndarray:
    """Deterministic Fibonacci-lattice points on the origin-centred sphere of ``radius``;
    (count, 3)."""
    i = np.arange(count)
    # midpoint offsets keep points away from the poles
    cos_theta = 1.0 - (2.0 * i + 1.0) / count
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    phi = i * GOLDEN_ANGLE
    return np.column_stack(
        [radius * sin_theta * np.cos(phi), radius * sin_theta * np.sin(phi), radius * cos_theta]
    )


def ball_points(radius: float, count: int, seed: int) -> np.ndarray:
    """Seeded uniform points inside the origin-centred closed ball, by rejection from
    the cube; (count, 3).

    Candidates are drawn three coordinates at a time from one stream, and the
    first ``count`` inside the ball are kept in draw order.
    """
    rng = default_rng(seed)
    accepted = np.empty((0, 3))
    while len(accepted) < count:
        # the ball fills pi/6 of the cube; draw about twice what is still missing
        cand = rng.uniform(-radius, radius, size=(4 * (count - len(accepted)) + 16, 3))
        accepted = np.vstack([accepted, cand[distances(cand, ORIGIN) <= radius]])
    return accepted[:count]
