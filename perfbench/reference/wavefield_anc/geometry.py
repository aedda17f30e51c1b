"""Cartesian/spherical points and deterministic point sets on spheres and balls."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


@dataclass(frozen=True)
class Point3:
    """Position in meters, Cartesian storage with a spherical view."""

    x: float
    y: float
    z: float

    @property
    def r(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))

    @property
    def theta(self) -> float:
        """Polar angle in [0, pi]; 0 for the origin by convention."""
        r = self.r
        if r == 0.0:
            return 0.0
        return float(np.arccos(np.clip(self.z / r, -1.0, 1.0)))

    @property
    def phi(self) -> float:
        """Azimuth wrapped to [0, 2*pi)."""
        if self.x == 0.0 and self.y == 0.0:
            return 0.0
        wrapped = float(np.arctan2(self.y, self.x) % (2.0 * np.pi))
        return 0.0 if wrapped >= 2.0 * np.pi else wrapped

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def distance_to(self, other: "Point3") -> float:
        return float(np.linalg.norm(self.as_array() - other.as_array()))

    @staticmethod
    def from_spherical(r: float, theta: float, phi: float) -> "Point3":
        st = np.sin(theta)
        return Point3(r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta))


def cart_to_sph(p: Point3) -> tuple[float, float, float]:
    """(r, theta, phi) view of a point; the origin maps to (0, 0, 0)."""
    return p.r, p.theta, p.phi


def sphere_points(radius: float, count: int, center: Point3 = Point3(0, 0, 0)) -> list[Point3]:
    """Deterministic Fibonacci-lattice points on a sphere.

    All points sit at exactly ``radius`` from ``center``; count=1 degenerates
    to the north pole.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return [Point3(center.x, center.y, center.z + radius)]
    i = np.arange(count)
    # midpoint offsets keep points away from the poles
    cos_theta = 1.0 - (2.0 * i + 1.0) / count
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    phi = i * GOLDEN_ANGLE
    xs = center.x + radius * sin_theta * np.cos(phi)
    ys = center.y + radius * sin_theta * np.sin(phi)
    zs = center.z + radius * cos_theta
    return [Point3(float(x), float(y), float(z)) for x, y, z in zip(xs, ys, zs)]


def ball_points(
    radius: float, count: int, center: Point3 = Point3(0, 0, 0), seed: int = 0
) -> list[Point3]:
    """Seeded uniform points inside the closed ball, by rejection from the cube."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    pts: list[Point3] = []
    while len(pts) < count:
        cand = rng.uniform(-radius, radius, size=3)
        if np.linalg.norm(cand) <= radius:
            pts.append(Point3(center.x + cand[0], center.y + cand[1], center.z + cand[2]))
    return pts
