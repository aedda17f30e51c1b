"""Scenario description (sources, sensors, sampling) and its config-file format."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from .acoustics import TonalSource, ToneComponent, path_distances, require_numbers, separations
from .geometry import ORIGIN, as_points, distances

MIC_CORNER = 0.15  # monitoring mics at (+-0.15, +-0.15, +-0.15) m


@dataclass(eq=False)  # array fields: compared by identity, hashable
class ScenarioConfig:
    primary_source: TonalSource
    secondary_positions: np.ndarray  # (L, 3), meters
    monitoring_positions: np.ndarray  # (Q, 3)
    virtual_positions: np.ndarray  # (V, 3), the ears
    speed_of_sound: float = 343.0
    sample_rate: float = 24000.0
    duration: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        require_numbers(self)
        for name in ("secondary_positions", "monitoring_positions", "virtual_positions"):
            setattr(self, name, as_points(getattr(self, name), name))
        if self.speed_of_sound <= 0:
            raise ValueError("speed of sound must be positive")
        mics = np.vstack([self.monitoring_positions, self.virtual_positions])
        gaps = np.linalg.norm(mics[:, None, :] - mics[None, :, :], axis=-1)
        if np.any(gaps[np.triu_indices(len(mics), 1)] < 1e-12):
            raise ValueError("microphone positions must be distinct")
        if self.mic_radius == 0.0:
            raise ValueError("the monitoring mics span no ball: the only one is at the origin")
        self.period_samples  # validates the tone set
        # every path the controller models must fit its FIR, and no receiver is on the primary
        sources, fs, c = self.secondary_positions, self.sample_rate, self.speed_of_sound
        for kind, pts in (("mic", self.monitoring_positions), ("ear", self.virtual_positions)):
            path_distances(sources, pts, fs, c, kinds=("secondary source", kind))
            separations(self.primary_source.position[None], pts, ("primary source", kind))

    @property
    def mic_radius(self) -> float:
        """Largest distance of a monitoring mic from the origin: the radius of the ball whose
        interior the PINN's collocation and restart-scoring points fill."""
        return float(distances(self.monitoring_positions, ORIGIN).max())

    @property
    def period_samples(self) -> int:
        """Samples in one period of the primary source's tones (TonalSource.period_samples,
        which holds the tone-set rule); ValueError naming the tones unless it fits in the
        scenario's duration, which only bounds it."""
        period = self.primary_source.period_samples(self.sample_rate)
        bound = round(self.duration * self.sample_rate)
        if period > bound:
            freqs = [c.frequency for c in self.primary_source.components]
            raise ValueError(
                f"tones {freqs} Hz repeat every {period} samples, more than the scenario's {bound}"
            )
        return period

    def to_dict(self) -> dict:
        return _as_json(self)

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        d = _keys_of(ScenarioConfig, d, "scenario")
        src = _keys_of(TonalSource, d["primary_source"], "primary_source")
        tones = [ToneComponent(**_keys_of(ToneComponent, c, f"primary_source.components[{i}]"))
                 for i, c in enumerate(src["components"])]
        source = TonalSource(**{**src, "components": tuple(tones)})
        return ScenarioConfig(**{**d, "primary_source": source})

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @staticmethod
    def load(path: str | Path) -> "ScenarioConfig":
        return ScenarioConfig.from_dict(json.loads(Path(path).read_text()))


def _as_json(value):
    """``value`` as JSON data: dataclasses as dicts in field order, tuples and arrays as lists."""
    if is_dataclass(value):
        return {f.name: _as_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _keys_of(cls, d: dict, level: str) -> dict:
    """``d``, once it is a dict keyed by the fields of ``cls``; else an error naming ``level``."""
    if not isinstance(d, dict):
        raise TypeError(f"{level} must be a JSON object, got {type(d).__name__}")
    names = [f.name for f in fields(cls)]
    problems = [f"missing key {k!r}" for k in names if k not in d]
    problems += [f"unknown key {k!r}" for k in d if k not in names]
    if problems:
        raise ValueError(f"{level}: {', '.join(problems)}")
    return d


SOURCE_AMPLITUDE = 10.0  # Pa·m per tone; sets the loop gain seen by the fixed-mu controller


def default_scenario(seed: int = 0) -> ScenarioConfig:
    """The reference setup: one 3-tone source, 2 secondaries, 8 corner mics, 2 ears.

    Tone phases are drawn uniformly in [0, 2*pi) from the scenario seed.
    """
    rng = default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    source = TonalSource(
        position=(0.6, 0.8, 1.0),
        components=tuple(
            ToneComponent(f, SOURCE_AMPLITUDE, float(ph))
            for f, ph in zip((300.0, 400.0, 500.0), phases)
        ),
    )
    corners = [
        (sx * MIC_CORNER, sy * MIC_CORNER, sz * MIC_CORNER)
        for sx in (-1, 1)
        for sy in (-1, 1)
        for sz in (-1, 1)
    ]
    return ScenarioConfig(
        primary_source=source,
        secondary_positions=[(0.0, 0.5, 0.0), (0.0, -0.5, 0.0)],
        monitoring_positions=corners,
        virtual_positions=[(0.0, 0.1, 0.0), (0.0, -0.1, 0.0)],
        rng_seed=seed,
    )
