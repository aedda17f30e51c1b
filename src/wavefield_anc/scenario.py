"""Scenario description (sources, sensors, sampling) and its config-file format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acoustics import TonalSource, ToneComponent
from .geometry import as_points

MIC_CORNER = 0.15  # monitoring mics at (+-0.15, +-0.15, +-0.15) m
MIC_RADIUS = np.sqrt(3.0) * MIC_CORNER  # 0.2598 m; the nominal "0.26 m" sphere


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
        for name in ("secondary_positions", "monitoring_positions", "virtual_positions"):
            setattr(self, name, as_points(getattr(self, name), name))
        if self.speed_of_sound <= 0:
            raise ValueError("speed of sound must be positive")
        mics = np.vstack([self.monitoring_positions, self.virtual_positions])
        gaps = np.linalg.norm(mics[:, None, :] - mics[None, :, :], axis=-1)
        if np.any(gaps[np.triu_indices(len(mics), 1)] < 1e-12):
            raise ValueError("microphone positions must be distinct")
        self.period_samples  # validates the tone set

    @property
    def num_samples(self) -> int:
        return round(self.duration * self.sample_rate)

    @property
    def period_samples(self) -> int:
        """Samples in one period of the sampled tone set, sample_rate / gcd(sample_rate, tones):
        the fewest samples that hold a whole number of cycles of every tone.

        ValueError naming the tones unless they are below Nyquist, they and the sample
        rate are whole hertz, and the period fits in the scenario.
        """
        freqs = [c.frequency for c in self.primary_source.components]
        fs = self.sample_rate
        if max(freqs) >= fs / 2.0:
            raise ValueError(f"tones {freqs} Hz: {max(freqs)} Hz is at or above Nyquist")
        whole = [max(round(f), 1) for f in [fs, *freqs]]
        if any(abs(f - w) > 1e-9 for f, w in zip([fs, *freqs], whole)):
            raise ValueError(f"tones {freqs} Hz and sample rate {fs} Hz must be whole hertz")
        period = whole[0] // math.gcd(*whole)
        if period > self.num_samples:
            raise ValueError(
                f"tones {freqs} Hz repeat every {period} samples, "
                f"more than the scenario's {self.num_samples}"
            )
        return period

    def to_dict(self) -> dict:
        return {
            "primary_source": {
                "position": self.primary_source.position.tolist(),
                "components": [
                    {"frequency": c.frequency, "amplitude": c.amplitude, "phase": c.phase}
                    for c in self.primary_source.components
                ],
            },
            "secondary_positions": self.secondary_positions.tolist(),
            "monitoring_positions": self.monitoring_positions.tolist(),
            "virtual_positions": self.virtual_positions.tolist(),
            "speed_of_sound": self.speed_of_sound,
            "sample_rate": self.sample_rate,
            "duration": self.duration,
            "rng_seed": self.rng_seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        src = d["primary_source"]
        source = TonalSource(
            position=src["position"],
            components=tuple(
                ToneComponent(c["frequency"], c["amplitude"], c["phase"])
                for c in src["components"]
            ),
        )
        return ScenarioConfig(
            primary_source=source,
            secondary_positions=d["secondary_positions"],
            monitoring_positions=d["monitoring_positions"],
            virtual_positions=d["virtual_positions"],
            speed_of_sound=d["speed_of_sound"],
            sample_rate=d["sample_rate"],
            duration=d["duration"],
            rng_seed=d["rng_seed"],
        )

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @staticmethod
    def load(path: str | Path) -> "ScenarioConfig":
        return ScenarioConfig.from_dict(json.loads(Path(path).read_text()))


SOURCE_AMPLITUDE = 10.0  # Pa·m per tone; sets the loop gain seen by the fixed-mu controller


def default_scenario(seed: int = 0) -> ScenarioConfig:
    """The reference setup: one 3-tone source, 2 secondaries, 8 corner mics, 2 ears.

    Tone phases are drawn uniformly in [0, 2*pi) from the scenario seed.
    """
    rng = np.random.default_rng(seed)
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
