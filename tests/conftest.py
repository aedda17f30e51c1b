import json
from pathlib import Path

import pytest

from wavefield_anc.acoustics import propagate_tonal
from wavefield_anc.scenario import default_scenario


def read_summary(path) -> dict:
    """A run's summary.json, parsed strictly: the NaN, Infinity and -Infinity that
    ``json.dumps`` writes for non-finite floats are not JSON, and raise ValueError."""

    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.fixture(scope="session")
def scenario():
    return default_scenario(0)


@pytest.fixture(scope="session")
def mic_signals(scenario):
    """One period (Q, P) of the primary field at the scenario's mics, as training takes it."""
    sc = scenario
    fs, c = sc.sample_rate, sc.speed_of_sound
    return propagate_tonal(sc.primary_source, sc.monitoring_positions, fs, c)
