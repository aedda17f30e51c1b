import pytest

from wavefield_anc.acoustics import propagate_tonal
from wavefield_anc.pinn import TrainConfig, train_pinn
from wavefield_anc.scenario import default_scenario


@pytest.fixture(scope="session")
def scenario():
    return default_scenario(0)


@pytest.fixture(scope="session")
def mic_signals(scenario):
    sc = scenario
    fs, c = sc.sample_rate, sc.speed_of_sound
    return propagate_tonal(sc.primary_source, sc.monitoring_positions, fs, sc.num_samples, c)


@pytest.fixture(scope="session")
def trained(scenario, mic_signals):
    """Full desk-scale training run, shared across the acceptance tests."""
    params, report = train_pinn(scenario, mic_signals, TrainConfig())
    return params, report
