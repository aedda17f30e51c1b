"""The config-file format: each dataclass's fields are its keys and its number rule."""

import dataclasses
import functools
import json
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavefield_anc.acoustics import TonalSource, ToneComponent
from wavefield_anc.cli import main
from wavefield_anc.pinn import TrainConfig
from wavefield_anc.scenario import ScenarioConfig, default_scenario


def moved(points, draw):
    """``points`` each moved by up to 1 cm along each axis."""
    return points + draw(arrays(np.float64, np.shape(points), elements=st.floats(-0.01, 0.01)))


@st.composite
def loadable_configs(draw):
    """default_scenario(0) with 1-4 distinct tones at multiples of 10 Hz below Nyquist (so
    the period, at most 2 400 samples, fits the 0.1 s duration), any phases and rng_seed,
    amplitudes up to 1e6 with the first at least 1e-3 (so every mic and ear hears the
    source), and every position moved by up to 1 cm."""
    sc = default_scenario(0)
    freqs = draw(st.lists(st.integers(1, 1199), min_size=1, max_size=4, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    tones = tuple(ToneComponent(10.0 * f, draw(st.floats(1e-3 if i == 0 else 0.0, 1e6)),
                                draw(finite))
                  for i, f in enumerate(freqs))
    source = TonalSource(moved(sc.primary_source.position, draw), tones)
    return dataclasses.replace(
        sc,
        primary_source=source,
        secondary_positions=moved(sc.secondary_positions, draw),
        monitoring_positions=moved(sc.monitoring_positions, draw),
        virtual_positions=moved(sc.virtual_positions, draw),
        rng_seed=draw(st.integers(-(2**63), 2**64)),
    )


@settings(max_examples=60, deadline=None)
@given(sc=loadable_configs())
def test_a_saved_config_loads_to_itself(tmp_path_factory, sc):
    path = tmp_path_factory.mktemp("config") / "scenario.json"
    sc.save(path)
    loaded = ScenarioConfig.load(path)
    assert loaded.to_dict() == sc.to_dict()
    saved = path.read_bytes()
    loaded.save(path)
    assert path.read_bytes() == saved


@pytest.mark.parametrize("amplitude", [0.0, 1e-200])
def test_a_scenario_whose_primary_is_silent_is_rejected(amplitude):
    """Built in Python too: at 1e-200 the pressure squares to 0."""
    sc = default_scenario(0)
    tones = tuple(dataclasses.replace(t, amplitude=amplitude) for t in sc.primary_source.components)
    with pytest.raises(ValueError, match=r"the primary source is silent at mic 0 at \[-0\.15, "):
        dataclasses.replace(sc, primary_source=TonalSource(sc.primary_source.position, tones))


def test_the_keys_are_the_fields_in_field_order():
    d = default_scenario(0).to_dict()
    tone = d["primary_source"]["components"][0]
    for keys, cls in ((d, ScenarioConfig), (d["primary_source"], TonalSource),
                      (tone, ToneComponent)):
        assert list(keys) == [f.name for f in dataclasses.fields(cls)]


TONES = ("primary_source", "components")


@pytest.mark.parametrize(
    "level, drop, add, message",
    [
        ((), "duration", None, "scenario: missing key 'duration'"),
        ((), None, "sample_rate_hz", "scenario: unknown key 'sample_rate_hz'"),
        (("primary_source",), "position", None, "primary_source: missing key 'position'"),
        (("primary_source",), None, "gain", "primary_source: unknown key 'gain'"),
        ((*TONES, 1), "phase", None, "primary_source.components[1]: missing key 'phase'"),
        ((*TONES, 0), None, "phse", "primary_source.components[0]: unknown key 'phse'"),
        ((*TONES, 2), "frequency", "freq",
         "primary_source.components[2]: missing key 'frequency', unknown key 'freq'"),
    ],
    ids=["top-missing", "top-unknown", "source-missing", "source-unknown", "tone-missing",
         "tone-unknown", "tone-renamed"],
)
def test_a_missing_or_unknown_key_is_exit_2_naming_its_level(
    tmp_path, capsys, level, drop, add, message
):
    """A key the format does not have is not dropped: a config with "sample_rate_hz" would
    otherwise run at the default 24 kHz."""
    d = default_scenario(0).to_dict()
    keys = functools.reduce(operator.getitem, level, d)
    if drop is not None:
        del keys[drop]
    if add is not None:
        keys[add] = 48000
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["anc-convergence", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_level_that_is_not_an_object_is_exit_2_naming_it(tmp_path, capsys):
    d = default_scenario(0).to_dict()
    d["primary_source"] = d["primary_source"]["position"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["anc-convergence", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: primary_source must be a JSON object, got list\n"


def checked_numbers(cls, base):
    """{field: noun} of the fields of ``cls`` that the number rule checks: those that, set to
    a string on ``base``, raise its TypeError."""
    checked = {}
    for field in dataclasses.fields(cls):
        try:
            dataclasses.replace(base, **{field.name: "x"})
        except (AttributeError, TypeError, ValueError) as exc:
            match = re.fullmatch(f"{field.name} must be (a number|an integer), got str 'x'",
                                 str(exc))
            if match:
                checked[field.name] = match[1]
    return checked


def test_the_number_rule_checks_each_float_and_int_field():
    sc = default_scenario(0)
    assert checked_numbers(ToneComponent, sc.primary_source.components[0]) == {
        "frequency": "a number", "amplitude": "a number", "phase": "a number"}
    assert checked_numbers(ScenarioConfig, sc) == {
        "speed_of_sound": "a number", "sample_rate": "a number", "duration": "a number",
        "rng_seed": "an integer"}
    assert checked_numbers(TrainConfig, TrainConfig()) == {
        "epochs": "an integer", "restarts": "an integer", "seed": "an integer"}
