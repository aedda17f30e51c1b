"""Tonal soundfield simulation, virtual-mic interpolation, and FxLMS control."""

from .acoustics import TonalSource, ToneComponent, make_path_fir, propagate_tonal
from .anc import AncRunReport, run_anc
from .experiments import (
    ExperimentSpec,
    OutputBundle,
    run_anc_convergence,
    run_field_map,
    run_interp_sweep,
    run_validate,
)
from .geometry import ball_points, cart_to_sph, sphere_points
from .pinn import (
    MlpParams,
    NormSpec,
    TrainConfig,
    TrainReport,
    load_params,
    pinn_predict,
    save_params,
    train_pinn,
)
from .scenario import ScenarioConfig, default_scenario
from .sh import ShCoeffSeries, interpolation_error, sh_fit, sh_interpolate

__all__ = [
    "AncRunReport",
    "ExperimentSpec",
    "MlpParams",
    "OutputBundle",
    "NormSpec",
    "ScenarioConfig",
    "ShCoeffSeries",
    "TonalSource",
    "ToneComponent",
    "TrainConfig",
    "TrainReport",
    "ball_points",
    "cart_to_sph",
    "default_scenario",
    "interpolation_error",
    "load_params",
    "make_path_fir",
    "pinn_predict",
    "propagate_tonal",
    "run_anc",
    "run_anc_convergence",
    "run_field_map",
    "run_interp_sweep",
    "run_validate",
    "save_params",
    "sh_fit",
    "sh_interpolate",
    "sphere_points",
    "train_pinn",
]
