"""Beam-compression resonant beam (BCRB) link simulator.

Cavity ray-matrix analysis and stability, Gaussian beam spot radii, the
free-space power budget, and data-branch spectral efficiency, plus boundary
searches and figure dataset generation for the built-in studies.
"""

from .comms import (
    ReceiverParams,
    data_signal,
    shot_noise,
    spectral_efficiency,
    thermal_noise,
    total_noise,
)
from .errors import (
    BeamSimError,
    InfeasibleSearchError,
    InvalidElementError,
    NoStableRegionError,
    ScenarioError,
    SingularConfigurationError,
    UnstableCavityError,
)
from .gaussian_beam import SpotRadii, cavity_spot_radii, mirror_spot_radii, propagate_spot
from .link_budget import LinkBudgetParams, beam_power, effective_aperture, pv_output, transmission_loss
from .ray_matrix import (
    CavityGeometry,
    RayVector,
    TransferMatrix,
    apply,
    is_stable,
    round_trip_bcrb,
    round_trip_closed_form,
    round_trip_original,
)
from .scenario import ModelChoices, Scenario, default_scenario, load_scenario, save_scenario
from .sweep_search import (
    FigureDataset,
    SweepSpec,
    calibrate_loss_scale,
    generate_figure,
    max_spot_over_range,
    max_stable_distance,
    operating_point,
    required_rho2,
    resolve_link_params,
    run_sweep,
    stability_bands,
)

__version__ = "0.1.0"
