"""Cooperative magneto-inductive localization: simulation, estimation, bounds."""

from .channel import (
    CoilParams,
    CoincidentNodes,
    GlobalParams,
    LinkMeasurement,
    add_noise,
    channel_matrix,
    coupling_coefficient,
)
from .config import ConfigError, ExperimentConfig
from .crlb import FisherInfo, SingularFim, assemble_fim, fim_stack, peb, peb_stack
from .estimators import (
    LsProblem,
    StackedSolve,
    StopReason,
    estimate,
    levenberg_marquardt,
    multilaterate,
)
from .geometry import (
    Deployment,
    NotARotation,
    Room,
    euler_to_rotation,
    join_poses,
    rotation_to_euler,
    sample_uniform_rotation,
)
from .harness import (
    CalibrationResult,
    ExperimentResult,
    calibrate_resistance,
    compute_cdf,
    emit_outputs,
    gains_experiment,
    mean_peb_curve,
    run_experiment,
)
from .pairml import ml_distance, pair_ml_estimate
from .scenario import (
    MeasurementSet,
    PackingInfeasible,
    Scheme,
    Topology,
    default_anchors,
    link_set,
    load_topology,
    network_problem,
    sample_topology,
    save_topology,
    synthesize_measurements,
)

__version__ = "0.1.0"
