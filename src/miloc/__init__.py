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
from .crlb import FisherInfo, SingularFim, assemble_fim, peb, peb_all
from .estimators import (
    LsProblem,
    MultilaterationResult,
    SolveReport,
    StackedSolve,
    estimate,
    levenberg_marquardt,
    multilaterate,
    pack_deployments,
    unpack_parameters,
)
from .geometry import (
    Deployment,
    NotARotation,
    Room,
    euler_to_rotation,
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
from .pairml import (
    PairMlResult,
    PositionValidity,
    SvdTriple,
    decompose_link,
    direction_estimate,
    ml_distance,
    pair_ml_estimate,
    resolve_position,
)
from .scenario import (
    MeasurementSet,
    PackingInfeasible,
    Scheme,
    Topology,
    default_anchors,
    link_set,
    load_topology,
    sample_topology,
    save_topology,
    synthesize_measurements,
)

__version__ = "0.1.0"
