"""Cooperative positioning for vehicular networks with stationary-vehicle
anchors: scenario generation, GCPSO/EKF localizers, anchor lifecycle policies,
coverage analytics, and a paired-ensemble evaluation harness."""

from .channel import CommZone, NoiseModel
from .coverage import CoverageReport, TransitArea, coverage_report, dsrc_radius
from .harness import (
    Algorithm,
    EnsembleSummary,
    EpisodeResult,
    RunConfig,
    ensemble,
    improvement,
    rmse,
    run_episode,
)
from .localize import (
    EkfParams,
    GcpsoParams,
    LocalizationProblem,
    bilaterate_with_prior,
    cost,
    ekf_predict,
    ekf_update,
    gcpso_localize,
    trilaterate,
)
from .model import (
    MotionKind,
    NodeClass,
    Position2D,
    VehicleRecord,
    Velocity2D,
    distance,
)
from .policy import (
    Candidate,
    Mode,
    PolicyConfig,
    classify_moving,
    classify_stationary,
    dead_reckon,
    priority,
    select_neighbors,
)
from .scenario import ScenarioConfig, gen_circuit, gen_town, parse_trace, serialize_trace

__version__ = "0.1.0"
