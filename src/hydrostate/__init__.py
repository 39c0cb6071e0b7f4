"""Hydraulic network state estimation with interval error limits and a
growing fuzzy min-max anomaly classifier."""

from .errors import (
    EmptyModel,
    HydrostateError,
    NonConvergence,
    ParseError,
    PatternOutOfRange,
    PatternTooWide,
    RankDeficient,
    SchemaError,
    SingularSystem,
    ValidationError,
)
from .errorlimits import (
    IntervalState,
    monte_carlo_containment,
    sensitivity_bound,
    uncertainty_vector,
)
from .estimator import (
    AugmentedSystem,
    EstimateReport,
    Measurement,
    MeasurementSet,
    build_augmented,
    estimate_state,
)
from .fuzzy import (
    Cell,
    ClassificationResult,
    ClassifierModel,
    Pattern,
    classify,
    denormalize,
    membership,
    normalize,
    train,
    violation,
)
from .hydraulics import SolveReport, StateVector, residual, solve_steady_state
from .network import Network, Node, Pipe, incidence_matrices
from .report_io import decode_network as parse_network
from .scenarios import LabeledPattern, MeterSpec, ScenarioSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AugmentedSystem",
    "Cell",
    "ClassificationResult",
    "ClassifierModel",
    "EmptyModel",
    "EstimateReport",
    "HydrostateError",
    "IntervalState",
    "LabeledPattern",
    "Measurement",
    "MeasurementSet",
    "MeterSpec",
    "Network",
    "Node",
    "NonConvergence",
    "ParseError",
    "Pattern",
    "PatternOutOfRange",
    "PatternTooWide",
    "Pipe",
    "RankDeficient",
    "ScenarioSpec",
    "SchemaError",
    "SingularSystem",
    "SolveReport",
    "StateVector",
    "ValidationError",
    "build_augmented",
    "classify",
    "denormalize",
    "estimate_state",
    "generate",
    "incidence_matrices",
    "membership",
    "monte_carlo_containment",
    "normalize",
    "parse_network",
    "residual",
    "sensitivity_bound",
    "solve_steady_state",
    "train",
    "uncertainty_vector",
    "violation",
]
