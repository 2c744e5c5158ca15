"""Physical resource estimation for fault-tolerant quantum programs.

Given the logical footprint of an algorithm (qubit, operation, and T-state
counts with an error budget) and a hardware model (primitive times and
error rates), this package computes what a fault-tolerant run needs:
physical qubits, wall-clock time, an error-correcting code distance, and a
T-state distillation factory layout. Stretching the schedule trades time
for space; :func:`frontier` exposes that tradeoff.
"""

from ._version import __version__
from .codes import (
    BUILTIN_CODES,
    DEFAULT_DISTANCE_CAP,
    HASTINGS_HAAH,
    SURFACE_GATE,
    SURFACE_MEAS,
    LogicalPatch,
    QecCodeModel,
    patch,
    required_distance,
    select_code,
)
from .counting import (
    AlgorithmCounts,
    ApplicationPreset,
    BudgetSplit,
    LogicalRequirements,
    SynthesisModel,
    application_preset,
    application_preset_names,
    ising_counts,
    logical_counts,
    rotation_t_count,
)
from .distillation import (
    DistillationUnitSpec,
    SearchBounds,
    TFactory,
    TFactoryRound,
    UnitKind,
    UnitLevel,
    evaluate_factory,
    search_factory,
    unit_output_error,
)
from .errors import (
    AboveThresholdError,
    DistanceCapError,
    EstimatorError,
    FactoryOutputError,
    NoFactoryError,
    ParameterError,
    SchemaError,
    UnknownPresetError,
    ValidityRangeError,
)
from .estimator import (
    PerfectEstimate,
    PhysicalEstimate,
    estimate,
    frontier,
    perfect_qubit_estimate,
)
from .jobs import JobSpec, parse_job
from .qubits import (
    InstructionSet,
    PhysicalQubitParams,
    qubit_preset,
    qubit_preset_names,
)
from .report import Report, render, run

__all__ = [
    "__version__",
    "AboveThresholdError",
    "AlgorithmCounts",
    "ApplicationPreset",
    "BUILTIN_CODES",
    "BudgetSplit",
    "DEFAULT_DISTANCE_CAP",
    "DistanceCapError",
    "DistillationUnitSpec",
    "EstimatorError",
    "FactoryOutputError",
    "HASTINGS_HAAH",
    "InstructionSet",
    "JobSpec",
    "LogicalPatch",
    "LogicalRequirements",
    "NoFactoryError",
    "ParameterError",
    "PerfectEstimate",
    "PhysicalEstimate",
    "PhysicalQubitParams",
    "QecCodeModel",
    "Report",
    "SURFACE_GATE",
    "SURFACE_MEAS",
    "SchemaError",
    "SearchBounds",
    "SynthesisModel",
    "TFactory",
    "TFactoryRound",
    "UnitKind",
    "UnitLevel",
    "UnknownPresetError",
    "ValidityRangeError",
    "application_preset",
    "application_preset_names",
    "estimate",
    "evaluate_factory",
    "frontier",
    "ising_counts",
    "logical_counts",
    "parse_job",
    "patch",
    "perfect_qubit_estimate",
    "qubit_preset",
    "qubit_preset_names",
    "render",
    "required_distance",
    "rotation_t_count",
    "run",
    "search_factory",
    "select_code",
    "unit_output_error",
]
