"""Job descriptions: the JSON surface of the estimator.

A job names a qubit model and an application (each either a preset name or
an inline object), plus optional knobs: a schedule stretch factor or a
frontier sweep, a custom error-budget split, synthesis constants, a code
distance cap, factory search bounds, and extra code models to consider.

Validation is two-staged: a JSON Schema pass for shape and numeric range
(:mod:`qre.bounds`), then semantic checks (preset existence, perfect-square
lattices, budget arithmetic).
Both stages report :class:`~qre.errors.SchemaError` with a JSON pointer to
the offending node.
"""

import copy
import math
import os
import reprlib
from typing import Any, NamedTuple, NoReturn

from .bounds import BOUNDS, check
from .codes import BUILTIN_CODES, QecCodeModel
from .counting import (
    AlgorithmCounts,
    BudgetSplit,
    LogicalRequirements,
    SynthesisModel,
    application_preset,
    ising_counts,
    logical_counts,
)
from .distillation import SearchBounds
from .errors import ParameterError, SchemaError, UnknownPresetError
from .qubits import PhysicalQubitParams, qubit_preset

DISTANCE_CAP_ENV = "QRE_DMAX"


def _bounded(kind: str, name: str) -> dict:
    """A ``number`` or ``integer`` node taking its range from ``BOUNDS``."""
    minimum, maximum = BOUNDS[name]
    return {"type": kind, "minimum": minimum, "maximum": maximum}


_DURATION = {
    "type": "object",
    "properties": {
        "value": _bounded("number", "duration"),
        "unit": {"enum": ["ns", "us", "ms"]},
    },
    "required": ["value", "unit"],
    "additionalProperties": False,
}

_QUBIT = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "instruction_set": {"enum": ["gate-based", "majorana"]},
        "t_gate": _DURATION,
        "t_meas": _DURATION,
        "p_clifford": _bounded("number", "probability"),
        "p_t": _bounded("number", "probability"),
    },
    "required": ["instruction_set", "t_meas", "p_clifford", "p_t"],
    "additionalProperties": False,
}

_COUNTS = {
    "type": "object",
    "properties": {
        "algorithm_qubits": _bounded("integer", "qubits"),
        "measurements": _bounded("number", "count"),
        "rotations": _bounded("number", "count"),
        "t_gates": _bounded("number", "count"),
        "toffoli_gates": _bounded("number", "count"),
        "rotation_layers": _bounded("number", "count"),
        "error_budget": _bounded("number", "error_budget"),
    },
    "required": ["algorithm_qubits", "error_budget"],
    "additionalProperties": False,
}

_REQUIREMENTS = {
    "type": "object",
    "properties": {
        "logical_qubits": _bounded("integer", "qubits"),
        "min_time_steps": _bounded("number", "time_steps"),
        "t_states": _bounded("number", "count"),
        "error_budget": _bounded("number", "error_budget"),
    },
    "required": ["logical_qubits", "min_time_steps", "t_states", "error_budget"],
    "additionalProperties": False,
}

_ISING = {
    "type": "object",
    "properties": {
        "N": _bounded("integer", "sites"),
        "T": _bounded("integer", "trotter_steps"),
        "M_meas": _bounded("number", "count"),
        "error_budget": _bounded("number", "error_budget"),
    },
    "required": ["N", "T"],
    "additionalProperties": False,
}

_CODE = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "instruction_set": {"enum": ["gate-based", "majorana"]},
        "error_prefactor": _bounded("number", "error_prefactor"),
        "threshold": _bounded("number", "probability"),
        "qubits_per_tile": {
            "type": "object",
            "properties": {
                "quadratic": _bounded("integer", "tile_coefficient"),
                "linear": _bounded("integer", "tile_coefficient"),
                "constant": _bounded("integer", "tile_coefficient"),
            },
            "additionalProperties": False,
        },
        "step_time": {
            "type": "object",
            "properties": {
                "gate_factor": _bounded("integer", "step_factor"),
                "meas_factor": _bounded("integer", "step_factor"),
            },
            "additionalProperties": False,
        },
    },
    "required": ["name", "instruction_set", "error_prefactor", "threshold"],
    "additionalProperties": False,
}

_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "qubit": {"anyOf": [{"type": "string"}, _QUBIT]},
        "application": {
            "anyOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "properties": {
                        "counts": _COUNTS,
                        "requirements": _REQUIREMENTS,
                        "ising": _ISING,
                    },
                    "minProperties": 1,
                    "maxProperties": 1,
                    "additionalProperties": False,
                },
            ]
        },
        "c_factor": _bounded("number", "stretch"),
        "frontier_factors": {"type": "array", "items": _bounded("number", "stretch")},
        "budget_split": {
            "type": "object",
            "properties": {
                "logical": _bounded("number", "budget_share"),
                "distillation": _bounded("number", "budget_share"),
                "synthesis": _bounded("number", "budget_share"),
            },
            "required": ["logical", "distillation", "synthesis"],
            "additionalProperties": False,
        },
        "overrides": {
            "type": "object",
            "properties": {
                "synthesis": {
                    "type": "object",
                    "properties": {
                        "scale": _bounded("number", "synthesis"),
                        "offset": _bounded("number", "synthesis"),
                    },
                    "additionalProperties": False,
                },
                "max_code_distance": _bounded("integer", "code_distance"),
                "factory": {
                    "type": "object",
                    "properties": {
                        "max_rounds": _bounded("integer", "max_rounds"),
                        "min_distance": _bounded("integer", "factory_distance"),
                        "max_distance": _bounded("integer", "factory_distance"),
                        "max_final_copies": _bounded("integer", "max_final_copies"),
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "codes": {"type": "array", "items": _CODE},
    },
    "required": ["qubit", "application"],
    "additionalProperties": False,
}

# The published Ising dynamics workload runs with this end-to-end budget;
# inline ising jobs inherit it unless they say otherwise.
_DEFAULT_ISING_BUDGET = 1e-3


class JobSpec(NamedTuple):
    """A fully resolved job, ready for :func:`qre.report.run`."""

    qubit: PhysicalQubitParams
    requirements: LogicalRequirements
    notes: tuple[str, ...]
    c_factor: float
    frontier_factors: tuple[float, ...] | None
    distance_cap: int | None
    factory_bounds: SearchBounds | None
    codes: tuple[QecCodeModel, ...] | None
    echo: Any


def _pointer(*parts: Any) -> str:
    return "/" + "/".join(str(p) for p in parts) if parts else "/"


# JSON types as Python types; "integer" means a Python int (no 2.0), and
# neither numeric type admits a bool.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}


def _is_type(node: Any, name: str) -> bool:
    return isinstance(node, _TYPES[name]) and not isinstance(node, bool)


def _schema_pass(node: Any, schema: dict = _SCHEMA, *path: Any) -> None:
    """Raise the first violation of ``schema`` in document order, checking a
    node before its children. Only the keywords ``_SCHEMA`` uses are known;
    ``anyOf`` follows the one branch whose ``type`` matches. Every numeric
    node has both ``minimum`` and ``maximum``, and the range test fails NaN
    and the infinities. The walk descends only into known keys."""

    def fail(message: str) -> NoReturn:
        raise SchemaError(message, _pointer(*path))

    if "anyOf" in schema:
        branches = [s for s in schema["anyOf"] if _is_type(node, s["type"])]
        if not branches:
            fail(f"{reprlib.repr(node)} is not valid under any of the given schemas")
        schema = branches[0]
    if "type" in schema and not _is_type(node, schema["type"]):
        fail(f"{reprlib.repr(node)} is not of type {schema['type']!r}")
    if "enum" in schema and node not in schema["enum"]:
        fail(f"{reprlib.repr(node)} is not one of {schema['enum']!r}")
    if "minimum" in schema:
        lo, hi = schema["minimum"], schema["maximum"]
        if not lo <= node <= hi:
            fail(f"expected a finite number in [{lo:.16g}, {hi:.16g}], got {reprlib.repr(node)}")
    if isinstance(node, list):
        for index, item in enumerate(node):
            _schema_pass(item, schema["items"], *path, index)
    if not isinstance(node, dict):
        return
    properties = schema.get("properties", {})
    for key in schema.get("required", ()):
        if key not in node:
            fail(f"{key!r} is a required property")
    extra = [key for key in node if key not in properties]
    if extra and schema.get("additionalProperties") is False:
        fail(f"Additional properties are not allowed ({extra[0]!r} was unexpected)")
    if not schema.get("minProperties", 0) <= len(node) <= schema.get("maxProperties", len(node)):
        fail(f"{reprlib.repr(node)} has {len(node)} properties, outside the allowed range")
    for key, value in node.items():
        if key in properties:
            _schema_pass(value, properties[key], *path, key)


def _resolve_qubit(spec: Any) -> PhysicalQubitParams:
    if isinstance(spec, str):
        try:
            return qubit_preset(spec)
        except UnknownPresetError as exc:
            raise SchemaError(str(exc), "/qubit") from None
    try:
        return PhysicalQubitParams.from_json(spec)
    except ParameterError as exc:
        raise SchemaError(str(exc), "/qubit") from None


def _resolve_codes(spec: Any) -> tuple[QecCodeModel, ...] | None:
    if spec is None:
        return None
    extra = []
    for index, entry in enumerate(spec):
        try:
            extra.append(QecCodeModel.from_json(entry))
        except ParameterError as exc:
            raise SchemaError(str(exc), _pointer("codes", index)) from None
    return BUILTIN_CODES + tuple(extra)


def _resolve_application(
    spec: Any,
    split: BudgetSplit | None,
    synthesis: SynthesisModel,
) -> tuple[LogicalRequirements, tuple[str, ...]]:
    if isinstance(spec, str):
        try:
            preset = application_preset(spec)
        except UnknownPresetError as exc:
            raise SchemaError(str(exc), "/application") from None
        return preset.resolve(split, synthesis), preset.notes
    if "counts" in spec:
        try:
            reqs = logical_counts(AlgorithmCounts.from_json(spec["counts"]), split, synthesis)
        except ParameterError as exc:
            raise SchemaError(str(exc), "/application/counts") from None
        return reqs, ()
    if "requirements" in spec:
        raw = spec["requirements"]
        use = split if split is not None else BudgetSplit()
        try:
            reqs = LogicalRequirements(**raw, **use.parts(raw["error_budget"]))
        except ParameterError as exc:
            raise SchemaError(str(exc), "/application/requirements") from None
        return reqs, ()
    raw = spec["ising"]
    sites = raw["N"]
    if math.isqrt(sites) ** 2 != sites:
        raise SchemaError(
            "lattice sites must be a perfect square", "/application/ising/N"
        )
    try:
        counts = ising_counts(
            sites,
            raw["T"],
            raw.get("error_budget", _DEFAULT_ISING_BUDGET),
            raw.get("M_meas"),
        )
        reqs = logical_counts(counts, split, synthesis)
    except ParameterError as exc:
        raise SchemaError(str(exc), "/application/ising") from None
    return reqs, ()


def _resolve_distance_cap(overrides: dict) -> int | None:
    if "max_code_distance" in overrides:
        return overrides["max_code_distance"]
    raw = os.environ.get(DISTANCE_CAP_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ParameterError(f"{DISTANCE_CAP_ENV} must be an integer, got {raw!r}") from None
    check("code_distance", cap, DISTANCE_CAP_ENV)
    return cap


def parse_job(obj: Any) -> JobSpec:
    """Validate a job object and resolve every reference in it.

    Raises :class:`SchemaError` for anything a user could write wrong, with
    a JSON pointer locating the problem.
    """
    _schema_pass(obj)

    # The schema pass fixed every object's keys, so they map onto fields.
    overrides = obj.get("overrides", {})
    synthesis = SynthesisModel(**overrides.get("synthesis", {}))

    split: BudgetSplit | None = None
    if "budget_split" in obj:
        try:
            split = BudgetSplit(**obj["budget_split"])
        except ParameterError as exc:
            raise SchemaError(str(exc), "/budget_split") from None

    qubit = _resolve_qubit(obj["qubit"])
    requirements, notes = _resolve_application(
        obj["application"], split, synthesis
    )
    codes = _resolve_codes(obj.get("codes"))

    factory_bounds = None
    if "factory" in overrides:
        try:
            factory_bounds = SearchBounds(**overrides["factory"])
        except ParameterError as exc:
            raise SchemaError(str(exc), "/overrides/factory") from None

    frontier_factors = None
    if "frontier_factors" in obj:
        frontier_factors = tuple(float(f) for f in obj["frontier_factors"])

    return JobSpec(
        qubit=qubit,
        requirements=requirements,
        notes=notes,
        c_factor=float(obj.get("c_factor", 1.0)),
        frontier_factors=frontier_factors,
        distance_cap=_resolve_distance_cap(overrides),
        factory_bounds=factory_bounds,
        codes=codes,
        echo=copy.deepcopy(obj),
    )
