"""Job descriptions: the JSON surface of the estimator.

A job names a qubit model and an application (each either a preset name or
an inline object), plus optional knobs: a schedule stretch factor or a
frontier sweep, a custom error-budget split, synthesis constants, a code
distance cap, factory search bounds, and extra code models to consider.

Validation is two-staged: a JSON Schema pass for shape and numeric range,
then semantic checks (preset existence, perfect-square lattices, and each
parameter type's own checks as it is built, such as the budget split's sum).
A type's numeric nodes in the schema come from its ``field_bounds`` map
(:mod:`qre.bounds`).
Both stages report :class:`~qre.errors.SchemaError` with a JSON pointer to
the offending node.
"""

import math
import reprlib
from typing import Any, NamedTuple, NoReturn

from .bounds import BOUNDS
from .codes import BUILTIN_CODES, DEFAULT_DISTANCE_CAP, QecCodeModel
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
from .qubits import InstructionSet, PhysicalQubitParams, qubit_preset

NS_PER_UNIT = {"ns": 1, "us": 1_000, "ms": 1_000_000}


def _bounded(kind: str, name: str) -> dict:
    """A ``number`` or ``integer`` node taking its range from ``BOUNDS``."""
    minimum, maximum = BOUNDS[name]
    return {"type": kind, "minimum": minimum, "maximum": maximum}


def _numbers(record: type, **narrower: str) -> dict:
    """Nodes for every numeric field of a parameter type: ``integer`` where
    the field is annotated ``int``, bounded by the kind in the type's
    ``field_bounds`` or by a ``narrower`` kind."""
    kinds = {**record.field_bounds, **narrower}
    types = {field: "integer" if t is int else "number" for field, t in record.__annotations__.items()}
    return {field: _bounded(types[field], kinds[field]) for field in kinds}


def _object(properties: dict, *required: str, **keywords: Any) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
        **keywords,
    }


_INSTRUCTION_SET = {"enum": [isa.value for isa in InstructionSet]}
_NAME = {"type": "string"}
# A duration's value is in its unit here and in ns in the type: one kind,
# checked before and after conversion.
_DURATION = _object(
    {
        "value": _bounded("number", PhysicalQubitParams.field_bounds["t_meas"]),
        "unit": {"enum": list(NS_PER_UNIT)},
    },
    "value",
    "unit",
)
_CODE_NUMBERS = _numbers(QecCodeModel)

_SCHEMA = _object(
    {
        "qubit": {
            "anyOf": [
                {"type": "string"},
                _object(
                    {
                        **_numbers(PhysicalQubitParams),
                        "name": _NAME,
                        "instruction_set": _INSTRUCTION_SET,
                        "t_gate": _DURATION,
                        "t_meas": _DURATION,
                    },
                    "instruction_set",
                    "t_meas",
                    "p_clifford",
                    "p_t",
                ),
            ]
        },
        "application": {
            "anyOf": [
                {"type": "string"},
                _object(
                    {
                        "counts": _object(
                            _numbers(AlgorithmCounts), "algorithm_qubits", "error_budget"
                        ),
                        # The job states what counts give; derived values may be larger.
                        "requirements": _object(
                            _numbers(
                                LogicalRequirements,
                                logical_qubits="qubits",
                                min_time_steps="time_steps",
                                t_states="count",
                            ),
                            *LogicalRequirements.field_bounds,
                        ),
                        "ising": _object(
                            {
                                "N": _bounded("integer", "sites"),
                                "T": _bounded("integer", "trotter_steps"),
                                "M_meas": _bounded("number", "count"),
                                "error_budget": _bounded("number", "error_budget"),
                            },
                            "N",
                            "T",
                        ),
                    },
                    minProperties=1,
                    maxProperties=1,
                ),
            ]
        },
        "c_factor": _bounded("number", "stretch"),
        "frontier_factors": {
            "type": "array",
            "items": _bounded("number", "stretch"),
            "minItems": 1,
        },
        "budget_split": _object(_numbers(BudgetSplit), *BudgetSplit._fields),
        "overrides": _object(
            {
                "synthesis": _object(_numbers(SynthesisModel)),
                "max_code_distance": _bounded("integer", "code_distance"),
                "factory": _object(_numbers(SearchBounds)),
            }
        ),
        "codes": {
            "type": "array",
            "items": _object(
                {
                    "name": _NAME,
                    "instruction_set": _INSTRUCTION_SET,
                    "error_prefactor": _CODE_NUMBERS["error_prefactor"],
                    "threshold": _CODE_NUMBERS["threshold"],
                    **{
                        group: _object({key: _CODE_NUMBERS[field] for key, field in fields.items()})
                        for group, fields in QecCodeModel.job_groups.items()
                    },
                },
                "name",
                "instruction_set",
                "error_prefactor",
                "threshold",
            ),
        },
    },
    "qubit",
    "application",
    **{"$schema": "https://json-schema.org/draft/2020-12/schema"},
)

# The published Ising dynamics workload runs with this end-to-end budget;
# inline ising jobs inherit it unless they say otherwise.
_DEFAULT_ISING_BUDGET = 1e-3


class JobSpec(NamedTuple):
    """A fully resolved job, ready for :func:`qre.report.run`. It runs its
    ``frontier_factors`` if given, else its ``c_factor``, else 1.0."""

    qubit: PhysicalQubitParams
    requirements: LogicalRequirements
    notes: tuple[str, ...]
    factors: tuple[float, ...]
    distance_cap: int
    factory_bounds: SearchBounds
    codes: tuple[QecCodeModel, ...]
    echo: Any


def _pointer(*parts: Any) -> str:
    return "/" + "/".join(str(p) for p in parts) if parts else "/"


# JSON types as Python types; "integer" means a Python int (no 2.0), and
# neither numeric type admits a bool.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}


def _is_type(node: Any, name: str) -> bool:
    return isinstance(node, _TYPES[name]) and not isinstance(node, bool)


def _schema_pass(node: Any, schema: dict = _SCHEMA, *path: Any) -> Any:
    """Return a snapshot of ``node``, objects and arrays rebuilt and scalars
    shared, or raise the first violation of ``schema`` in document order,
    checking a node before its children. Only the keywords ``_SCHEMA`` uses
    are known; ``anyOf`` follows the one branch whose ``type`` matches. Every
    numeric node has both bounds, and the range test fails NaN and the
    infinities. Objects forbid unknown keys: the walk meets only known ones."""

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
        if len(node) < schema.get("minItems", 0):
            fail(f"{reprlib.repr(node)} should have at least {schema['minItems']} items")
        return [_schema_pass(item, schema["items"], *path, i) for i, item in enumerate(node)]
    if not isinstance(node, dict):
        return node
    properties = schema["properties"]
    for key in schema["required"]:
        if key not in node:
            fail(f"{key!r} is a required property")
    for key in node:
        if key not in properties:
            fail(f"Additional properties are not allowed ({key!r} was unexpected)")
    if not schema.get("minProperties", 0) <= len(node) <= schema.get("maxProperties", len(node)):
        fail(f"{reprlib.repr(node)} has {len(node)} properties, outside the allowed range")
    return {key: _schema_pass(value, properties[key], *path, key) for key, value in node.items()}


def _ns(duration: dict, where: str) -> int:
    """A job duration in whole nanoseconds: its value must be some integer
    count of ns, written in its unit. Past 2**53 ns, where that conversion
    rounds, every product is whole."""
    scale, value = NS_PER_UNIT[duration["unit"]], duration["value"]
    ns = round(value * scale)
    if ns / scale != value and ns != value * scale:
        raise ParameterError(f"{where}: duration must be a whole number of nanoseconds")
    return ns


def _qubit(spec: dict) -> PhysicalQubitParams:
    fields = {"name": "custom", **spec}
    fields["instruction_set"] = InstructionSet(spec["instruction_set"])
    for key in ("t_gate", "t_meas"):
        if key in spec:
            fields[key] = _ns(spec[key], f"qubit {fields['name']!r} {key}")
    return PhysicalQubitParams(**fields)


def _code(spec: dict) -> QecCodeModel:
    """Flatten a code's nested job objects into its fields; left-out
    coefficients and factors are zero."""
    groups = QecCodeModel.job_groups
    fields = {key: value for key, value in spec.items() if key not in groups}
    fields["instruction_set"] = InstructionSet(spec["instruction_set"])
    for group, names in groups.items():
        given = spec.get(group, {})
        fields.update({field: given.get(key, 0) for key, field in names.items()})
    return QecCodeModel(**fields)


def _at(pointer: str, build: Any, *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, its parameter or preset errors reported at ``pointer``."""
    try:
        return build(*args, **kwargs)
    except (ParameterError, UnknownPresetError) as exc:
        raise SchemaError(str(exc), pointer) from None


# Counts a job leaves out are zero; the schema requires the other two fields.
_NO_COUNTS = dict.fromkeys(AlgorithmCounts._fields, 0)


def _resolve_application(
    spec: Any,
    split: BudgetSplit,
    synthesis: SynthesisModel,
) -> tuple[LogicalRequirements, tuple[str, ...]]:
    if isinstance(spec, str):
        preset = _at("/application", application_preset, spec)
        return preset.resolve(split, synthesis), preset.notes
    if "counts" in spec:
        counts = _at("/application/counts", AlgorithmCounts, **{**_NO_COUNTS, **spec["counts"]})
        return _at("/application/counts", logical_counts, counts, split, synthesis), ()
    if "requirements" in spec:
        raw = spec["requirements"]
        return _at("/application/requirements", LogicalRequirements, **raw, split=split), ()
    raw = spec["ising"]
    if math.isqrt(raw["N"]) ** 2 != raw["N"]:
        raise SchemaError("lattice sites must be a perfect square", "/application/ising/N")
    budget = raw.get("error_budget", _DEFAULT_ISING_BUDGET)
    counts = _at("/application/ising", ising_counts, raw["N"], raw["T"], budget, raw.get("M_meas"))
    return _at("/application/ising", logical_counts, counts, split, synthesis), ()


def parse_job(obj: Any) -> JobSpec:
    """Validate a job object and resolve every reference in it. The result
    depends on ``obj`` alone. Every field, and the echo, is built from the
    schema pass's one snapshot of it.

    Raises :class:`SchemaError` for anything a user could write wrong, with
    a JSON pointer locating the problem.
    """
    job = _schema_pass(obj)

    # The schema pass fixed every object's keys, so they map onto fields.
    overrides = job.get("overrides", {})
    synthesis = SynthesisModel(**overrides.get("synthesis", {}))
    split = _at("/budget_split", BudgetSplit, **job.get("budget_split", {}))
    spec = job["qubit"]
    qubit = _at("/qubit", qubit_preset if isinstance(spec, str) else _qubit, spec)
    requirements, notes = _resolve_application(job["application"], split, synthesis)
    codes = BUILTIN_CODES + tuple(
        _at(_pointer("codes", i), _code, code) for i, code in enumerate(job.get("codes", ()))
    )
    factory_bounds = _at("/overrides/factory", SearchBounds, **overrides.get("factory", {}))
    factors = job.get("frontier_factors", [job.get("c_factor", 1.0)])

    return JobSpec(
        qubit=qubit,
        requirements=requirements,
        notes=notes,
        factors=tuple(float(f) for f in factors),
        distance_cap=overrides.get("max_code_distance", DEFAULT_DISTANCE_CAP),
        factory_bounds=factory_bounds,
        codes=codes,
        echo=job,
    )
