"""Physical qubit parameter sets.

A :class:`PhysicalQubitParams` captures everything the estimator needs to
know about the hardware: which primitive instruction set it offers, how long
the primitives take, and how often they fail.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

from .bounds import check, checked
from .errors import ParameterError, UnknownPresetError

NS_PER_UNIT = {"ns": 1, "us": 1_000, "ms": 1_000_000}


class InstructionSet(enum.Enum):
    """Primitive operation model exposed by the hardware.

    Gate-based stacks run one- and two-qubit Clifford gates plus
    measurements; Majorana stacks run joint Pauli measurements only, so
    they have no separate gate time.
    """

    GATE_BASED = "gate-based"
    MAJORANA = "majorana"


def _duration_to_ns(obj: Any, where: str) -> int:
    if not isinstance(obj, dict) or set(obj) != {"value", "unit"}:
        raise ParameterError(f"{where}: durations are objects with 'value' and 'unit'")
    unit = obj["unit"]
    if unit not in NS_PER_UNIT:
        raise ParameterError(f"{where}: unknown time unit {unit!r}")
    value = obj["value"]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterError(f"{where}: duration value must be a number")
    check("duration", value, f"{where} value")
    ns = value * NS_PER_UNIT[unit]
    if ns != int(ns):
        raise ParameterError(f"{where}: duration must be a whole number of nanoseconds")
    return int(ns)


@checked
class PhysicalQubitParams(NamedTuple):
    """Hardware-level qubit description.

    Durations are integer nanoseconds. Error rates are probabilities per
    primitive operation: ``p_clifford`` for the Clifford-level primitives
    (gates and measurements alike) and ``p_t`` for a raw T-state
    preparation.

    ``t_gate`` applies to gate-based instruction sets only; Majorana
    hardware is driven entirely by measurements.
    """

    name: str
    instruction_set: InstructionSet
    t_meas: int
    p_clifford: float
    p_t: float
    t_gate: int | None = None

    def _check(self) -> None:
        """Raise :class:`ParameterError` unless the parameters are usable."""
        for label, p in (("p_clifford", self.p_clifford), ("p_t", self.p_t)):
            if not 0.0 < p < 1.0:
                raise ParameterError(
                    f"qubit {self.name!r}: probability out of range ({label}={p!r})"
                )
        if self.t_meas <= 0:
            raise ParameterError(f"qubit {self.name!r}: non-positive duration (t_meas)")
        check("duration", self.t_meas, f"qubit {self.name!r}: t_meas in ns")
        if self.instruction_set is InstructionSet.GATE_BASED:
            if self.t_gate is None:
                raise ParameterError(
                    f"qubit {self.name!r}: gate-based instruction set requires t_gate"
                )
            if self.t_gate <= 0:
                raise ParameterError(f"qubit {self.name!r}: non-positive duration (t_gate)")
            check("duration", self.t_gate, f"qubit {self.name!r}: t_gate in ns")
        elif self.t_gate is not None:
            raise ParameterError(
                f"qubit {self.name!r}: t_gate is only meaningful for gate-based hardware"
            )

    def to_json(self) -> dict[str, Any]:
        """Serialize to the job-file shape (durations as value/unit objects)."""
        obj: dict[str, Any] = {
            "name": self.name,
            "instruction_set": self.instruction_set.value,
            "t_meas": {"value": self.t_meas, "unit": "ns"},
            "p_clifford": self.p_clifford,
            "p_t": self.p_t,
        }
        if self.t_gate is not None:
            obj["t_gate"] = {"value": self.t_gate, "unit": "ns"}
        return obj

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "PhysicalQubitParams":
        """Build a parameter set from its JSON form."""
        if not isinstance(obj, dict):
            raise ParameterError("qubit description must be an object")
        try:
            isa = InstructionSet(obj["instruction_set"])
        except (KeyError, ValueError):
            valid = ", ".join(m.value for m in InstructionSet)
            raise ParameterError(f"qubit instruction_set must be one of: {valid}") from None
        name = obj.get("name", "custom")
        t_gate = None
        if "t_gate" in obj:
            t_gate = _duration_to_ns(obj["t_gate"], f"qubit {name!r} t_gate")
        if "t_meas" not in obj:
            raise ParameterError(f"qubit {name!r}: t_meas is required")
        return cls(
            name=name,
            instruction_set=isa,
            t_meas=_duration_to_ns(obj["t_meas"], f"qubit {name!r} t_meas"),
            p_clifford=obj.get("p_clifford", 0.0),
            p_t=obj.get("p_t", 0.0),
            t_gate=t_gate,
        )


def _gate_based(name: str, t_gate: int, t_meas: int, p: float, p_t: float) -> PhysicalQubitParams:
    return PhysicalQubitParams(
        name=name,
        instruction_set=InstructionSet.GATE_BASED,
        t_meas=t_meas,
        p_clifford=p,
        p_t=p_t,
        t_gate=t_gate,
    )


def _majorana(name: str, t_meas: int, p: float, p_t: float) -> PhysicalQubitParams:
    return PhysicalQubitParams(
        name=name,
        instruction_set=InstructionSet.MAJORANA,
        t_meas=t_meas,
        p_clifford=p,
        p_t=p_t,
    )


# Six built-in operating points spanning slow/fast gate-based hardware at two
# fidelity levels, plus two measurement-only (Majorana) points.
_PRESETS: dict[str, PhysicalQubitParams] = {
    q.name: q
    for q in (
        _gate_based("us-e3", 100_000, 100_000, 1e-3, 1e-6),
        _gate_based("us-e4", 100_000, 100_000, 1e-4, 1e-6),
        _gate_based("ns-e3", 50, 100, 1e-3, 1e-3),
        _gate_based("ns-e4", 50, 100, 1e-4, 1e-4),
        _majorana("maj-ns-e4", 100, 1e-4, 0.05),
        _majorana("maj-ns-e6", 100, 1e-6, 0.01),
    )
}


def qubit_preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def qubit_preset(name: str) -> PhysicalQubitParams:
    """Return a built-in qubit parameter set by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPresetError("qubit", name, _PRESETS) from None
