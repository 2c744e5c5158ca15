"""Physical qubit parameter sets.

A :class:`PhysicalQubitParams` captures everything the estimator needs to
know about the hardware: which primitive instruction set it offers, how long
the primitives take, and how often they fail.
"""

import enum
from typing import Any, NamedTuple

from .bounds import checked
from .errors import ParameterError, UnknownPresetError


class InstructionSet(enum.Enum):
    """Primitive operation model exposed by the hardware.

    Gate-based stacks run one- and two-qubit Clifford gates plus
    measurements; Majorana stacks run joint Pauli measurements only, so
    they have no separate gate time.
    """

    GATE_BASED = "gate-based"
    MAJORANA = "majorana"


@checked
class PhysicalQubitParams(NamedTuple):
    """Hardware-level qubit description.

    Durations are in nanoseconds: a job gives whole ns, and a library
    caller may pass fractional ns. Error rates are probabilities per
    primitive operation: ``p_clifford`` for the Clifford-level primitives
    (gates and measurements alike) and ``p_t`` for a raw T-state preparation.

    ``t_gate`` applies to gate-based instruction sets only; Majorana
    hardware is driven entirely by measurements.
    """

    name: str
    instruction_set: InstructionSet
    t_meas: int
    p_clifford: float
    p_t: float
    t_gate: int | None = None

    field_bounds = {
        "t_meas": "duration",
        "p_clifford": "probability",
        "p_t": "probability",
        "t_gate": "duration",
    }

    def _check(self) -> None:
        if self.instruction_set is InstructionSet.GATE_BASED:
            if self.t_gate is None:
                raise ParameterError(
                    f"qubit {self.name!r}: gate-based instruction set requires t_gate"
                )
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


# Six built-in operating points spanning slow/fast gate-based hardware at two
# fidelity levels, plus two measurement-only (Majorana) points. Columns: name,
# instruction set, t_meas (ns), p_clifford, p_t and, gate-based only, t_gate (ns).
_PRESETS: dict[str, PhysicalQubitParams] = {
    q.name: q
    for q in (
        PhysicalQubitParams("us-e3", InstructionSet.GATE_BASED, 100_000, 1e-3, 1e-6, 100_000),
        PhysicalQubitParams("us-e4", InstructionSet.GATE_BASED, 100_000, 1e-4, 1e-6, 100_000),
        PhysicalQubitParams("ns-e3", InstructionSet.GATE_BASED, 100, 1e-3, 1e-3, 50),
        PhysicalQubitParams("ns-e4", InstructionSet.GATE_BASED, 100, 1e-4, 1e-4, 50),
        PhysicalQubitParams("maj-ns-e4", InstructionSet.MAJORANA, 100, 1e-4, 0.05),
        PhysicalQubitParams("maj-ns-e6", InstructionSet.MAJORANA, 100, 1e-6, 0.01),
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
