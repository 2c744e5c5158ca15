"""Error-correcting code scaling models and logical patch selection.

Each :class:`QecCodeModel` reduces a code family to three ingredients:

* an exponential logical error model
  ``P(d) = a * (p / p_threshold) ** ((d + 1) / 2)`` per patch per step,
* a tile footprint polynomial ``n(d)`` in physical qubits, and
* a logical step time ``tau(d)`` linear in the hardware primitive times.

Distances are odd and at least 3 throughout. The inversion of the error
model picks the smallest distance meeting a target, and
:func:`select_code` ranks compatible codes by spacetime footprint per
patch-step, ``n(d) * tau(d)``.
"""

import math
from typing import NamedTuple

from .bounds import checked
from .errors import AboveThresholdError, DistanceCapError, ParameterError
from .qubits import InstructionSet, PhysicalQubitParams

DEFAULT_DISTANCE_CAP = 51


@checked
class QecCodeModel(NamedTuple):
    """Scaling model for one code family on one instruction set.

    ``tile_quadratic/linear/constant`` give the physical qubits per tile as
    ``q*d**2 + l*d + c``; ``step_gate_factor/step_meas_factor`` give the
    logical step time as ``(g*t_gate + m*t_meas) * d``.
    """

    name: str
    instruction_set: InstructionSet
    error_prefactor: float
    threshold: float
    tile_quadratic: int
    tile_linear: int
    tile_constant: int
    step_gate_factor: int
    step_meas_factor: int

    field_bounds = {
        "error_prefactor": "error_prefactor",
        "threshold": "probability",
        "tile_quadratic": "tile_coefficient",
        "tile_linear": "tile_coefficient",
        "tile_constant": "tile_coefficient",
        "step_gate_factor": "step_factor",
        "step_meas_factor": "step_factor",
    }
    # The code's nested job objects, and the field each of their keys sets.
    job_groups = {
        "qubits_per_tile": {
            "quadratic": "tile_quadratic",
            "linear": "tile_linear",
            "constant": "tile_constant",
        },
        "step_time": {"gate_factor": "step_gate_factor", "meas_factor": "step_meas_factor"},
    }

    def _check(self) -> None:
        if not self.name:
            raise ParameterError("code model needs a name")
        if self.step_gate_factor == 0 and self.step_meas_factor == 0:
            raise ParameterError(f"code {self.name!r}: step time is identically zero")
        if self.step_gate_factor > 0 and self.instruction_set is not InstructionSet.GATE_BASED:
            raise ParameterError(
                f"code {self.name!r}: gate time factor on measurement-only hardware"
            )
        # Strict growth of n(d) over odd d >= 3 reduces to these two checks.
        if self.tile_quadratic < 0 or 16 * self.tile_quadratic + 2 * self.tile_linear <= 0:
            raise ParameterError(f"code {self.name!r}: tile count must grow with distance")
        if self.tile_qubits(3) <= 0:
            raise ParameterError(f"code {self.name!r}: non-positive tile size at d=3")

    def tile_qubits(self, distance: int) -> int:
        """Physical qubits per logical tile at the given distance."""
        d = distance
        return self.tile_quadratic * d * d + self.tile_linear * d + self.tile_constant

    def step_time(self, qubit: PhysicalQubitParams, distance: int) -> int:
        """Logical step duration in nanoseconds."""
        self._check_compatible(qubit)
        # A gate factor implies gate-based hardware, which always has t_gate.
        gate_part = self.step_gate_factor * qubit.t_gate if self.step_gate_factor else 0
        return (gate_part + self.step_meas_factor * qubit.t_meas) * distance

    def logical_error(self, qubit: PhysicalQubitParams, distance: int) -> float:
        """Logical error rate per patch per step at the given distance."""
        ratio = self._suppression_base(qubit)
        return self.error_prefactor * ratio ** ((distance + 1) / 2)

    def _suppression_base(self, qubit: PhysicalQubitParams) -> float:
        self._check_compatible(qubit)
        p = qubit.p_clifford
        if p >= self.threshold:
            raise AboveThresholdError(
                f"qubit {qubit.name!r} is above threshold for code {self.name!r} "
                f"(p={p:g}, threshold={self.threshold:g})"
            )
        return p / self.threshold

    def _check_compatible(self, qubit: PhysicalQubitParams) -> None:
        if qubit.instruction_set is not self.instruction_set:
            raise ParameterError(
                f"instruction set mismatch: code {self.name!r} needs "
                f"{self.instruction_set.value}, qubit {qubit.name!r} is "
                f"{qubit.instruction_set.value}"
            )

    def to_json(self) -> dict:
        flat = self._asdict()
        groups = {
            group: {key: flat.pop(field) for key, field in keys.items()}
            for group, keys in self.job_groups.items()
        }
        return {**flat, "instruction_set": self.instruction_set.value, **groups}


SURFACE_GATE = QecCodeModel(
    name="surface-gate",
    instruction_set=InstructionSet.GATE_BASED,
    error_prefactor=0.03,
    threshold=0.01,
    tile_quadratic=2,
    tile_linear=0,
    tile_constant=0,
    step_gate_factor=4,
    step_meas_factor=2,
)

SURFACE_MEAS = QecCodeModel(
    name="surface-meas",
    instruction_set=InstructionSet.MAJORANA,
    error_prefactor=0.08,
    threshold=0.0015,
    tile_quadratic=2,
    tile_linear=0,
    tile_constant=0,
    step_gate_factor=0,
    step_meas_factor=20,
)

HASTINGS_HAAH = QecCodeModel(
    name="hastings-haah",
    instruction_set=InstructionSet.MAJORANA,
    error_prefactor=0.07,
    threshold=0.01,
    tile_quadratic=4,
    tile_linear=8,
    tile_constant=-8,
    step_gate_factor=0,
    step_meas_factor=3,
)

# Order matters: it is the tie-break of last resort in select_code.
BUILTIN_CODES: tuple[QecCodeModel, ...] = (SURFACE_GATE, SURFACE_MEAS, HASTINGS_HAAH)


@checked
class LogicalPatch(NamedTuple):
    """One logical qubit: a code instantiated at a distance on a hardware model.

    Construction raises when the distance is even or below 3, the
    instruction sets do not match, or the qubit is above the code threshold.
    """

    code: QecCodeModel
    qubit: PhysicalQubitParams
    distance: int

    def _check(self) -> None:
        if self.distance < 3 or self.distance % 2 == 0:
            raise ParameterError(f"distance must be an odd integer >= 3, got {self.distance}")
        self.code._suppression_base(self.qubit)

    @property
    def tile_qubits(self) -> int:
        return self.code.tile_qubits(self.distance)

    @property
    def step_time(self) -> int:
        return self.code.step_time(self.qubit, self.distance)

    @property
    def logical_error(self) -> float:
        return self.code.logical_error(self.qubit, self.distance)


patch = LogicalPatch


def required_distance(
    code: QecCodeModel,
    qubit: PhysicalQubitParams,
    target_error: float,
    distance_cap: int = DEFAULT_DISTANCE_CAP,
) -> int:
    """Smallest odd distance with a per-step logical error at or below target.

    The closed-form inversion of the error model seeds the answer; the
    result is then nudged so minimality holds exactly even when floating
    point rounds the seed the wrong way.
    """
    if not target_error > 0:
        raise ParameterError("target error must be positive")
    ratio = code._suppression_base(qubit)
    if target_error >= code.error_prefactor:
        return 3
    seed = 2 * math.log(code.error_prefactor / target_error) / -math.log(ratio) - 1
    d = max(3, math.ceil(seed)) | 1
    while d > 3 and code.logical_error(qubit, d - 2) <= target_error:
        d -= 2
    while code.logical_error(qubit, d) > target_error:
        d += 2
    if d > distance_cap:
        raise DistanceCapError(
            f"distance cap exceeded: code {code.name!r} needs d={d} for "
            f"target {target_error:.3g} (cap {distance_cap})"
        )
    return d


def select_code(
    qubit: PhysicalQubitParams,
    target_error: float,
    codes: tuple[QecCodeModel, ...] = BUILTIN_CODES,
    distance_cap: int = DEFAULT_DISTANCE_CAP,
) -> tuple[QecCodeModel, int]:
    """Pick the cheapest compatible code and distance for a target error rate.

    Cost is the spacetime footprint per patch-step, ``n(d) * tau(d)``. Ties
    go to the smaller tile, then to the earlier entry in ``codes``.
    """
    compatible = [c for c in codes if c.instruction_set is qubit.instruction_set]
    if not compatible:
        raise ParameterError(
            f"no code model is compatible with instruction set "
            f"{qubit.instruction_set.value!r}"
        )
    ranked: list[tuple[float, int, int, int]] = []
    failures: list[Exception] = []
    for index, code in enumerate(compatible):
        try:
            d = required_distance(code, qubit, target_error, distance_cap)
        except (AboveThresholdError, DistanceCapError) as exc:
            failures.append(exc)
            continue
        n = code.tile_qubits(d)
        ranked.append((n * code.step_time(qubit, d), n, index, d))
    if ranked:
        _, _, index, d = min(ranked)
        return compatible[index], d
    if all(isinstance(f, AboveThresholdError) for f in failures):
        raise AboveThresholdError(
            f"qubit {qubit.name!r} is above threshold for every compatible code"
        )
    raise DistanceCapError(
        "distance cap exceeded for every compatible code: "
        + "; ".join(str(f) for f in failures)
    )
