"""Logical-algorithm accounting.

Turns operation counts of a Pauli-measurement-compiled algorithm into the
four quantities the physical estimator consumes: logical qubits (algorithm
qubits plus the routing/ancilla overhead of the compilation layout),
minimum logical time steps, T states, and the per-T-state error target fed
to the factory search. The overall error budget is split between logical
errors, distillation errors, and rotation-synthesis errors, one third each
unless told otherwise.

Arbitrary-angle rotations are synthesized from T gates; the count per
rotation grows logarithmically in the inverse synthesis accuracy with
fitted constants held by :class:`SynthesisModel`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import check, checked
from .errors import ParameterError, UnknownPresetError


@checked
class SynthesisModel(NamedTuple):
    """T cost per rotation: ``ceil(scale * log2(1/accuracy) + offset)``."""

    scale: float = 0.53
    offset: float = 5.3

    def _check(self) -> None:
        check("synthesis", self.scale, "synthesis scale")
        check("synthesis", self.offset, "synthesis offset")


@checked
class BudgetSplit(NamedTuple):
    """Fractions of the error budget given to each failure mechanism."""

    logical: float = 1 / 3
    distillation: float = 1 / 3
    synthesis: float = 1 / 3

    def _check(self) -> None:
        parts = (self.logical, self.distillation, self.synthesis)
        for part in parts:
            check("budget_share", part, "budget split fraction")
        if sum(parts) > 1.0 + 1e-9:
            raise ParameterError("budget split fractions must sum to at most 1")


@checked
class AlgorithmCounts(NamedTuple):
    """Operation counts of a compiled logical algorithm.

    ``rotation_layers`` counts the non-Clifford layers containing at least
    one arbitrary rotation; ``measurements`` is the total of logical (joint
    Pauli) measurements. Counts may be floats: published tallies for large
    algorithms only carry a few significant digits.
    """

    algorithm_qubits: int
    measurements: float
    rotations: float
    t_gates: float
    toffoli_gates: float
    rotation_layers: float
    error_budget: float

    def _check(self) -> None:
        check("qubits", self.algorithm_qubits, "algorithm qubits")
        for label, value in (
            ("measurements", self.measurements),
            ("rotations", self.rotations),
            ("t_gates", self.t_gates),
            ("toffoli_gates", self.toffoli_gates),
            ("rotation_layers", self.rotation_layers),
        ):
            if value < 0:
                raise ParameterError(f"negative count: {label}")
            check("count", value, label)
        if self.rotations > 0 and self.rotation_layers < 1:
            raise ParameterError("rotation layers required when rotations are present")
        check("error_budget", self.error_budget, "error_budget")

    def to_json(self) -> dict:
        return {
            "algorithm_qubits": self.algorithm_qubits,
            "measurements": self.measurements,
            "rotations": self.rotations,
            "t_gates": self.t_gates,
            "toffoli_gates": self.toffoli_gates,
            "rotation_layers": self.rotation_layers,
            "error_budget": self.error_budget,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AlgorithmCounts":
        return cls(
            algorithm_qubits=obj.get("algorithm_qubits", 0),
            measurements=obj.get("measurements", 0),
            rotations=obj.get("rotations", 0),
            t_gates=obj.get("t_gates", 0),
            toffoli_gates=obj.get("toffoli_gates", 0),
            rotation_layers=obj.get("rotation_layers", 0),
            error_budget=obj.get("error_budget", 0.0),
        )


@checked
class LogicalRequirements(NamedTuple):
    """What the physical layer must deliver.

    ``min_time_steps`` is the logical-depth floor; running slower (a larger
    step count) is always allowed and relaxes the per-step error target.
    """

    logical_qubits: int
    min_time_steps: float
    t_states: float
    error_budget: float
    logical_budget: float
    distillation_budget: float
    synthesis_budget: float

    @property
    def max_t_state_error(self) -> float:
        """Per-T-state error target; infinite when no T states are needed."""
        if self.t_states <= 0:
            return math.inf
        return self.distillation_budget / self.t_states

    def _check(self) -> None:
        check("logical_qubits", self.logical_qubits, "logical qubits")
        check("derived_time_steps", self.min_time_steps, "min_time_steps")
        check("derived_count", self.t_states, "t_states")
        check("error_budget", self.error_budget, "error_budget")
        for label, part in (
            ("logical", self.logical_budget),
            ("distillation", self.distillation_budget),
            ("synthesis", self.synthesis_budget),
        ):
            check("budget_part", part, f"{label} budget")
        total = self.logical_budget + self.distillation_budget + self.synthesis_budget
        if total > self.error_budget * (1 + 1e-9):
            raise ParameterError("budget parts exceed the total error budget")

    def with_budget_split(self, split: BudgetSplit) -> "LogicalRequirements":
        """Re-divide the stored total budget; derived targets follow."""
        return self._replace(
            logical_budget=split.logical * self.error_budget,
            distillation_budget=split.distillation * self.error_budget,
            synthesis_budget=split.synthesis * self.error_budget,
        )


def rotation_t_count(
    synthesis_budget: float,
    rotations: float,
    model: SynthesisModel | None = None,
) -> int:
    """T gates needed per rotation so all rotations fit the synthesis budget.

    Zero rotations need zero T gates; otherwise each rotation is synthesized
    to accuracy ``synthesis_budget / rotations``.
    """
    check("count", rotations, "rotations")
    if rotations == 0:
        return 0
    if not synthesis_budget > 0:
        raise ParameterError("synthesis budget must be positive")
    check("budget_part", synthesis_budget, "synthesis budget")
    model = SynthesisModel() if model is None else model
    return math.ceil(model.scale * math.log2(rotations / synthesis_budget) + model.offset)


def _compiled_qubits(algorithm_qubits: int) -> int:
    # isqrt(n-1)+1 is ceil(sqrt(n)) for n >= 1, kept exact for huge counts.
    return 2 * algorithm_qubits + math.isqrt(8 * algorithm_qubits - 1) + 2


def logical_counts(
    counts: AlgorithmCounts,
    split: BudgetSplit | None = None,
    synthesis: SynthesisModel | None = None,
) -> LogicalRequirements:
    """Reduce operation counts to physical-layer requirements.

    Every operation (measurement, rotation, T gate) costs one logical time
    step; synthesized rotations serialize per layer, adding the per-rotation
    T cost times the layer count; Toffoli gates cost three steps each. The
    T-state total picks up the synthesized rotations, four states per
    Toffoli, and the explicit T gates.
    """
    split = BudgetSplit() if split is None else split
    eps = counts.error_budget
    logical_budget = split.logical * eps
    distillation_budget = split.distillation * eps
    synthesis_budget = split.synthesis * eps
    per_rotation = rotation_t_count(synthesis_budget, counts.rotations, synthesis)
    min_steps = (
        counts.measurements
        + counts.rotations
        + counts.t_gates
        + per_rotation * counts.rotation_layers
        + 3 * counts.toffoli_gates
    )
    t_states = per_rotation * counts.rotations + 4 * counts.toffoli_gates + counts.t_gates
    return LogicalRequirements(
        logical_qubits=_compiled_qubits(counts.algorithm_qubits),
        min_time_steps=min_steps,
        t_states=t_states,
        error_budget=eps,
        logical_budget=logical_budget,
        distillation_budget=distillation_budget,
        synthesis_budget=synthesis_budget,
    )


def ising_counts(
    sites: int,
    trotter_steps: int,
    error_budget: float,
    measurements: float | None = None,
) -> AlgorithmCounts:
    """Operation counts for simulating a square transverse-field Ising lattice.

    One second-order Trotter step contributes rotation layers for the
    transverse field and for the couplings; all non-Clifford work is
    arbitrary rotations, so T gates and Toffoli gates are zero.

    ``sites`` must be a perfect square (a ``k x k`` lattice) of at least 4.
    ``measurements`` defaults to one readout per site; published workloads
    sometimes fold extra repetitions in, so it can be overridden.
    """
    if sites < 4 or math.isqrt(sites) ** 2 != sites:
        raise ParameterError("lattice sites must be a perfect square of at least 4")
    check("trotter_steps", trotter_steps, "Trotter steps")
    return AlgorithmCounts(
        algorithm_qubits=sites,
        measurements=sites if measurements is None else measurements,
        rotations=(15 * trotter_steps + 1) * sites,
        t_gates=0,
        toffoli_gates=0,
        rotation_layers=25 * trotter_steps + 1,
        error_budget=error_budget,
    )


class ApplicationPreset(NamedTuple):
    """A named workload: either raw counts or stored requirements."""

    name: str
    description: str
    counts: AlgorithmCounts | None = None
    requirements: LogicalRequirements | None = None
    notes: tuple[str, ...] = ()

    def resolve(
        self,
        split: BudgetSplit | None = None,
        synthesis: SynthesisModel | None = None,
    ) -> LogicalRequirements:
        if self.counts is not None:
            return logical_counts(self.counts, split, synthesis)
        assert self.requirements is not None
        if split is None:
            return self.requirements
        return self.requirements.with_budget_split(split)


def _thirds(eps: float) -> dict[str, float]:
    return {
        "logical_budget": eps / 3,
        "distillation_budget": eps / 3,
        "synthesis_budget": eps / 3,
    }


_PRESETS: dict[str, ApplicationPreset] = {
    "dynamics": ApplicationPreset(
        name="dynamics",
        description="Quantum dynamics of a 10x10 transverse-field Ising lattice",
        requirements=LogicalRequirements(
            logical_qubits=230,
            min_time_steps=1.5e5,
            t_states=2.4e6,
            error_budget=1e-3,
            **_thirds(1e-3),
        ),
        notes=(
            "dynamics: stores published end-to-end totals (1.5e5 steps, 2.4e6 T "
            "states); the rotation-synthesis formulas applied to the published "
            "operation counts give different totals",
        ),
    ),
    "chemistry": ApplicationPreset(
        name="chemistry",
        description="Ground-state energy of a correlated materials-science Hamiltonian",
        counts=AlgorithmCounts(
            algorithm_qubits=1318,
            measurements=1.37e9,
            rotations=2.06e8,
            t_gates=5.53e7,
            toffoli_gates=1.35e11,
            rotation_layers=2.05e8,
            error_budget=0.01,
        ),
    ),
    "factoring": ApplicationPreset(
        name="factoring",
        description="Factoring a 2048-bit integer (cryptographically relevant RSA size)",
        counts=AlgorithmCounts(
            algorithm_qubits=12581,
            measurements=1.08e9,
            rotations=12,
            t_gates=12,
            toffoli_gates=3.73e9,
            rotation_layers=12,
            error_budget=1 / 3,
        ),
        notes=(
            "factoring: Toffoli count stored as 3.73e9, the value consistent "
            "with the workload's published step and T-state totals",
        ),
    ),
}


def application_preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def application_preset(name: str) -> ApplicationPreset:
    """Return a built-in workload by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPresetError("application", name, _PRESETS) from None
