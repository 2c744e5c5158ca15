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

import math
from typing import NamedTuple

from .bounds import check, checked
from .errors import ParameterError, UnknownPresetError


@checked
class SynthesisModel(NamedTuple):
    """T cost per rotation: ``ceil(scale * log2(1/accuracy) + offset)``."""

    scale: float = 0.53
    offset: float = 5.3

    field_bounds = {"scale": "synthesis", "offset": "synthesis"}


@checked
class BudgetSplit(NamedTuple):
    """Fractions of the error budget given to each failure mechanism."""

    logical: float = 1 / 3
    distillation: float = 1 / 3
    synthesis: float = 1 / 3

    field_bounds = dict.fromkeys(("logical", "distillation", "synthesis"), "budget_share")

    def _check(self) -> None:
        if sum(self) > 1.0 + 1e-9:
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

    field_bounds = {
        "algorithm_qubits": "qubits",
        **dict.fromkeys(
            ("measurements", "rotations", "t_gates", "toffoli_gates", "rotation_layers"), "count"
        ),
        "error_budget": "error_budget",
    }

    def _check(self) -> None:
        if self.rotations > 0 and self.rotation_layers < 1:
            raise ParameterError("rotation layers required when rotations are present")

    def to_json(self) -> dict:
        return self._asdict()


@checked
class LogicalRequirements(NamedTuple):
    """What the physical layer must deliver.

    ``min_time_steps`` is the logical-depth floor; running slower (a larger
    step count) is always allowed, and it tightens the per-step error target.
    The total ``error_budget`` is divided by ``split``; each share is a
    property, so the split is the only budget stated.
    """

    logical_qubits: int
    min_time_steps: float
    t_states: float
    error_budget: float
    split: BudgetSplit = BudgetSplit()

    field_bounds = {
        "logical_qubits": "logical_qubits",
        "min_time_steps": "derived_time_steps",
        "t_states": "derived_count",
        "error_budget": "error_budget",
    }

    def _check(self) -> None:
        if not isinstance(self.split, BudgetSplit):
            raise ParameterError(
                f"LogicalRequirements.split must be a BudgetSplit, got {type(self.split).__name__}"
            )

    @property
    def logical_budget(self) -> float:
        return self.split.logical * self.error_budget

    @property
    def distillation_budget(self) -> float:
        return self.split.distillation * self.error_budget

    @property
    def max_t_state_error(self) -> float:
        """Per-T-state error target; infinite when no T states are needed,
        else finite: a count below one is served as one state."""
        if self.t_states <= 0:
            return math.inf
        return self.distillation_budget / max(1, self.t_states)


def rotation_t_count(
    synthesis_budget: float,
    rotations: float,
    model: SynthesisModel = SynthesisModel(),
) -> int:
    """T gates needed per rotation so all rotations fit the synthesis budget.

    Zero rotations need zero T gates; otherwise each rotation is synthesized
    to accuracy ``synthesis_budget / rotations``. The count is never negative:
    a rotation whose accuracy budget exceeds what the formula needs gets no
    T gate.
    """
    check("count", rotations, "rotations")
    if rotations == 0:
        return 0
    if not synthesis_budget > 0:
        raise ParameterError("synthesis budget must be positive")
    check("budget_part", synthesis_budget, "synthesis budget")
    return max(0, math.ceil(model.scale * math.log2(rotations / synthesis_budget) + model.offset))


def _compiled_qubits(algorithm_qubits: int) -> int:
    # isqrt(n-1)+1 is ceil(sqrt(n)) for n >= 1, kept exact for huge counts.
    return 2 * algorithm_qubits + math.isqrt(8 * algorithm_qubits - 1) + 2


def logical_counts(
    counts: AlgorithmCounts,
    split: BudgetSplit = BudgetSplit(),
    synthesis: SynthesisModel = SynthesisModel(),
) -> LogicalRequirements:
    """Reduce operation counts to physical-layer requirements.

    Every operation (measurement, rotation, T gate) costs one logical time
    step; synthesized rotations serialize per layer, adding the per-rotation
    T cost times the layer count; Toffoli gates cost three steps each. The
    T-state total picks up the synthesized rotations, four states per
    Toffoli, and the explicit T gates.
    """
    per_rotation = rotation_t_count(
        split.synthesis * counts.error_budget, counts.rotations, synthesis
    )
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
        error_budget=counts.error_budget,
        split=split,
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
        split: BudgetSplit = BudgetSplit(),
        synthesis: SynthesisModel = SynthesisModel(),
    ) -> LogicalRequirements:
        if self.counts is not None:
            return logical_counts(self.counts, split, synthesis)
        return self.requirements._replace(split=split)


_PRESETS: dict[str, ApplicationPreset] = {
    p.name: p
    for p in (
        ApplicationPreset(
            name="dynamics",
            description="Quantum dynamics of a 10x10 transverse-field Ising lattice",
            requirements=LogicalRequirements(
                logical_qubits=230,
                min_time_steps=1.5e5,
                t_states=2.4e6,
                error_budget=1e-3,
            ),
            notes=(
                "dynamics: stores published end-to-end totals (1.5e5 steps, 2.4e6 T "
                "states); the rotation-synthesis formulas applied to the published "
                "operation counts give different totals",
            ),
        ),
        ApplicationPreset(
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
        ApplicationPreset(
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
    )
}


def application_preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def application_preset(name: str) -> ApplicationPreset:
    """Return a built-in workload by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPresetError("application", name, _PRESETS) from None
