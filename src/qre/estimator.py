"""End-to-end physical resource estimation.

:func:`estimate` binds the pieces together: it spreads the logical error
budget over a (possibly stretched) schedule, selects the cheapest code and
distance meeting the per-step target, finds a T-state factory for the
distillation target, and then provisions enough factory copies to keep the
algorithm fed. Stretching the schedule past its depth floor (``c_factor``)
trades runtime for fewer factories and often a shorter distance, which is
what :func:`frontier` sweeps.
"""

import math
from typing import NamedTuple

from .bounds import check
from .codes import BUILTIN_CODES, DEFAULT_DISTANCE_CAP, QecCodeModel, select_code
from .counting import LogicalRequirements
from .distillation import SearchBounds, TFactory, search_factory
from .display import format_duration
from .errors import EstimatorError
from .qubits import PhysicalQubitParams

_MAX_PASSES = 5

# How factory output is counted: each factory run promises its final-round
# output count at 99% confidence; earlier rounds are treated as satisfied
# by provisioning.
F_ACCOUNTING = "per-final-round-99pct"


class PhysicalEstimate(NamedTuple):
    """One point of the space-time tradeoff for one workload on one qubit."""

    qubit: PhysicalQubitParams
    requirements: LogicalRequirements
    c_factor: float
    code: QecCodeModel
    distance: int
    time_steps: int
    runtime: int
    factory: TFactory | None
    factory_count: int
    physical_qubits: int

    @property
    def step_time(self) -> int:
        return self.code.step_time(self.qubit, self.distance)

    @property
    def tile_qubits(self) -> int:
        return self.code.tile_qubits(self.distance)

    @property
    def algorithm_qubits(self) -> int:
        """Physical qubits hosting the algorithm's logical patches."""
        return self.requirements.logical_qubits * self.tile_qubits

    @property
    def factory_qubits(self) -> int:
        if self.factory is None:
            return 0
        return self.factory_count * self.factory.qubit_count

    @property
    def factory_fraction(self) -> float:
        return self.factory_qubits / self.physical_qubits

    @property
    def logical_error_rate(self) -> float:
        """Per-patch per-step logical error at the chosen distance."""
        return self.code.logical_error(self.qubit, self.distance)

    @property
    def logical_error_used(self) -> float:
        """Logical-budget consumption over the whole run."""
        return (
            self.requirements.logical_qubits * self.time_steps * self.logical_error_rate
        )

    @property
    def t_error_used(self) -> float:
        """Distillation-budget consumption over all T states."""
        if self.factory is None:
            return 0.0
        return self.requirements.t_states * self.factory.output_error


def estimate(
    qubit: PhysicalQubitParams,
    requirements: LogicalRequirements,
    c_factor: float = 1.0,
    *,
    codes: tuple[QecCodeModel, ...] = BUILTIN_CODES,
    distance_cap: int = DEFAULT_DISTANCE_CAP,
    factory_bounds: SearchBounds = SearchBounds(),
) -> PhysicalEstimate:
    """Estimate physical resources for one schedule-stretch factor.

    The step count, code distance, and factory interlock: more steps loosen
    the per-step logical target but tighten nothing else, while a factory
    slower than the whole schedule forces more steps. A handful of passes
    settles this; in practice two suffice. The result always has a factory
    no slower than its runtime: an interlock still unsettled after
    ``_MAX_PASSES`` passes raises :class:`EstimatorError`.
    """
    check("stretch", c_factor, "schedule stretch factor")
    c_factor = float(c_factor)
    steps = max(1, math.ceil(c_factor * requirements.min_time_steps))
    target_t_error = requirements.max_t_state_error
    factory: TFactory | None = None
    for _ in range(_MAX_PASSES):
        per_step_target = requirements.logical_budget / (
            requirements.logical_qubits * steps
        )
        code, distance = select_code(qubit, per_step_target, codes, distance_cap)
        step_time = code.step_time(qubit, distance)
        runtime = step_time * steps
        if requirements.t_states <= 0:
            factory = None
            break
        factory = search_factory(qubit, code, target_t_error, factory_bounds)
        if factory.duration <= runtime:
            break
        # A factory slower than the whole schedule would starve the
        # algorithm; pad the schedule and re-settle the distance.
        steps = max(steps, math.ceil(factory.duration / step_time))
    else:
        raise EstimatorError(
            f"schedule and factory did not settle in {_MAX_PASSES} passes "
            f"(factory {format_duration(factory.duration)}, runtime {format_duration(runtime)})"
        )

    if factory is None:
        factory_count = 0
    else:
        demand = requirements.t_states * factory.duration / (factory.output_count * runtime)
        # At least one: for a tiny T-state count the demand underflows to 0.
        factory_count = max(1, math.ceil(demand))
    physical_qubits = (
        factory_count * (0 if factory is None else factory.qubit_count)
        + requirements.logical_qubits * code.tile_qubits(distance)
    )
    return PhysicalEstimate(
        qubit=qubit,
        requirements=requirements,
        c_factor=c_factor,
        code=code,
        distance=distance,
        time_steps=steps,
        runtime=runtime,
        factory=factory,
        factory_count=factory_count,
        physical_qubits=physical_qubits,
    )


def frontier(
    qubit: PhysicalQubitParams,
    requirements: LogicalRequirements,
    c_factors: tuple[float, ...],
    *,
    codes: tuple[QecCodeModel, ...] = BUILTIN_CODES,
    distance_cap: int = DEFAULT_DISTANCE_CAP,
    factory_bounds: SearchBounds = SearchBounds(),
) -> tuple[PhysicalEstimate, ...]:
    """Sweep the space-time tradeoff over several stretch factors, sorted by
    step count."""
    results = [
        estimate(
            qubit,
            requirements,
            f,
            codes=codes,
            distance_cap=distance_cap,
            factory_bounds=factory_bounds,
        )
        for f in c_factors
    ]
    return tuple(sorted(results, key=lambda e: (e.time_steps, e.c_factor)))


class PerfectEstimate(NamedTuple):
    """Resources assuming error-free hardware: no code, no factories."""

    logical_qubits: int
    runtime: float


def perfect_qubit_estimate(
    requirements: LogicalRequirements, step_time: int
) -> PerfectEstimate:
    """Lower bound with noiseless qubits running at a fixed step time."""
    check("duration", step_time, "step_time in ns")
    runtime = requirements.min_time_steps * step_time
    if runtime == int(runtime):
        runtime = int(runtime)
    return PerfectEstimate(requirements.logical_qubits, runtime)
