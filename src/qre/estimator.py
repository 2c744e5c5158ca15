"""End-to-end physical resource estimation.

:func:`estimate` binds the pieces together: it spreads the logical error
budget over a (possibly stretched) schedule, selects the cheapest code and
distance meeting the per-step target, finds a T-state factory for the
distillation target, and then provisions enough factory copies to keep the
algorithm fed. Stretching the schedule past its depth floor (``c_factor``)
trades runtime for fewer factories; its per-step target tightens, so the
distance stays or grows. :func:`frontier` sweeps this trade.
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
    def physical_qubits(self) -> int:
        """The algorithm's tiles plus the factories: the two shares' sum."""
        return self.algorithm_qubits + self.factory_qubits

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

    The step count, code distance, and factory interlock: more steps tighten
    the per-step logical target, so the distance stays or grows, while a
    factory slower than the whole schedule forces more steps. Padding only
    raises the step count, so each unsettled pass pads for a new code, and
    at most one pass per compatible code plus one runs; all 72 preset
    estimates (six qubits, three workloads, stretch 1, 2, 4 and 8) settle in
    one. The result always has a factory no slower than its runtime.
    """
    check("stretch", c_factor, "schedule stretch factor")
    c_factor = float(c_factor)
    steps = max(1, math.ceil(c_factor * requirements.min_time_steps))
    target_t_error = requirements.max_t_state_error
    factory: TFactory | None = None
    # The bound is proved: the factory depends only on the code, since its
    # target is per T state and not per step. A pad sets steps to
    # ceil(D_f / tau(d)), and padding only ever raises steps. At more steps a
    # code's distance, step time and runtime never fall, so a code padded for
    # settles whenever a later pass picks it again. Each pass that does not
    # settle thus pads for a new code, and at most len(compatible) + 1 passes
    # run. The raise below guards these premises and is not a tuned limit.
    passes = sum(c.instruction_set is qubit.instruction_set for c in codes) + 1
    for _ in range(passes):
        per_step_target = requirements.logical_budget / (
            requirements.logical_qubits * steps
        )
        code, distance = select_code(qubit, per_step_target, codes, distance_cap)
        step_time = code.step_time(qubit, distance)
        runtime = step_time * steps
        if requirements.t_states <= 0:
            break
        factory = search_factory(qubit, code, target_t_error, factory_bounds)
        if factory.duration <= runtime:
            break
        # A factory slower than the whole schedule would starve the
        # algorithm; pad the schedule and re-settle the distance. The exact
        # ceiling, kept an int for a library caller's fractional durations.
        steps = int(-(-factory.duration // step_time))
    else:
        raise EstimatorError(
            f"schedule and factory did not settle in {passes} passes "
            f"(factory {format_duration(factory.duration)}, runtime {format_duration(runtime)})"
        )

    if factory is None:
        factory_count = 0
    else:
        demand = requirements.t_states * factory.duration / (factory.output_count * runtime)
        # At least one: for a tiny T-state count the demand underflows to 0.
        factory_count = max(1, math.ceil(demand))
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
