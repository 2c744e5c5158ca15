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
    factory: TFactory | None

    @property
    def factory_count(self) -> int:
        """Copies that meet the T-state demand over the runtime; at least one,
        since a tiny count's demand underflows to 0."""
        f = self.factory
        if f is None:
            return 0
        demand = self.requirements.t_states * f.duration / (f.output_count * self.runtime)
        return max(1, math.ceil(demand))

    @property
    def step_time(self) -> int:
        return self.code.step_time(self.qubit, self.distance)

    @property
    def runtime(self) -> int:
        """Wall-clock time: the step count times the chosen code's step time."""
        return self.time_steps * self.step_time

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
    factory slower than the whole schedule forces more steps. Each unsettled
    pass pads for a new model, as a code padded for twice raises, so at most
    one pass per distinct compatible model, plus one, runs; all 72 preset
    estimates (six qubits, three workloads, stretch 1, 2, 4 and 8) settle in
    one. The result always has a factory no slower than its runtime.
    """
    check("stretch", c_factor, "schedule stretch factor")
    c_factor = float(c_factor)
    steps = math.ceil(c_factor * requirements.min_time_steps)
    # The factory depends only on the code, as its target is per T state. A
    # pad sets steps to ceil(D_f / tau(d)) and only raises them, and at more
    # steps a code's distance and step time never fall, so a code padded for
    # settles when picked again. The raise guards that premise.
    padded = set()
    while True:
        per_step_target = requirements.logical_budget / (requirements.logical_qubits * steps)
        code, distance = select_code(qubit, per_step_target, codes, distance_cap)
        factory = None
        if requirements.t_states > 0:
            factory = search_factory(qubit, code, requirements.max_t_state_error, factory_bounds)
        est = PhysicalEstimate(qubit, requirements, c_factor, code, distance, steps, factory)
        if factory is None or factory.duration <= est.runtime:
            return est
        if code in padded:
            raise EstimatorError(
                f"schedule and factory did not settle in {len(padded) + 1} passes (factory "
                f"{format_duration(factory.duration)}, runtime {format_duration(est.runtime)})"
            )
        padded.add(code)
        # A factory slower than the schedule would starve the algorithm: pad to
        # the exact ceiling, an int for a library caller's fractional durations.
        steps = int(-(-factory.duration // est.step_time))


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
