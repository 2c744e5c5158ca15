"""T-state distillation units, factories, and the factory search.

Factories are pipelines of 15-to-1 distillation rounds. Within a round,
``copies`` identical units run in parallel; rounds run back to back and
reuse the same hardware, so a factory's qubit cost is the widest round and
its duration is the sum over rounds.

Two unit layouts are modeled (a compact one and a Reed-Muller-style
preparation), each at physical level (Majorana hardware only) or hosted in
logical patches. All four share one first-order behavior per unit: an
output error of ``35*q**3 + 7.1*p`` and an acceptance probability of
``1 - 15*q - 356*p``, where ``q`` is the input T-state error and ``p`` the
Clifford-level error inside the unit.

Copy counts are provisioned so each round delivers the 15 inputs per
next-round unit with 99% confidence, and the advertised output count is
what the final round produces at that same confidence.
"""

from __future__ import annotations

import enum
import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import isqrt
from operator import itemgetter
from typing import NamedTuple, Sequence

from .codes import LogicalPatch, QecCodeModel
from .codes import patch as make_patch
from .errors import (
    FactoryOutputError,
    NoFactoryError,
    ParameterError,
    ValidityRangeError,
)
from .qubits import InstructionSet, PhysicalQubitParams

ACCOUNTING_CONFIDENCE = 0.99

_PROVISION_LIMIT = 10**9

# Largest factory search bounds accepted. The walk grows steeply in each
# (five rounds alone take about 12 s); at all three caps a cold search on
# a preset qubit takes 4 to 6 s on a 2-core x86 machine.
SEARCH_CAPS = {"max_rounds": 4, "max_distance": 35, "max_final_copies": 4}


class UnitKind(enum.Enum):
    """Distillation unit layout."""

    SPACE_EFFICIENT = "space-efficient"
    RM_PREP = "rm-prep"


class UnitLevel(enum.Enum):
    PHYSICAL = "physical"
    LOGICAL = "logical"


# (kind, level) -> qubit cost factor, duration factor. Physical rows are
# absolute qubits and multiples of t_meas; logical rows are multiples of the
# patch tile size and of the patch step time.
_UNIT_QUBITS = {
    (UnitKind.SPACE_EFFICIENT, UnitLevel.PHYSICAL): 12,
    (UnitKind.RM_PREP, UnitLevel.PHYSICAL): 31,
    (UnitKind.SPACE_EFFICIENT, UnitLevel.LOGICAL): 20,
    (UnitKind.RM_PREP, UnitLevel.LOGICAL): 31,
}
_UNIT_STEPS = {
    (UnitKind.SPACE_EFFICIENT, UnitLevel.PHYSICAL): 46,
    (UnitKind.RM_PREP, UnitLevel.PHYSICAL): 23,
    (UnitKind.SPACE_EFFICIENT, UnitLevel.LOGICAL): 13,
    (UnitKind.RM_PREP, UnitLevel.LOGICAL): 11,
}


def unit_output_error(input_error: float, clifford_error: float) -> tuple[float, float]:
    """First-order output error and acceptance probability of one unit;
    every 15-to-1 layout and level shares this model.

    Returns ``(output_error, acceptance_probability)``.
    """
    for label, value in (("input error", input_error), ("clifford error", clifford_error)):
        if not 0.0 <= value < 1.0:
            raise ValidityRangeError(
                f"formula out of validity range: {label} {value!r} not in [0, 1)"
            )
    acceptance = 1.0 - 15.0 * input_error - 356.0 * clifford_error
    if acceptance <= 0.0:
        raise ValidityRangeError(
            "formula out of validity range: acceptance probability is not positive "
            f"(input error {input_error:.3g}, clifford error {clifford_error:.3g})"
        )
    output = 35.0 * input_error**3 + 7.1 * clifford_error
    return output, acceptance


# Cache bounds: the 8 compatible (qubit preset, code) pairs fill 8 staircases
# and about 1.3k provisioning and 10.7k output-count keys under the default
# search bounds, and each bound holds about three times that.
@lru_cache(maxsize=4096)
def provisioned_copies(required: int, acceptance: float) -> int:
    """Smallest copy count delivering ``required`` successes at 99%
    confidence: the first whose :func:`reliable_outputs` reaches it."""
    if required <= 0:
        return 0
    lo = hi = required
    while reliable_outputs(hi, acceptance) < required:
        hi *= 2
        if hi > _PROVISION_LIMIT:
            raise ValidityRangeError(
                f"formula out of validity range: provisioning for {required} "
                f"successes at acceptance {acceptance:.3g} diverges"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if reliable_outputs(mid, acceptance) >= required:
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=32768)
def reliable_outputs(copies: int, acceptance: float) -> int:
    """Largest ``m`` with P[Binomial(copies, acceptance) >= m] >= 99%: the
    output count the final round guarantees. Zero means the configuration
    cannot promise a single state.

    The binomial weights are taken relative to the mode, over the mode plus
    or minus ``isqrt(20 * copies) + 2``; by Hoeffding's inequality each side
    beyond that holds less than e**-40 of the mass. So one pass over
    O(sqrt(copies)) terms, with no special function, gives the quantile.
    """
    if copies < 1:
        raise ParameterError("copies must be at least 1")
    if not 0.0 < acceptance <= 1.0:
        raise ValidityRangeError(
            f"formula out of validity range: acceptance probability {acceptance!r}"
        )
    if acceptance**copies >= ACCOUNTING_CONFIDENCE:
        return copies
    odds = acceptance / (1.0 - acceptance)
    mode = min(copies, int((copies + 1) * acceptance))
    reach = isqrt(20 * copies) + 2
    lo, hi = max(0, mode - reach), min(copies, mode + reach)
    up, down = [1.0], [1.0]
    for j in range(mode, hi):
        up.append(up[-1] * (copies - j) / (j + 1) * odds)
    for j in range(mode, lo, -1):
        down.append(down[-1] * j / (copies - j + 1) / odds)
    weights = down[:0:-1] + up  # m = lo .. hi
    total = sum(weights)
    tail = 0.0
    for m in range(hi, lo, -1):
        tail += weights[m - lo] / total
        if tail >= ACCOUNTING_CONFIDENCE:
            return m
    return lo


@dataclass(frozen=True, slots=True)
class DistillationUnitSpec:
    """One unit layout at one level. ``patch`` is None for physical level."""

    kind: UnitKind
    patch: LogicalPatch | None = None

    @property
    def level(self) -> UnitLevel:
        return UnitLevel.PHYSICAL if self.patch is None else UnitLevel.LOGICAL

    @property
    def distance(self) -> int | None:
        return None if self.patch is None else self.patch.distance

    def qubit_cost(self) -> int:
        factor = _UNIT_QUBITS[(self.kind, self.level)]
        if self.patch is None:
            return factor
        return factor * self.patch.tile_qubits

    def duration(self, qubit: PhysicalQubitParams) -> int:
        """Wall-clock time of one unit, in nanoseconds."""
        self._check_host(qubit)
        factor = _UNIT_STEPS[(self.kind, self.level)]
        if self.patch is None:
            return factor * qubit.t_meas
        return factor * self.patch.step_time

    def clifford_error(self, qubit: PhysicalQubitParams) -> float:
        """Error rate of the Clifford operations inside the unit."""
        self._check_host(qubit)
        if self.patch is None:
            return qubit.p_clifford
        return self.patch.logical_error

    def _check_host(self, qubit: PhysicalQubitParams) -> None:
        if self.patch is None:
            if qubit.instruction_set is not InstructionSet.MAJORANA:
                raise ParameterError(
                    "physical-level distillation requires a Majorana instruction set"
                )
        elif self.patch.qubit != qubit:
            raise ParameterError("unit patch was built for a different qubit model")

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "level": self.level.value,
            "distance": self.distance,
        }


@dataclass(frozen=True, slots=True)
class TFactoryRound:
    unit: DistillationUnitSpec
    copies: int

    def to_json(self) -> dict:
        return {**self.unit.to_json(), "copies": self.copies}


@dataclass(frozen=True, slots=True)
class TFactory:
    """A fully evaluated distillation pipeline.

    ``qubit_count`` is the widest round, ``duration`` the sum over rounds in
    nanoseconds, ``output_error`` the error rate of each delivered T state,
    and ``output_count`` how many states one run delivers at the accounting
    confidence.
    """

    rounds: tuple[TFactoryRound, ...]
    qubit_count: int
    duration: int
    output_error: float
    output_count: int
    acceptance_probabilities: tuple[float, ...]

    def to_json(self) -> dict:
        from .display import format_duration

        return {
            "rounds": [r.to_json() for r in self.rounds],
            "qubit_count": self.qubit_count,
            "duration": {"ns": self.duration, "display": format_duration(self.duration)},
            "output_error": self.output_error,
            "output_count": self.output_count,
            "acceptance_probabilities": list(self.acceptance_probabilities),
        }


def evaluate_factory(
    rounds: Sequence[TFactoryRound], qubit: PhysicalQubitParams
) -> TFactory:
    """Evaluate a distillation pipeline into a :class:`TFactory`.

    Validates the structural rules (physical units only in the first round
    and only on Majorana hardware, one code model throughout, non-decreasing
    distances, copy counts meeting the provisioning rule) and rejects
    configurations that cannot deliver a single output reliably.
    """
    rounds = tuple(rounds)
    if not rounds:
        raise ParameterError("a factory needs at least one distillation round")
    codes_seen: set[QecCodeModel] = set()
    last_distance = 0
    for index, rnd in enumerate(rounds):
        if rnd.copies < 1:
            raise ParameterError(f"round {index + 1}: copies must be at least 1")
        unit = rnd.unit
        if unit.patch is None:
            if index > 0:
                raise ParameterError(
                    f"round {index + 1}: physical-level units are only allowed first"
                )
        else:
            codes_seen.add(unit.patch.code)
            if unit.patch.distance < last_distance:
                raise ParameterError(
                    "distances must be non-decreasing across logical rounds"
                )
            last_distance = unit.patch.distance
        unit._check_host(qubit)
    if len(codes_seen) > 1:
        raise ParameterError("factory patches must share one code model")

    output_error = qubit.p_t
    acceptances: list[float] = []
    for rnd in rounds:
        output_error, acceptance = unit_output_error(output_error, rnd.unit.clifford_error(qubit))
        acceptances.append(acceptance)
    for index in range(len(rounds) - 1):
        needed = provisioned_copies(15 * rounds[index + 1].copies, acceptances[index])
        if rounds[index].copies < needed:
            raise ParameterError(
                f"round {index + 1} under-provisioned: {rounds[index].copies} copies "
                f"cannot feed round {index + 2} (need {needed})"
            )
    output_count = reliable_outputs(rounds[-1].copies, acceptances[-1])
    if output_count == 0:
        raise FactoryOutputError("factory produces no reliable output")
    return TFactory(
        rounds=rounds,
        qubit_count=max(r.copies * r.unit.qubit_cost() for r in rounds),
        duration=sum(r.unit.duration(qubit) for r in rounds),
        output_error=output_error,
        output_count=output_count,
        acceptance_probabilities=tuple(acceptances),
    )


@dataclass(frozen=True, slots=True)
class SearchBounds:
    """Limits on the factory search space.

    Logical distances run over odd values in ``[min_distance,
    max_distance]``; the final round tries up to ``max_final_copies``
    parallel units. :meth:`validate` rejects bounds above ``SEARCH_CAPS``.
    """

    max_rounds: int = 3
    min_distance: int = 3
    max_distance: int = 31
    max_final_copies: int = 2

    def validate(self) -> None:
        if self.max_rounds < 1:
            raise ParameterError("factory search needs at least one round")
        if self.min_distance < 3:
            raise ParameterError("factory distances start at 3")
        if self.max_distance < self.min_distance:
            raise ParameterError("empty factory distance range")
        if self.max_final_copies < 1:
            raise ParameterError("final round needs at least one unit")
        for name, cap in SEARCH_CAPS.items():
            if getattr(self, name) > cap:
                raise ParameterError(f"factory search {name} is capped at {cap}")

    def to_json(self) -> dict:
        return {
            "max_rounds": self.max_rounds,
            "min_distance": self.min_distance,
            "max_distance": self.max_distance,
            "max_final_copies": self.max_final_copies,
        }


class _Unit(NamedTuple):
    """A unit layout with its costs on one qubit, as plain numbers."""

    spec: DistillationUnitSpec
    qubits: int
    duration: int
    clifford_error: float


@lru_cache(maxsize=32)
def _staircase(
    qubit: PhysicalQubitParams, code: QecCodeModel, bounds: SearchBounds
) -> tuple[tuple[float, ...], tuple[TFactory, ...]]:
    """The staircase members, cheapest first, with their negated output
    errors (a rising sequence, for :func:`bisect_left`). Every configuration
    is walked once, in generation order, on plain numbers."""
    distances = [d for d in range(bounds.min_distance, bounds.max_distance + 1) if d % 2]

    def unit(kind: UnitKind, patch: LogicalPatch | None = None) -> _Unit:
        spec = DistillationUnitSpec(kind=kind, patch=patch)
        return _Unit(spec, spec.qubit_cost(), spec.duration(qubit), spec.clifford_error(qubit))

    patches = {d: make_patch(code, qubit, d) for d in distances}
    logical = {(k, d): unit(k, patches[d]) for d in distances for k in UnitKind}
    firsts: list[_Unit | None] = [None]
    if qubit.instruction_set is InstructionSet.MAJORANA:
        firsts += [unit(k) for k in UnitKind]

    # (qubit-seconds, qubits, duration, output error, units, copies)
    found: list[tuple] = []
    for total_rounds in range(1, bounds.max_rounds + 1):
        for first in firsts:
            prefix = () if first is None else (first,)
            logical_rounds = total_rounds - len(prefix)
            if logical_rounds < 1:
                # The final round must hand over encoded states.
                continue
            for logical_kinds in product(UnitKind, repeat=logical_rounds):
                for combo in combinations_with_replacement(distances, logical_rounds):
                    units = prefix + tuple(logical[kd] for kd in zip(logical_kinds, combo))
                    error = qubit.p_t
                    acceptances = []
                    try:
                        for u in units:
                            error, acceptance = unit_output_error(error, u.clifford_error)
                            acceptances.append(acceptance)
                    except ValidityRangeError:
                        continue
                    duration = sum(u.duration for u in units)
                    for final_copies in range(1, bounds.max_final_copies + 1):
                        if reliable_outputs(final_copies, acceptances[-1]) == 0:
                            continue
                        copies = [final_copies]
                        try:
                            for acceptance in acceptances[-2::-1]:
                                copies.append(provisioned_copies(15 * copies[-1], acceptance))
                        except ValidityRangeError:
                            continue
                        copies.reverse()
                        qubits = max(c * u.qubits for c, u in zip(copies, units))
                        found.append((qubits * duration, qubits, duration, error, units, copies))

    # A stable sort keeps generation order as the last tie-break.
    found.sort(key=itemgetter(0, 1, 2))
    errors: list[float] = []
    factories: list[TFactory] = []
    for _, _, _, error, units, copies in found:
        if not errors or error < -errors[-1]:
            rounds = [TFactoryRound(unit=u.spec, copies=c) for u, c in zip(units, copies)]
            factories.append(evaluate_factory(rounds, qubit))
            errors.append(-error)
    return tuple(errors), tuple(factories)


# One build per (qubit, code, bounds), even when frontier threads miss together.
_STAIRCASE_LOCK = threading.Lock()


def search_factory(
    qubit: PhysicalQubitParams,
    code: QecCodeModel,
    target_error: float,
    bounds: SearchBounds | None = None,
) -> TFactory:
    """Cheapest factory whose output error meets the target.

    Cost is the qubit-seconds product ``qubit_count * duration``; ties go to
    fewer qubits, then to the shorter duration, then to generation order.
    Raises :class:`NoFactoryError` (carrying the best error any candidate
    achieved) when the bounded space cannot reach the target.

    The candidate set does not depend on the target, so the first query per
    (qubit, code, bounds) builds its Pareto staircase: the candidates in
    cost order whose output error is strictly below that of every cheaper
    one. The cheapest candidate meeting any target is on it, so a query is
    a bisection. Up to 32 staircases are cached (least recently used
    first out), each of 20 to 183 factories for the preset qubits under
    the default bounds; one lock makes concurrent first queries build a
    staircase once.
    """
    if not target_error > 0:
        raise ParameterError("target error must be positive")
    bounds = SearchBounds() if bounds is None else bounds
    bounds.validate()
    with _STAIRCASE_LOCK:
        errors, factories = _staircase(qubit, code, bounds)
    index = bisect_left(errors, -target_error)
    if index == len(factories):
        raise NoFactoryError(target_error, -errors[-1] if errors else None)
    return factories[index]
