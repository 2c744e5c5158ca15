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

import enum
import threading
from bisect import bisect_left
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count, product
from math import inf, isqrt
from typing import NamedTuple, Sequence

from .bounds import checked
from .codes import LogicalPatch, QecCodeModel
from .errors import (
    FactoryOutputError,
    NoFactoryError,
    ParameterError,
    ValidityRangeError,
)
from .qubits import InstructionSet, PhysicalQubitParams

ACCOUNTING_CONFIDENCE = 0.99
# How factory output is counted, as reports name it: each factory run
# promises its final-round output count at ACCOUNTING_CONFIDENCE; earlier
# rounds are treated as satisfied by provisioning.
F_ACCOUNTING = f"per-final-round-{100 * ACCOUNTING_CONFIDENCE:g}pct"

_PROVISION_LIMIT = 10**9


class UnitKind(enum.Enum):
    """Distillation unit layout."""

    SPACE_EFFICIENT = "space-efficient"
    RM_PREP = "rm-prep"


class UnitLevel(enum.Enum):
    PHYSICAL = "physical"
    LOGICAL = "logical"


# (kind, level) -> (qubit cost factor, duration factor). Physical rows are
# absolute qubits and multiples of t_meas; logical rows are multiples of the
# patch tile size and of the patch step time.
_UNIT_COSTS = {
    (UnitKind.SPACE_EFFICIENT, UnitLevel.PHYSICAL): (12, 46),
    (UnitKind.RM_PREP, UnitLevel.PHYSICAL): (31, 23),
    (UnitKind.SPACE_EFFICIENT, UnitLevel.LOGICAL): (20, 13),
    (UnitKind.RM_PREP, UnitLevel.LOGICAL): (31, 11),
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


def _extend(
    chain: tuple[float, tuple[float, ...]], clifford_errors: Sequence[float]
) -> tuple[float, tuple[float, ...]]:
    """Run ``(output error, round acceptances)`` through one more unit per
    Clifford error; raises :class:`ValidityRangeError` outside the formula's
    validity range."""
    error, acceptances = chain
    for clifford_error in clifford_errors:
        error, acceptance = unit_output_error(error, clifford_error)
        acceptances += (acceptance,)
    return error, acceptances


# Cache bounds: under the default search bounds the preset jobs fill 6 sweeps,
# 13 provisioning and 187 output-count keys, and the 8 compatible (qubit
# preset, code) sweeps run to their ends fill about 250 and 1.9k; each bound
# holds many times that, for sweeps over other hardware.
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


class DistillationUnitSpec(NamedTuple):
    """One unit layout at one level. ``patch`` is None for physical level."""

    kind: UnitKind
    patch: LogicalPatch | None = None

    @property
    def level(self) -> UnitLevel:
        return UnitLevel.PHYSICAL if self.patch is None else UnitLevel.LOGICAL

    @property
    def distance(self) -> int | None:
        return None if self.patch is None else self.patch.distance

    def costs(self, qubit: PhysicalQubitParams) -> tuple[int, int, float]:
        """``(qubits, duration_ns, clifford_error)`` of one unit on ``qubit``:
        its footprint, its wall-clock time and the error rate of the Clifford
        operations inside it. Raises unless ``qubit`` can host the unit."""
        qubit_factor, time_factor = _UNIT_COSTS[(self.kind, self.level)]
        patch = self.patch
        if patch is None:
            if qubit.instruction_set is not InstructionSet.MAJORANA:
                raise ParameterError(
                    "physical-level distillation requires a Majorana instruction set"
                )
            return qubit_factor, time_factor * qubit.t_meas, qubit.p_clifford
        if patch.qubit != qubit:
            raise ParameterError("unit patch was built for a different qubit model")
        return qubit_factor * patch.tile_qubits, time_factor * patch.step_time, patch.logical_error


class TFactoryRound(NamedTuple):
    unit: DistillationUnitSpec
    copies: int


class TFactory(NamedTuple):
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
    costs = []
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
        costs.append(unit.costs(qubit))
    if len(codes_seen) > 1:
        raise ParameterError("factory patches must share one code model")

    qubits, durations, clifford_errors = zip(*costs)
    output_error, acceptances = _extend((qubit.p_t, ()), clifford_errors)
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
        qubit_count=max(r.copies * n for r, n in zip(rounds, qubits)),
        duration=sum(durations),
        output_error=output_error,
        output_count=output_count,
        acceptance_probabilities=acceptances,
    )


@checked
class SearchBounds(NamedTuple):
    """Limits on the factory search space.

    Logical distances run over odd values in ``[min_distance,
    max_distance]``; the final round tries up to ``max_final_copies``
    parallel units. Construction rejects bounds above their ``BOUNDS`` maxima.
    """

    max_rounds: int = 3
    min_distance: int = 3
    max_distance: int = 31
    max_final_copies: int = 2

    field_bounds = {
        "max_rounds": "max_rounds",
        "min_distance": "factory_distance",
        "max_distance": "factory_distance",
        "max_final_copies": "max_final_copies",
    }

    def _check(self) -> None:
        # Factory distances are odd: the range needs an odd value in it.
        if self.max_distance < (self.min_distance | 1):
            raise ParameterError("empty factory distance range")


class _Unit(NamedTuple):
    """A unit layout with its costs on one qubit, as plain numbers."""

    spec: DistillationUnitSpec
    qubits: int
    duration: int
    clifford_error: float


class _Sweep:
    """The Pareto staircase of one (qubit, code, bounds), settled on demand.

    A configuration is a shape (an optional physical first unit, then the
    logical unit kinds), non-decreasing distances and a final copy count.
    More final copies cost no less and leave the error as it is, so only
    the fewest that deliver an output can join the staircase. Each shape's
    distance tuples form a tree rooted at the smallest distance: a child
    raises one distance, at or before the position its parent raised, so
    every tuple has one parent. Raising a distance makes nothing cheaper:
    tile qubits and step time grow with it.

    The heap holds unprovisioned nodes keyed by a lower bound on the cost of
    every configuration in their subtree, and provisioned configurations
    keyed by the exact cost key (qubit-seconds, qubits, duration,
    generation order). In the bound, durations and unit sizes are the
    node's own, and each round has at least 15 times the next round's
    copies and more than ``(required - 1) / acceptance`` (as
    ``reliable_outputs(m, a) <= ceil(m * a)``), with each acceptance taken
    at the subtree's largest distances. A bound entry pops before an exact
    entry of equal cost, so exact entries pop in cost order, and one whose
    error is below the last member's joins the staircase.

    A node is neither provisioned nor expanded once its error bound is at
    or above the last member's error. The bound is attained: it is the
    chain of the subtree's configuration with every position up to the
    cursor at the subtree's largest distance. No other configuration's
    float error is lower, since (P1) a logical unit's Clifford error
    ``a * r**((d + 1) / 2)``, ``0 < r < 1``, never rises with ``d``, and
    (P2) :func:`unit_output_error` never falls when an input rises: IEEE
    ``+`` and ``*`` by a positive constant are monotone, and the normal
    cubes of adjacent doubles lie at least 1.5 ULP apart, so a libm ``pow``
    within 0.75 ULP keeps them in order. Nor does the sweep need a stopping
    rule: once a member reaches ``7.1 * p`` at the top distance's logical
    error ``p``, every bound left is at or above it, and the heap drains.
    """

    def __init__(
        self, qubit: PhysicalQubitParams, code: QecCodeModel, bounds: SearchBounds
    ) -> None:
        self.qubit = qubit
        distances = [d for d in range(bounds.min_distance, bounds.max_distance + 1) if d % 2]

        def unit(kind: UnitKind, patch: LogicalPatch | None = None) -> _Unit:
            spec = DistillationUnitSpec(kind=kind, patch=patch)
            return _Unit(spec, *spec.costs(qubit))

        patches = {d: LogicalPatch(code, qubit, d) for d in distances}
        logical = {k: {d: unit(k, patches[d]) for d in distances} for k in UnitKind}
        firsts: list[_Unit | None] = [None]
        if qubit.instruction_set is InstructionSet.MAJORANA:
            firsts += [unit(k) for k in UnitKind]
        # In generation order: the prefix units and, per logical round, the
        # unit at each distance. The final round must hand over encoded states.
        self._shapes = [
            (prefix, tuple(logical[k] for k in kinds))
            for total_rounds in range(1, bounds.max_rounds + 1)
            for prefix in (() if first is None else (first,) for first in firsts)
            if total_rounds > len(prefix)
            for kinds in product(UnitKind, repeat=total_rounds - len(prefix))
        ]
        self._max_final = bounds.max_final_copies
        self.factories: list[TFactory] = []  # the members, in cost order
        self._best = inf  # the last member's error, which a new member must beat
        self._heap: list[tuple] = []
        self._chains: dict[tuple, tuple[float, tuple] | None] = {}
        self._order = count()
        # SearchBounds keeps an odd distance in range, so ``distances`` is not empty.
        self._top = distances[-1]
        for shape, (prefix, tables) in enumerate(self._shapes):
            units = prefix + tuple(table[distances[0]] for table in tables)
            self._push(shape, (distances[0],) * len(tables), len(tables) - 1, units)

    def _chain(self, shape: int, distances: tuple[int, ...]) -> tuple[float, tuple] | None:
        """Output error and round acceptances of the shape's rounds up to
        ``len(distances)``, or None outside the formula's validity range;
        memoized on every prefix."""
        key = (shape, distances)
        chain = self._chains.get(key, False)
        if chain is False:
            prefix, tables = self._shapes[shape]
            if distances:
                chain = self._chain(shape, distances[:-1])
                cliffords = (tables[len(distances) - 1][distances[-1]].clifford_error,)
            else:
                chain, cliffords = (self.qubit.p_t, ()), [u.clifford_error for u in prefix]
            if chain is not None:
                try:
                    chain = _extend(chain, cliffords)
                except ValidityRangeError:
                    chain = None
            self._chains[key] = chain
        return chain

    def _push(
        self, shape: int, distances: tuple[int, ...], cursor: int, units: tuple[_Unit, ...]
    ) -> None:
        """Queue a node whose descendants raise distances up to position ``cursor``."""
        top = distances[cursor + 1] if cursor + 1 < len(distances) else self._top
        reach = self._chain(shape, (top,) * (cursor + 1) + distances[cursor + 1 :])
        if reach is None:
            return  # nor is any descendant's chain valid
        bound = reach[0]
        if bound >= self._best:
            return
        copies, qubits = 1, units[-1].qubits
        for acceptance, u in zip(reach[1][-2::-1], units[-2::-1]):
            required = 15 * copies
            # More than (required - 1) / acceptance, less a rounding slack.
            copies = max(required, int((required - 1) / acceptance * (1.0 - 1e-12)) + 1)
            qubits = max(qubits, copies * u.qubits)
        duration = sum([u.duration for u in units])
        entry = (qubits * duration, 0, next(self._order), bound, shape, distances, cursor, units)
        heappush(self._heap, entry)

    def _provision(
        self, shape: int, distances: tuple[int, ...], units: tuple[_Unit, ...]
    ) -> None:
        """Queue the node's own configuration with the fewest final copies
        that deliver, under its exact cost key."""
        chain = self._chain(shape, distances)
        if chain is None or chain[0] >= self._best:
            return
        error, acceptances = chain
        for final in range(1, self._max_final + 1):
            if reliable_outputs(final, acceptances[-1]) == 0:
                continue
            copies = [final]
            try:
                for acceptance in acceptances[-2::-1]:
                    copies.append(provisioned_copies(15 * copies[-1], acceptance))
            except ValidityRangeError:
                continue
            copies.reverse()
            qubits = max([c * u.qubits for c, u in zip(copies, units)])
            duration = sum([u.duration for u in units])
            order = (shape, distances, final)
            heappush(self._heap, (qubits * duration, qubits, duration, order, error, units, copies))
            return

    def settle(self, target: float) -> None:
        """Advance until a member meets ``target`` or the sweep ends; a
        finished sweep keeps only its members."""
        heap = self._heap
        while heap and (not self.factories or self._best > target):
            entry = heappop(heap)
            try:
                self._step(entry)
            except BaseException:
                heappush(heap, entry)  # an interrupted step is redone, never lost
                raise
        self._chains.clear()  # a paused sweep keeps only its heap

    def _step(self, entry: tuple) -> None:
        if entry[1]:
            error, units, copies = entry[4:]
            if error < self._best:
                rounds = [TFactoryRound(unit=u.spec, copies=c) for u, c in zip(units, copies)]
                self.factories.append(evaluate_factory(rounds, self.qubit))
                self._best = error
            return
        bound, shape, distances, cursor, units = entry[3:]
        if bound >= self._best:
            return
        self._provision(shape, distances, units)
        tables = self._shapes[shape][1]
        offset = len(units) - len(distances)
        for j in range(cursor, -1, -1):
            limit = distances[j + 1] if j + 1 < len(distances) else self._top
            if distances[j] < limit:
                d = distances[j] + 2
                self._push(
                    shape,
                    distances[:j] + (d,) + distances[j + 1 :],
                    j,
                    units[: offset + j] + (tables[j][d],) + units[offset + j + 1 :],
                )


@lru_cache(maxsize=32)
def _sweep(qubit: PhysicalQubitParams, code: QecCodeModel, bounds: SearchBounds) -> _Sweep:
    return _Sweep(qubit, code, bounds)


# One sweep per (qubit, code, bounds), and one query advancing it at a time.
_STAIRCASE_LOCK = threading.Lock()


def search_factory(
    qubit: PhysicalQubitParams,
    code: QecCodeModel,
    target_error: float,
    bounds: SearchBounds = SearchBounds(),
) -> TFactory:
    """Cheapest factory whose output error meets the target.

    Cost is the qubit-seconds product ``qubit_count * duration``; ties go to
    fewer qubits, then to the shorter duration, then to generation order.
    Raises :class:`NoFactoryError` (carrying the best error any candidate
    achieved) when the bounded space cannot reach the target.

    The candidate set does not depend on the target. Its Pareto staircase
    is the candidates in cost order whose output error is strictly below
    that of every cheaper one, and the cheapest candidate meeting any
    target is on it. One sweep per (qubit, code, bounds) settles members
    in cost order only as far as the queries need: a query that a settled
    member meets is a bisection, a harder one resumes the sweep, and one
    that no candidate meets runs it to its end. Up to 32 sweeps are cached
    (least recently used first out); under the default bounds the preset
    qubits' staircases hold 20 to 183 factories. One lock makes concurrent
    queries share a sweep.
    """
    if not target_error > 0:
        raise ParameterError("target error must be positive")
    with _STAIRCASE_LOCK:
        sweep = _sweep(qubit, code, bounds)
        sweep.settle(target_error)
        factories = sweep.factories
        index = bisect_left(factories, -target_error, key=lambda f: -f.output_error)
        if index < len(factories):
            return factories[index]
    raise NoFactoryError(target_error, factories[-1].output_error if factories else None)
