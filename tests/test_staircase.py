"""The factory search against a brute-force scan, its caches, and its lock.

The oracle here enumerates every evaluable configuration in the search's
generation order through the public unit, provisioning and validator
functions, and answers a target by a linear scan with the documented cost
key. The sweep behind ``search_factory`` must return the same factory for
every target, whether it starts fresh or resumes after earlier queries in
any order, report the same best error when no factory meets the target,
and hold exactly the oracle's staircase once it has run to its end.
"""

import contextlib
import math
import random
import threading
from bisect import bisect_left
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qre
from qre import (
    BUILTIN_CODES,
    SURFACE_GATE,
    BudgetSplit,
    DistillationUnitSpec,
    InstructionSet,
    LogicalRequirements,
    NoFactoryError,
    ParameterError,
    PhysicalQubitParams,
    QecCodeModel,
    SearchBounds,
    TFactoryRound,
    UnitKind,
    ValidityRangeError,
    evaluate_factory,
    frontier,
    patch,
    qubit_preset,
    qubit_preset_names,
    search_factory,
    unit_output_error,
)
from qre import distillation
from qre.bounds import BOUNDS
from threaded import threaded_frontier

_PAIRS = [
    (name, code.name)
    for name in qubit_preset_names()
    for code in BUILTIN_CODES
    if code.instruction_set is qubit_preset(name).instruction_set
]

_BOUNDS = (
    SearchBounds(),
    SearchBounds(max_rounds=2, max_distance=9),
    SearchBounds(max_rounds=1, min_distance=5, max_distance=17, max_final_copies=3),
)


def _code(name):
    return next(c for c in BUILTIN_CODES if c.name == name)


def _candidates(qubit, code, bounds):
    """Every evaluable configuration in generation order, as (output error,
    qubits, duration, rounds). Provisioning goes through the module's
    attributes, so a test can record the keys it passes."""
    distances = [d for d in range(bounds.min_distance, bounds.max_distance + 1) if d % 2]
    patches = {d: patch(code, qubit, d) for d in distances}

    def unit(spec):
        return spec, *spec.costs(qubit)

    logical = {
        (k, d): unit(DistillationUnitSpec(kind=k, patch=patches[d]))
        for k in UnitKind
        for d in distances
    }
    prefixes = [()]
    if qubit.instruction_set is InstructionSet.MAJORANA:
        prefixes += [(unit(DistillationUnitSpec(kind=k)),) for k in UnitKind]
    for total_rounds in range(1, bounds.max_rounds + 1):
        for prefix in prefixes:
            logical_rounds = total_rounds - len(prefix)
            if logical_rounds < 1:
                continue
            for kinds in product(UnitKind, repeat=logical_rounds):
                for combo in combinations_with_replacement(distances, logical_rounds):
                    units = prefix + tuple(logical[kd] for kd in zip(kinds, combo))
                    error = qubit.p_t
                    acceptances = []
                    try:
                        for _, _, _, clifford_error in units:
                            error, acceptance = unit_output_error(error, clifford_error)
                            acceptances.append(acceptance)
                    except ValidityRangeError:
                        continue
                    for final_copies in range(1, bounds.max_final_copies + 1):
                        if distillation.reliable_outputs(final_copies, acceptances[-1]) == 0:
                            continue
                        copies = [final_copies]
                        try:
                            for acceptance in reversed(acceptances[:-1]):
                                copies.insert(
                                    0, distillation.provisioned_copies(15 * copies[0], acceptance)
                                )
                        except ValidityRangeError:
                            continue
                        rounds = tuple(
                            TFactoryRound(unit=u[0], copies=c) for u, c in zip(units, copies)
                        )
                        qubits = max(c * u[1] for c, u in zip(copies, units))
                        yield error, qubits, sum(u[2] for u in units), rounds


def _oracle(qubit, code, bounds):
    """Every evaluable factory, built by the public validator, as (output
    error, cost key), in generation order; and the factories themselves."""
    rows, factories = [], []
    for error, qubits, duration, rounds in _candidates(qubit, code, bounds):
        factory = evaluate_factory(rounds, qubit)
        assert (factory.output_error, factory.qubit_count, factory.duration) == (
            error,
            qubits,
            duration,
        )
        cost = factory.qubit_count * factory.duration
        rows.append((error, (cost, factory.qubit_count, factory.duration, len(rows))))
        factories.append(factory)
    return tuple(rows), tuple(factories)


def _oracle_pick(oracle, target):
    """Cheapest factory meeting ``target`` by a full scan, else the best error."""
    rows, factories = oracle
    key = min((key for error, key in rows if error <= target), default=None)
    if key is not None:
        return factories[key[-1]], None
    return None, min((error for error, _ in rows), default=None)


def _oracle_staircase(oracle):
    """The factories in cost order whose error is below every cheaper one's."""
    rows, factories = oracle
    members = []
    for error, key in sorted(rows, key=lambda row: row[1]):
        if not members or error < members[-1].output_error:
            members.append(factories[key[-1]])
    return members


def _streamed_staircase(qubit, code, bounds):
    """The same staircase kept as a Pareto front while the candidates stream
    by, for search spaces too large to hold."""
    keys, errors, rounds = [], [], []  # keys rising, errors strictly falling
    for index, (error, qubits, duration, config) in enumerate(_candidates(qubit, code, bounds)):
        key = (qubits * duration, qubits, duration, index)
        at = bisect_left(keys, key)
        if at and errors[at - 1] <= error:
            continue
        end = at
        while end < len(keys) and errors[end] >= error:
            end += 1
        keys[at:end], errors[at:end], rounds[at:end] = [key], [error], [config]
    return [evaluate_factory(config, qubit) for config in rounds]


def _full_sweep(qubit, code, bounds):
    sweep = distillation._Sweep(qubit, code, bounds)
    sweep.settle(0.0)
    assert not sweep._heap and not sweep._chains  # a finished sweep drops both
    return list(sweep.factories)


def _targets(errors, members):
    """Each member's error and its neighbouring floats, a target below every
    error, and a spread of about 50 of the candidates' own errors."""
    targets = {1e-3, 1e-30}
    if members:
        targets.add(members[-1].output_error / 2)
    for member in members:
        error = member.output_error
        targets.update((error, math.nextafter(error, math.inf), math.nextafter(error, 0.0)))
    errors = sorted(set(errors))
    targets.update(errors[:: max(1, len(errors) // 50)])
    return sorted(targets)


def _check(qubit, code, bounds, target, expected, best_error):
    if expected is None:
        with pytest.raises(NoFactoryError) as info:
            search_factory(qubit, code, target, bounds)
        assert info.value.best_output_error == best_error, target
    else:
        assert search_factory(qubit, code, target, bounds) == expected, target


def _check_queries(qubit, code, bounds, targets, pick, fresh):
    """Query ``targets`` on one cached sweep in rising, falling and shuffled
    order, and each of ``fresh`` on a sweep of its own."""
    answers = {target: pick(target) for target in targets}
    rising = sorted(targets)
    for order in (rising, rising[::-1], random.Random(7).sample(rising, len(rising))):
        distillation._sweep.cache_clear()
        for target in order:
            _check(qubit, code, bounds, target, *answers[target])
    for target in fresh:
        distillation._sweep.cache_clear()
        _check(qubit, code, bounds, target, *answers[target])


@pytest.mark.parametrize("bounds", _BOUNDS, ids=["default", "two-rounds-d9", "one-round"])
@pytest.mark.parametrize("qubit_name, code_name", _PAIRS)
def test_search_matches_brute_force_scan(qubit_name, code_name, bounds):
    qubit = qubit_preset(qubit_name)
    code = _code(code_name)
    oracle = _oracle(qubit, code, bounds)
    members = _oracle_staircase(oracle)
    assert _full_sweep(qubit, code, bounds) == members
    targets = _targets([error for error, _ in oracle[0]], members)
    # A fresh sweep per target costs up to a full sweep; about 40 of them.
    fresh = targets[:: max(1, len(targets) // 40)] + targets[-1:]
    _check_queries(qubit, code, bounds, targets, lambda t: _oracle_pick(oracle, t), fresh)


def test_search_matches_streamed_staircase_at_caps():
    qubit = qubit_preset("ns-e4")
    bounds = SearchBounds(
        max_rounds=BOUNDS["max_rounds"][1],
        max_distance=BOUNDS["factory_distance"][1],
        max_final_copies=BOUNDS["max_final_copies"][1],
    )
    members = _streamed_staircase(qubit, SURFACE_GATE, bounds)
    assert _full_sweep(qubit, SURFACE_GATE, bounds) == members
    errors = [m.output_error for m in members]

    def pick(target):
        # The cheapest factory meeting a target is the first member that does.
        index = next((i for i, error in enumerate(errors) if error <= target), None)
        return (None, errors[-1]) if index is None else (members[index], None)

    targets = _targets(errors, members)
    _check_queries(qubit, SURFACE_GATE, bounds, targets, pick, targets[::4])


@st.composite
def _custom_search(draw):
    """A valid qubit, code and small search bounds. Every value is drawn
    before anything is built, so an invalid draw only rejects the example."""
    majorana = draw(st.booleans())
    instruction_set = InstructionSet.MAJORANA if majorana else InstructionSet.GATE_BASED
    min_distance = draw(st.sampled_from((3, 4, 5, 7)))
    bounds_fields = dict(
        max_rounds=draw(st.integers(1, 3)),
        min_distance=min_distance,
        max_distance=draw(st.integers(min_distance, 13)),
        max_final_copies=draw(st.integers(1, 3)),
    )
    # Some final round of at most max_final_copies units promises a state at
    # 99% only if a unit's acceptance, 1 - 15 q - 356 p, is at least 1 - room.
    room = 0.01 ** (1 / bounds_fields["max_final_copies"])
    p_clifford = 10 ** draw(st.floats(-12.0, -3.0))
    # Down to 1 + 1e-12 times p_clifford: near-equal Clifford errors
    # across distances, where the sweep's pruning meets near ties.
    gap = 10 ** draw(st.floats(-12.0, 2.5))
    # Near a tie a unit's Clifford error p = a * r**k barely falls with the
    # distance, so a prefactor a above room / 356 leaves no factory to find.
    max_prefactor = room / 356 if gap < 1 else 0.3
    # A one-round factory's input error q is p_t itself.
    max_p_t = room / 15 if bounds_fields["max_rounds"] == 1 else 10**-1.3
    qubit_fields = dict(
        name="custom",
        instruction_set=instruction_set,
        t_meas=draw(st.integers(1, 1000)),
        p_clifford=p_clifford,
        p_t=10 ** draw(st.floats(-4.5, math.log10(max_p_t))),
        t_gate=None if majorana else draw(st.integers(1, 1000)),
    )
    code_fields = dict(
        name="custom",
        instruction_set=instruction_set,
        error_prefactor=10 ** draw(st.floats(-6.0, math.log10(max_prefactor))),
        threshold=min(0.5, p_clifford * (1 + gap)),
        tile_quadratic=draw(st.integers(0, 4)),
        tile_linear=draw(st.integers(-8, 8)),
        tile_constant=draw(st.integers(-20, 20)),
        step_gate_factor=0 if majorana else draw(st.integers(0, 6)),
        step_meas_factor=draw(st.integers(0, 20)),
    )
    try:
        return (
            PhysicalQubitParams(**qubit_fields),
            QecCodeModel(**code_fields),
            SearchBounds(**bounds_fields),
        )
    except ParameterError:
        assume(False)


@given(search=_custom_search())
# A T-state error near the formula's edge: 16 provisionings diverge, and
# 24 evaluable candidates leave 6 members.
@example(
    search=(
        qubit_preset("ns-e4")._replace(p_t=0.066595466),
        SURFACE_GATE,
        SearchBounds(max_rounds=2, max_distance=9, max_final_copies=3),
    )
)
@settings(deadline=None, derandomize=True, max_examples=60)
def test_custom_search_matches_brute_force_scan(search):
    qubit, code, bounds = search
    oracle = _oracle(qubit, code, bounds)
    members = _oracle_staircase(oracle)
    assert _full_sweep(qubit, code, bounds) == members
    targets = _targets([error for error, _ in oracle[0]], members)[::3]
    _check_queries(qubit, code, bounds, targets, lambda t: _oracle_pick(oracle, t), targets[::3])


def test_staircase_is_short_and_falling():
    bounds = SearchBounds()
    for qubit_name, code_name in _PAIRS:
        members = _full_sweep(qubit_preset(qubit_name), _code(code_name), bounds)
        assert 1 < len(members) <= 200
        errors = [m.output_error for m in members]
        costs = [m.qubit_count * m.duration for m in members]
        assert errors == sorted(errors, reverse=True)
        assert len(set(errors)) == len(errors)
        assert costs == sorted(costs)


def test_caches_are_bounded():
    cached = [
        getattr(module, name)
        for module in (qre.codes, qre.counting, qre.distillation, qre.estimator, qre.jobs)
        for name in dir(module)
        if hasattr(getattr(module, name), "cache_info")
    ]
    assert {f.__name__ for f in cached} >= {
        "_sweep",
        "provisioned_copies",
        "reliable_outputs",
    }
    for function in cached:
        assert function.cache_info().maxsize is not None, function.__name__
    assert distillation._sweep.cache_info().maxsize == 32


def test_parallel_frontier_builds_each_staircase_once(monkeypatch):
    """Building a sweep waits for a second thread to arrive, so without the
    lock two threads always both miss the cache; with it, the wait times out."""
    arrival = threading.Barrier(2, timeout=1.0)

    class WaitingSweep(distillation._Sweep):
        def __init__(self, *args):
            with contextlib.suppress(threading.BrokenBarrierError):
                arrival.wait()
            super().__init__(*args)

    monkeypatch.setattr(distillation, "_Sweep", WaitingSweep)
    qubit = qubit_preset("ns-e4")._replace(name="fresh-for-single-flight")
    reqs = LogicalRequirements(
        logical_qubits=20,
        min_time_steps=500,
        t_states=1000,
        error_budget=1e-2,
        split=BudgetSplit(),
    )
    factors = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)  # six threads, all missing one key
    before = distillation._sweep.cache_info().misses
    par = threaded_frontier(qubit, reqs, factors, codes=(SURFACE_GATE,))
    assert distillation._sweep.cache_info().misses - before == 1
    assert par == frontier(qubit, reqs, factors, codes=(SURFACE_GATE,))


def test_interrupted_sweep_loses_nothing(monkeypatch):
    """An exception in the middle of a step leaves the cached sweep whole."""

    class Interrupt(Exception):
        pass

    qubit, code, bounds = qubit_preset("maj-ns-e6"), _code("hastings-haah"), SearchBounds()
    expected = _full_sweep(qubit, code, bounds)
    calls = 0

    def flaky(real):
        def call(*args):
            nonlocal calls
            calls += 1
            if calls % 7 == 0:
                raise Interrupt
            return real(*args)

        return call

    monkeypatch.setattr(distillation, "evaluate_factory", flaky(evaluate_factory))
    monkeypatch.setattr(distillation, "provisioned_copies", flaky(distillation.provisioned_copies))
    sweep = distillation._Sweep(qubit, code, bounds)
    interrupts = 0
    while True:
        try:
            sweep.settle(0.0)
            break
        except Interrupt:
            interrupts += 1
    assert interrupts > 10
    assert sweep.factories == expected
