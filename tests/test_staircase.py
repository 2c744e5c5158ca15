"""The factory search against a brute-force scan, its caches, and its lock.

The oracle here re-enumerates every evaluable factory through the public
validator, in the search's generation order, and picks by a linear scan
with the documented cost key. ``search_factory`` must return the same
factory for every target, and report the same best error when no factory
meets it.
"""

import dataclasses
import math
import sys
from itertools import combinations_with_replacement, product

import pytest

import qre
from qre import (
    BUILTIN_CODES,
    SURFACE_GATE,
    DistillationUnitSpec,
    FactoryOutputError,
    InstructionSet,
    LogicalRequirements,
    NoFactoryError,
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
from qre.distillation import provisioned_copies

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


def _oracle(qubit_name, code_name, bounds):
    """Every evaluable factory as (output error, cost key), in generation order,
    and the factories themselves."""
    qubit = qubit_preset(qubit_name)
    code = _code(code_name)
    distances = [d for d in range(bounds.min_distance, bounds.max_distance + 1) if d % 2]
    patches = {d: patch(code, qubit, d) for d in distances}
    prefixes = [()]
    if qubit.instruction_set is InstructionSet.MAJORANA:
        prefixes += [(DistillationUnitSpec(kind=k),) for k in UnitKind]
    rows = []
    factories = []
    for total_rounds in range(1, bounds.max_rounds + 1):
        for prefix in prefixes:
            logical_rounds = total_rounds - len(prefix)
            if logical_rounds < 1:
                continue
            for kinds in product(UnitKind, repeat=logical_rounds):
                for combo in combinations_with_replacement(distances, logical_rounds):
                    units = prefix + tuple(
                        DistillationUnitSpec(kind=k, patch=patches[d])
                        for k, d in zip(kinds, combo)
                    )
                    for final_copies in range(1, bounds.max_final_copies + 1):
                        try:
                            error = qubit.p_t
                            acceptances = []
                            for unit in units:
                                error, acceptance = unit_output_error(
                                    error, unit.clifford_error(qubit)
                                )
                                acceptances.append(acceptance)
                            copies = [final_copies]
                            for acceptance in reversed(acceptances[:-1]):
                                copies.insert(0, provisioned_copies(15 * copies[0], acceptance))
                            factory = evaluate_factory(
                                [TFactoryRound(unit=u, copies=c) for u, c in zip(units, copies)],
                                qubit,
                            )
                        except (ValidityRangeError, FactoryOutputError):
                            continue
                        cost = factory.qubit_count * factory.duration
                        key = (cost, factory.qubit_count, factory.duration, len(rows))
                        rows.append((factory.output_error, key))
                        factories.append(factory)
    return tuple(rows), tuple(factories)


def _oracle_pick(oracle, target):
    """Cheapest factory meeting ``target`` by a full scan, else the best error."""
    rows, factories = oracle
    key = min((key for error, key in rows if error <= target), default=None)
    if key is not None:
        return factories[key[-1]], None
    return None, min((error for error, _ in rows), default=None)


def _targets(oracle, members):
    """Each member's error and its neighbouring floats, a target below every
    error, and a spread of about 50 of the candidates' own errors."""
    targets = {1e-3, 1e-30}
    if members:
        targets.add(members[-1].output_error / 2)
    for member in members:
        error = member.output_error
        targets.update((error, math.nextafter(error, math.inf), math.nextafter(error, 0.0)))
    errors = sorted({error for error, _ in oracle[0]})
    targets.update(errors[:: max(1, len(errors) // 50)])
    return sorted(targets)


@pytest.mark.parametrize("bounds", _BOUNDS, ids=["default", "two-rounds-d9", "one-round"])
@pytest.mark.parametrize("qubit_name, code_name", _PAIRS)
def test_search_matches_brute_force_scan(qubit_name, code_name, bounds):
    qubit = qubit_preset(qubit_name)
    code = _code(code_name)
    oracle = _oracle(qubit_name, code_name, bounds)
    _, members = distillation._staircase(qubit, code, bounds)
    for target in _targets(oracle, members):
        expected, best_error = _oracle_pick(oracle, target)
        if expected is None:
            with pytest.raises(NoFactoryError) as info:
                search_factory(qubit, code, target, bounds)
            assert info.value.best_output_error == best_error
        else:
            assert search_factory(qubit, code, target, bounds) == expected, target


def test_staircase_is_short_and_falling():
    bounds = SearchBounds()
    for qubit_name, code_name in _PAIRS:
        _, members = distillation._staircase(qubit_preset(qubit_name), _code(code_name), bounds)
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
        "_staircase",
        "provisioned_copies",
        "reliable_outputs",
    }
    for function in cached:
        assert function.cache_info().maxsize is not None, function.__name__


def test_parallel_frontier_builds_each_staircase_once():
    qubit = dataclasses.replace(qubit_preset("ns-e4"), name="fresh-for-single-flight")
    reqs = LogicalRequirements(
        logical_qubits=20,
        min_time_steps=500,
        t_states=1000,
        error_budget=1e-2,
        logical_budget=1e-2 / 3,
        distillation_budget=1e-2 / 3,
        synthesis_budget=1e-2 / 3,
    )
    factors = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)  # six threads, all missing one key
    before = distillation._staircase.cache_info().misses
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        par = frontier(qubit, reqs, factors, codes=(SURFACE_GATE,))
    finally:
        sys.setswitchinterval(interval)
    assert distillation._staircase.cache_info().misses - before == 1
    assert par == frontier(qubit, reqs, factors, parallel=False, codes=(SURFACE_GATE,))
