"""The factory search against the reference's scan, its caches, and its lock.

``reference.candidates`` enumerates every configuration in the search's
generation order from the model's formulas. qre's validator must build each
one with the same error, qubits, duration and output count, and provision
exactly its copies. The sweep behind ``search_factory`` must return the
reference's full-scan pick for every target, whether it starts fresh or
resumes after earlier queries in any order, report the same best error when
no factory meets the target, and hold exactly the reference's staircase once
it has run to its end. The preset sweeps and estimates make a pinned number
of heap pops and factory evaluations.
"""

import contextlib
import math
import random
import threading
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qre
import reference
from factories import factories
from qre import (
    HASTINGS_HAAH,
    SURFACE_GATE,
    BudgetSplit,
    InstructionSet,
    LogicalRequirements,
    NoFactoryError,
    ParameterError,
    PhysicalQubitParams,
    QecCodeModel,
    SearchBounds,
    application_preset,
    application_preset_names,
    estimate,
    evaluate_factory,
    frontier,
    qubit_preset,
    qubit_preset_names,
    search_factory,
)
from qre import distillation
from qre.bounds import BOUNDS
from qre.distillation import provisioned_copies
from threaded import threaded_frontier

_BOUNDS = (
    SearchBounds(),
    SearchBounds(max_rounds=2, max_distance=9),
    SearchBounds(max_rounds=1, min_distance=5, max_distance=17, max_final_copies=3),
)


def _evaluated(qubit, code, rows):
    """qre's factory of each reference row: the same error, qubits, duration and
    output count, each round but the last holding what qre provisions for the next."""
    built = list(factories(qubit, code, rows))
    for f, row in zip(built, rows):
        assert (f.output_error, f.qubit_count, f.duration, f.output_count) == row[:4]
        accepted = zip(f.rounds[1:], f.acceptance_probabilities)
        fed = [provisioned_copies(15 * r.copies, a) for r, a in accepted]
        assert [r.copies for r in f.rounds[:-1]] == fed
    return built


def _members(qubit, code, rows):
    return list(factories(qubit, code, reference.staircase(rows)))


def _pick(rows, built, cheapest):
    """The reference's cheapest factory meeting a target, else its best error."""
    best = min((row[0] for row in rows), default=None)
    return lambda t: (None, best) if (i := cheapest(t)) is None else (built[i], None)


def _full_sweep(qubit, code, bounds):
    sweep = distillation._Sweep(qubit, code, bounds)
    sweep.settle(0.0)
    assert not sweep._heap  # a finished sweep keeps only its members
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
@pytest.mark.parametrize("qubit, code", reference.PRESET_PAIRS, ids=lambda x: x.name)
def test_search_matches_brute_force_scan(qubit, code, bounds):
    rows, cheapest = reference.search(qubit, code, bounds)
    built = _evaluated(qubit, code, rows)
    members = _members(qubit, code, rows)
    assert _full_sweep(qubit, code, bounds) == members
    targets = _targets([row[0] for row in rows], members)
    # A fresh sweep per target costs up to a full sweep; about 40 of them.
    fresh = targets[:: max(1, len(targets) // 40)] + targets[-1:]
    _check_queries(qubit, code, bounds, targets, _pick(rows, built, cheapest), fresh)


def test_search_matches_streamed_staircase_at_caps():
    qubit = qubit_preset("ns-e4")
    bounds = SearchBounds(
        max_rounds=BOUNDS["max_rounds"][1],
        max_distance=BOUNDS["factory_distance"][1],
        max_final_copies=BOUNDS["max_final_copies"][1],
    )
    members = _members(qubit, SURFACE_GATE, reference.candidates(qubit, SURFACE_GATE, bounds))
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
    rows, cheapest = reference.search(qubit, code, bounds)
    built = _evaluated(qubit, code, rows)
    members = _members(qubit, code, rows)
    assert _full_sweep(qubit, code, bounds) == members
    targets = _targets([row[0] for row in rows], members)[::3]
    _check_queries(qubit, code, bounds, targets, _pick(rows, built, cheapest), targets[::3])


def test_staircase_is_short_and_falling():
    bounds = SearchBounds()
    for qubit, code in reference.PRESET_PAIRS:
        members = _full_sweep(qubit, code, bounds)
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


_CACHES = (distillation._sweep, distillation.provisioned_copies, distillation.reliable_outputs)


def _preset_estimates():
    """The 72 preset estimates (six qubits, three workloads, stretch 1, 2, 4
    and 8), from cleared caches."""
    for cache in _CACHES:
        cache.cache_clear()
    for qubit, app, c in product(qubit_preset_names(), application_preset_names(), (1, 2, 4, 8)):
        estimate(qubit_preset(qubit), application_preset(app).resolve(), c)


def test_preset_jobs_fill_the_stated_cache_keys():
    """The figures of the cache-bound comment above ``provisioned_copies``:
    the 72 preset estimates fill 6 sweeps, 13 provisioning and 187
    output-count keys."""
    _preset_estimates()
    assert [cache.cache_info().currsize for cache in _CACHES] == [6, 13, 187]


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

    qubit, code, bounds = qubit_preset("maj-ns-e6"), HASTINGS_HAAH, SearchBounds()
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


def _counting(monkeypatch, name):
    """Count the calls distillation makes to its module global ``name``."""
    calls = [0]
    real = getattr(distillation, name)

    def call(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(distillation, name, call)
    return calls


@pytest.mark.parametrize(
    "bounds, pops, evaluations, members",
    [
        (SearchBounds(), 17_253, 610, [20, 32, 39, 43, 137, 183, 91, 65]),
        (
            SearchBounds(max_rounds=4, max_distance=35, max_final_copies=4),
            18_888,
            459,
            [26, 37, 45, 47, 66, 138, 49, 51],
        ),
    ],
    ids=["default", "caps"],
)
def test_full_sweeps_do_the_pinned_work(monkeypatch, bounds, pops, evaluations, members):
    """The 8 preset pairs' full sweeps make exactly the pinned numbers of
    heap pops and factory evaluations, so a change to the sweep's
    bookkeeping that keeps its members cannot change its work."""
    popped = _counting(monkeypatch, "heappop")
    evaluated = _counting(monkeypatch, "evaluate_factory")
    sizes = [len(_full_sweep(qubit, code, bounds)) for qubit, code in reference.PRESET_PAIRS]
    assert (popped[0], evaluated[0], sizes) == (pops, evaluations, members)


def test_preset_estimates_do_the_pinned_work(monkeypatch):
    """The 72 preset estimates, from cleared caches, pop 661 heap entries
    and evaluate 74 factories."""
    popped = _counting(monkeypatch, "heappop")
    evaluated = _counting(monkeypatch, "evaluate_factory")
    _preset_estimates()
    assert (popped[0], evaluated[0]) == (661, 74)
