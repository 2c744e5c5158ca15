"""Randomized invariants over the estimation pipeline.

The fixed-value tests pin the numbers the reference tables publish; the
suites here cover what those tables leave open: minimality of the selected
distance, parity and floor, error-budget conservation, factory cost
accounting, monotonicity of the factory count in the stretch factor,
frontier determinism, and agreement with a straight-line re-implementation
of the whole pipeline on small instances.
"""

import math
from functools import lru_cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qre import (
    HASTINGS_HAAH,
    SURFACE_GATE,
    AboveThresholdError,
    BudgetSplit,
    DistanceCapError,
    InstructionSet,
    LogicalRequirements,
    NoFactoryError,
    ParameterError,
    PhysicalQubitParams,
    QecCodeModel,
    SearchBounds,
    estimate,
    estimator,
    evaluate_factory,
    frontier,
    qubit_preset,
    required_distance,
    search_factory,
    select_code,
)
from threaded import threaded_frontier

_PRESET_NAMES = ("us-e3", "us-e4", "ns-e3", "ns-e4", "maj-ns-e4", "maj-ns-e6")


def _requirements(logical_qubits, min_time_steps, t_states, budget):
    return LogicalRequirements(
        logical_qubits=logical_qubits,
        min_time_steps=min_time_steps,
        t_states=t_states,
        error_budget=budget,
        split=BudgetSplit(),
    )


@given(
    prefactor=st.floats(0.01, 0.5),
    threshold=st.floats(1e-4, 0.05),
    ratio=st.floats(1e-3, 0.5),
    exponent=st.floats(-60.0, -1.0),
)
@settings(deadline=None, derandomize=True, max_examples=250)
def test_distance_minimality(prefactor, threshold, ratio, exponent):
    """The selected distance meets the target and the next one down does not."""
    code = SURFACE_GATE._replace(error_prefactor=prefactor, threshold=threshold)
    qubit = qubit_preset("ns-e4")._replace(name="synthetic", p_clifford=ratio * threshold)
    target = 10.0**exponent
    d = required_distance(code, qubit, target, distance_cap=9999)
    assert d >= 3 and d % 2 == 1
    assert code.logical_error(qubit, d) <= target
    if d > 3:
        assert code.logical_error(qubit, d - 2) > target


@given(
    name=st.sampled_from(_PRESET_NAMES),
    exponent=st.floats(-25.0, -2.0),
)
@settings(deadline=None, derandomize=True, max_examples=100)
def test_distance_parity_and_floor(name, exponent):
    qubit = qubit_preset(name)
    target = 10.0**exponent
    code, d = select_code(qubit, target)
    assert d >= 3 and d % 2 == 1
    assert code.instruction_set is qubit.instruction_set
    assert code.logical_error(qubit, d) <= target


_SMALL_BOUNDS = SearchBounds(max_rounds=2, max_distance=9)


@given(
    name=st.sampled_from(("us-e4", "ns-e4")),
    logical_qubits=st.integers(1, 500),
    min_steps=st.integers(1, 10**6),
    t_states=st.one_of(st.just(0), st.integers(1, 10**5)),
    budget=st.floats(1e-4, 0.2),
    c_factor=st.floats(1.0, 20.0),
)
@settings(deadline=None, derandomize=True, max_examples=150)
def test_budget_conservation(name, logical_qubits, min_steps, t_states, budget, c_factor):
    """No estimate spends more than its logical or distillation budget share."""
    reqs = _requirements(logical_qubits, min_steps, t_states, budget)
    est = estimate(qubit_preset(name), reqs, c_factor, factory_bounds=_SMALL_BOUNDS)
    assert est.logical_error_used <= reqs.logical_budget
    if t_states:
        assert est.t_error_used <= reqs.distillation_budget
    assert est.runtime == est.time_steps * est.step_time
    assert est.algorithm_qubits + est.factory_qubits == est.physical_qubits


_ACCOUNTING_BOUNDS = SearchBounds(max_rounds=2, max_distance=13)


@given(
    name=st.sampled_from(("us-e4", "ns-e4", "maj-ns-e6")),
    exponent=st.floats(-9.0, -5.0),
)
@settings(deadline=None, derandomize=True, max_examples=150)
def test_factory_accounting(name, exponent):
    """Footprint is the widest round, duration the sum over rounds."""
    qubit = qubit_preset(name)
    code = (
        HASTINGS_HAAH
        if qubit.instruction_set is InstructionSet.MAJORANA
        else SURFACE_GATE
    )
    target = 10.0**exponent
    factory = search_factory(qubit, code, target, _ACCOUNTING_BOUNDS)
    assert factory.output_error <= target
    widths = [r.copies * r.unit.costs(qubit)[0] for r in factory.rounds]
    assert factory.qubit_count == max(widths)
    assert factory.duration == sum(r.unit.costs(qubit)[1] for r in factory.rounds)
    assert 1 <= factory.output_count <= factory.rounds[-1].copies
    for acceptance in factory.acceptance_probabilities:
        assert 0.0 < acceptance <= 1.0
    assert evaluate_factory(factory.rounds, qubit) == factory


_MONO_BOUNDS = SearchBounds(max_rounds=2, max_distance=25)


@given(
    name=st.sampled_from(("us-e3", "us-e4", "ns-e3", "ns-e4")),
    logical_qubits=st.integers(2, 100),
    min_steps=st.integers(1000, 10**6),
    t_states=st.integers(1, 10**5),
    budget=st.floats(1e-4, 0.1),
    f1=st.floats(1.0, 30.0),
    delta=st.floats(0.1, 30.0),
)
@settings(deadline=None, derandomize=True, max_examples=100)
def test_factories_non_increasing(
    name, logical_qubits, min_steps, t_states, budget, f1, delta
):
    """Stretching the schedule never calls for more factories."""
    reqs = _requirements(logical_qubits, min_steps, t_states, budget)
    qubit = qubit_preset(name)
    slow = estimate(qubit, reqs, f1 + delta, factory_bounds=_MONO_BOUNDS)
    fast = estimate(qubit, reqs, f1, factory_bounds=_MONO_BOUNDS)
    assert slow.factory_count <= fast.factory_count
    assert slow.runtime >= fast.runtime


_INTERLOCK_BOUNDS = SearchBounds(max_rounds=2, max_distance=15)


@st.composite
def _custom_code(draw):
    instruction_set = draw(st.sampled_from(InstructionSet))
    gate_based = instruction_set is InstructionSet.GATE_BASED
    fields = dict(
        name=f"custom-{draw(st.integers(0, 10**6))}",
        instruction_set=instruction_set,
        error_prefactor=10 ** draw(st.floats(-6.0, -0.5)),
        threshold=10 ** draw(st.floats(-3.0, -1.5)),
        tile_quadratic=draw(st.integers(0, 6)),
        tile_linear=draw(st.integers(-8, 20)),
        tile_constant=draw(st.integers(-20, 20)),
        step_gate_factor=draw(st.integers(0, 30)) if gate_based else 0,
        step_meas_factor=draw(st.integers(0 if gate_based else 1, 30)),
    )
    try:
        return QecCodeModel(**fields)
    except ParameterError:
        assume(False)


@given(
    gate_based=st.booleans(),
    t_gate=st.integers(1, 10**4),
    t_meas=st.integers(1, 10**4),
    p_clifford=st.floats(-6.0, -3.5),
    p_t=st.floats(-4.0, -1.3),
    codes=st.lists(_custom_code(), min_size=1, max_size=5),
    logical_qubits=st.integers(1, 100),
    min_steps=st.integers(1, 10**4),
    t_states=st.integers(1, 10**10),
    budget=st.floats(1e-4, 0.1),
    c_factor=st.floats(1.0, 4.0),
)
@settings(deadline=None, derandomize=True, max_examples=150)
def test_interlock_factory_keeps_up(
    gate_based,
    t_gate,
    t_meas,
    p_clifford,
    p_t,
    codes,
    logical_qubits,
    min_steps,
    t_states,
    budget,
    c_factor,
):
    """Every returned estimate runs its factory within its runtime, also when
    the schedule's padding switches between codes and so between factories;
    each pass that does not settle pads for a code no earlier pass did."""
    instruction_set = InstructionSet.GATE_BASED if gate_based else InstructionSet.MAJORANA
    compatible = [c for c in codes if c.instruction_set is instruction_set]
    assume(compatible)
    qubit = PhysicalQubitParams(
        name="interlock",
        instruction_set=instruction_set,
        t_meas=t_meas,
        p_clifford=10**p_clifford,
        p_t=10**p_t,
        t_gate=t_gate if gate_based else None,
    )
    reqs = _requirements(logical_qubits, min_steps, t_states, budget)
    picks = []

    def recording(*args):
        code, distance = select_code(*args)
        picks.append(code)
        return code, distance

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator, "select_code", recording)
        try:
            est = estimate(
                qubit, reqs, c_factor, codes=tuple(codes), factory_bounds=_INTERLOCK_BOUNDS
            )
        except (NoFactoryError, DistanceCapError, AboveThresholdError):
            return
    assert est.runtime == est.time_steps * est.step_time
    assert est.factory.duration <= est.runtime
    padded = picks[:-1]
    assert len(picks) <= len(compatible) + 1
    assert len(set(padded)) == len(padded)


_FRONTIER_BOUNDS = SearchBounds(max_rounds=2, max_distance=13)


@given(
    name=st.sampled_from(_PRESET_NAMES),
    factors=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=4),
)
@settings(deadline=None, derandomize=True, max_examples=100)
def test_frontier_parallel_matches_sequential(name, factors):
    qubit = qubit_preset(name)
    reqs = _requirements(20, 500, 1000, 1e-2)
    par = threaded_frontier(qubit, reqs, factors, factory_bounds=_FRONTIER_BOUNDS)
    seq = frontier(qubit, reqs, tuple(factors), factory_bounds=_FRONTIER_BOUNDS)
    assert par == seq
    steps = [e.time_steps for e in par]
    assert steps == sorted(steps)


# --- Brute-force oracle ------------------------------------------------------
# A from-scratch rerun of the pipeline: exhaustive scans instead of closed
# forms and cached searches. Unit cost tables are restated literally.

_ORACLE_BOUNDS = SearchBounds(max_rounds=2, max_distance=9)
_ORACLE_CONFIDENCE = 0.99


def _oracle_distance(qubit, target):
    ratio = qubit.p_clifford / 0.01
    for d in range(3, 52, 2):
        if 0.03 * ratio ** ((d + 1) / 2) <= target:
            return d
    raise AssertionError("oracle scan ran past the default cap")


def _oracle_tail(successes, trials, acceptance):
    return float(binom.sf(successes - 1, trials, acceptance))


def _oracle_copies(required, acceptance):
    if required <= 0:
        return 0
    if acceptance**required >= _ORACLE_CONFIDENCE:
        return required
    trials = required
    while _oracle_tail(required, trials, acceptance) < _ORACLE_CONFIDENCE:
        trials += 1
    return trials


def _oracle_reliable(copies, acceptance):
    if acceptance**copies >= _ORACLE_CONFIDENCE:
        return copies
    for m in range(copies, 0, -1):
        if _oracle_tail(m, copies, acceptance) >= _ORACLE_CONFIDENCE:
            return m
    return 0


@lru_cache(maxsize=None)
def _oracle_factories(name):
    """All candidate factories for a gate-based preset, in generation order.

    Each entry is (qubits, duration, output_error, output_count).
    """
    qubit = qubit_preset(name)
    step_ns = 4 * qubit.t_gate + 2 * qubit.t_meas
    ratio = qubit.p_clifford / 0.01
    # (qubit factor, duration factor) per unit layout, in search order
    layouts = ((20, 13), (31, 11))
    distances = (3, 5, 7, 9)
    found = []
    for rounds in range(1, _ORACLE_BOUNDS.max_rounds + 1):
        for kinds in product(layouts, repeat=rounds):
            for combo in combinations_with_replacement(distances, rounds):
                for final_copies in (1, 2):
                    error = qubit.p_t
                    acceptances = []
                    for d in combo:
                        patch_error = 0.03 * ratio ** ((d + 1) / 2)
                        acceptances.append(1.0 - 15.0 * error - 356.0 * patch_error)
                        error = 35.0 * error**3 + 7.1 * patch_error
                    copies = [0] * rounds
                    copies[-1] = final_copies
                    for i in range(rounds - 2, -1, -1):
                        copies[i] = _oracle_copies(15 * copies[i + 1], acceptances[i])
                    delivered = _oracle_reliable(copies[-1], acceptances[-1])
                    if delivered == 0:
                        continue
                    qubits = max(
                        c * kind[0] * 2 * d * d
                        for c, (kind, d) in zip(copies, zip(kinds, combo))
                    )
                    duration = sum(
                        kind[1] * step_ns * d for kind, d in zip(kinds, combo)
                    )
                    found.append((qubits, duration, error, delivered))
    return tuple(found)


def _oracle_pick(name, target):
    best = None
    best_key = None
    for index, entry in enumerate(_oracle_factories(name)):
        qubits, duration, error, _ = entry
        if error > target:
            continue
        key = (qubits * duration, qubits, duration, index)
        if best_key is None or key < best_key:
            best, best_key = entry, key
    assert best is not None, "oracle found no factory"
    return best


def _oracle_estimate(name, reqs, c_factor):
    qubit = qubit_preset(name)
    steps = max(1, math.ceil(c_factor * reqs.min_time_steps))
    factory = None
    # One code: a pad for it settles the next pass (the interlock's bound).
    for _ in range(2):
        target = reqs.logical_budget / (reqs.logical_qubits * steps)
        d = _oracle_distance(qubit, target)
        step_time = (4 * qubit.t_gate + 2 * qubit.t_meas) * d
        runtime = step_time * steps
        if reqs.t_states <= 0:
            factory = None
            break
        factory = _oracle_pick(name, reqs.distillation_budget / reqs.t_states)
        if factory[1] <= runtime:
            break
        steps = max(steps, math.ceil(factory[1] / step_time))
    else:
        raise AssertionError("oracle interlock did not settle in 2 passes")
    if factory is None:
        count = 0
        factory_qubits = 0
    else:
        count = math.ceil(reqs.t_states * factory[1] / (factory[3] * runtime))
        factory_qubits = count * factory[0]
    physical = factory_qubits + reqs.logical_qubits * 2 * d * d
    return d, steps, runtime, count, physical, factory


@given(
    name=st.sampled_from(("us-e4", "ns-e4")),
    logical_qubits=st.integers(2, 50),
    min_steps=st.integers(10, 5000),
    t_states=st.one_of(st.just(0), st.integers(1, 2000)),
    budget=st.floats(1e-3, 0.1),
    c_factor=st.floats(1.0, 4.0),
)
@settings(deadline=None, derandomize=True, max_examples=250)
def test_brute_force_oracle(name, logical_qubits, min_steps, t_states, budget, c_factor):
    reqs = _requirements(logical_qubits, min_steps, t_states, budget)
    est = estimate(
        qubit_preset(name), reqs, c_factor, factory_bounds=_ORACLE_BOUNDS
    )
    d, steps, runtime, count, physical, factory = _oracle_estimate(
        name, reqs, c_factor
    )
    assert est.distance == d
    assert est.time_steps == steps
    assert est.runtime == runtime
    assert est.factory_count == count
    assert est.physical_qubits == physical
    if factory is None:
        assert est.factory is None
    else:
        assert est.factory.qubit_count == factory[0]
        assert est.factory.duration == factory[1]
        assert est.factory.output_error == factory[2]
        assert est.factory.output_count == factory[3]
