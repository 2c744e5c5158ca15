"""Randomized invariants over the estimation pipeline.

The fixed-value tests pin the numbers the reference tables publish; the
suites here cover what those tables leave open: minimality of the selected
distance, parity and floor, error-budget conservation, factory cost
accounting, monotonicity of the factory count in the stretch factor,
frontier determinism, and agreement with ``reference.py``, which reruns the
whole pipeline from the model's formulas: on every preset qubit with the
built-in codes and custom ones at small factory bounds, and per code on the
preset matrix at the default bounds. A test keeps the reference from
calling the model it checks.
"""

import ast
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from qre import (
    BUILTIN_CODES,
    HASTINGS_HAAH,
    SURFACE_GATE,
    SURFACE_MEAS,
    AboveThresholdError,
    DistanceCapError,
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
    reqs = LogicalRequirements(logical_qubits, min_steps, t_states, budget)
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
    reqs = LogicalRequirements(logical_qubits, min_steps, t_states, budget)
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
    reqs = LogicalRequirements(logical_qubits, min_steps, t_states, budget)
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
    reqs = LogicalRequirements(20, 500, 1000, 1e-2)
    par = threaded_frontier(qubit, reqs, factors, factory_bounds=_FRONTIER_BOUNDS)
    seq = frontier(qubit, reqs, tuple(factors), factory_bounds=_FRONTIER_BOUNDS)
    assert par == seq
    steps = [e.time_steps for e in par]
    assert steps == sorted(steps)


# --- Against the reference model, which reruns the pipeline from its formulas --

_ORACLE_BOUNDS = SearchBounds(max_rounds=2, max_distance=9)
_QRE_NAMES = {"qubit_preset", "qubit_preset_names", "BUILTIN_CODES", "InstructionSet"}
_MODEL_METHODS = {"logical_error", "tile_qubits", "step_time", "costs", "_suppression_base"}


def _dependences(source):
    """What ``source`` takes from qre beyond presets and instruction sets,
    from the test modules, or from qre's model methods by an attribute call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] == "qre"]
            found += [a.name for a in node.names if a.name.startswith("test_")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.partition(".")[0] == "qre":
                found += sorted({a.name for a in node.names} - _QRE_NAMES)
            found += [node.module] if node.module.startswith("test_") else []
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found += [node.func.attr] if node.func.attr in _MODEL_METHODS else []
    return found


def test_reference_stays_independent_of_the_model():
    """A reference that calls the code it checks checks nothing."""
    assert _dependences(Path(reference.__file__).read_text()) == []
    for source in (
        "import qre.distillation",
        "from qre import patch",
        "from qre.codes import required_distance",
        "import test_staircase",
        "from test_staircase import _candidates",
        "code.logical_error(qubit, 3)",
        "spec.costs(qubit)",
    ):
        assert _dependences(source), source


def _summary(est):
    """An estimate in the reference's terms."""
    f = est.factory
    rounds = f and tuple((r.unit.kind.value, r.unit.distance, r.copies) for r in f.rounds)
    factory = f and (f.output_error, f.qubit_count, f.duration, f.output_count, rounds)
    fields = est.distance, est.time_steps, est.runtime, est.factory_count, est.physical_qubits
    return est.code, *fields, factory


def _differential(qubit, reqs, c_factor, codes, bounds):
    """qre's estimate, or the name of the error it raises; the reference gives the same."""
    expected = reference.estimate(qubit, reqs, c_factor, codes, bounds)
    try:
        est = estimate(qubit, reqs, c_factor, codes=codes, factory_bounds=bounds)
    except (NoFactoryError, DistanceCapError, AboveThresholdError) as error:
        assert expected == type(error).__name__
        return expected
    assert _summary(est) == expected
    return est


def test_per_code_estimates_match_the_reference():
    """Every preset cell at stretch 1, 2, 4 and 8, run with each compatible
    code alone at the default bounds. On maj-ns-e6, surface-meas alone needs
    fewer qubits and a longer run in all 12 cells than the default estimate,
    whose code is hastings-haah."""
    slimmer = 0
    for qubit, code in reference.PRESET_PAIRS:
        for app, c_factor in product(application_preset_names(), (1, 2, 4, 8)):
            reqs = application_preset(app).resolve()
            est = _differential(qubit, reqs, c_factor, (code,), SearchBounds())
            assert not isinstance(est, str), (qubit.name, code.name, app, c_factor, est)
            if qubit.name == "maj-ns-e6" and code is SURFACE_MEAS:
                default = estimate(qubit, reqs, c_factor)
                assert default.code is HASTINGS_HAAH
                assert est.physical_qubits < default.physical_qubits
                assert est.runtime > default.runtime
                slimmer += 1
    assert slimmer == 12


# A Majorana preset with a physical first round; a custom code with half
# surface-gate's tile, which wins; and a target below every factory of the
# small bounds.
_MAJORANA = ("maj-ns-e4", [], 20, 1000, 1000, 0.1, 1.0)
_HALF_TILE = SURFACE_GATE._replace(name="half-tile", tile_quadratic=1)
_CUSTOM_WIN = ("ns-e4", [_HALF_TILE], 20, 1000, 1000, 0.01, 2.0)
_NO_FACTORY = ("us-e3", [], 20, 1000, 2000, 1e-3, 1.0)


def _oracle(name, custom, logical_qubits, min_steps, t_states, budget, c_factor):
    reqs = LogicalRequirements(logical_qubits, min_steps, t_states, budget)
    codes = BUILTIN_CODES + tuple(custom)
    return _differential(qubit_preset(name), reqs, c_factor, codes, _ORACLE_BOUNDS)


@given(
    name=st.sampled_from(_PRESET_NAMES),
    custom=st.lists(_custom_code(), max_size=2),
    logical_qubits=st.integers(2, 50),
    min_steps=st.integers(10, 5000),
    t_states=st.one_of(st.just(0), st.integers(1, 2000)),
    budget=st.floats(1e-3, 0.1),
    c_factor=st.floats(1.0, 4.0),
)
@example(*_MAJORANA)
@example(*_CUSTOM_WIN)
@example(*_NO_FACTORY)
@settings(deadline=None, derandomize=True, max_examples=250)
def test_brute_force_oracle(name, custom, logical_qubits, min_steps, t_states, budget, c_factor):
    _oracle(name, custom, logical_qubits, min_steps, t_states, budget, c_factor)


def test_oracle_examples_reach_their_cases():
    assert _oracle(*_MAJORANA).factory.rounds[0].unit.distance is None
    assert _oracle(*_CUSTOM_WIN).code is _HALF_TILE
    assert _oracle(*_NO_FACTORY) == "NoFactoryError"
