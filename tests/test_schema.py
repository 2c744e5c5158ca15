"""The job schema pass against jsonschema.

``parse_job`` checks job shape with a stdlib walk over ``_SCHEMA``.
jsonschema is a test-only oracle here, with one change: "integer" means a
JSON integer, so ``2.0`` is not one. Mutated jobs must be rejected by the
walk exactly when the oracle reports an error, and where the oracle
reports one error outside an ``anyOf`` both must name the same node.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qre import SchemaError
from qre.jobs import _SCHEMA, _pointer, _schema_pass

jsonschema = pytest.importorskip("jsonschema")


def _strict_integer(checker, instance):
    return isinstance(instance, int) and not isinstance(instance, bool)


_ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", _strict_integer
    ),
)(_SCHEMA)

_DURATION = {"value": 100, "unit": "ns"}

VALID_JOBS = [
    {"qubit": "ns-e4", "application": "dynamics"},
    {
        "qubit": {
            "name": "gate",
            "instruction_set": "gate-based",
            "t_gate": {"value": 50, "unit": "ns"},
            "t_meas": _DURATION,
            "p_clifford": 1e-4,
            "p_t": 1e-4,
        },
        "application": {
            "counts": {
                "algorithm_qubits": 100,
                "measurements": 1e6,
                "rotations": 10,
                "t_gates": 5,
                "toffoli_gates": 0,
                "rotation_layers": 2,
                "error_budget": 0.01,
            }
        },
        "budget_split": {"logical": 0.5, "distillation": 0.25, "synthesis": 0.25},
        "c_factor": 2,
    },
    {
        "qubit": {
            "instruction_set": "majorana",
            "t_meas": {"value": 1, "unit": "us"},
            "p_clifford": 1e-6,
            "p_t": 0.01,
        },
        "application": {
            "requirements": {
                "logical_qubits": 50,
                "min_time_steps": 1e5,
                "t_states": 1e4,
                "error_budget": 1e-2,
            }
        },
        "overrides": {
            "synthesis": {"scale": 0.6, "offset": 5.0},
            "max_code_distance": 41,
            "factory": {
                "max_rounds": 2,
                "min_distance": 5,
                "max_distance": 15,
                "max_final_copies": 3,
            },
        },
        "frontier_factors": [1, 2.5, 4],
    },
    {
        "qubit": "maj-ns-e4",
        "application": {
            "ising": {"N": 100, "T": 20, "M_meas": 50, "error_budget": 1e-3},
        },
        "codes": [
            {
                "name": "wide-surface",
                "instruction_set": "gate-based",
                "error_prefactor": 0.03,
                "threshold": 0.01,
                "qubits_per_tile": {"quadratic": 4, "linear": 0, "constant": 1},
                "step_time": {"gate_factor": 4, "meas_factor": 2},
            }
        ],
    },
]


def _property_names(schema):
    names = set()
    for key, value in schema.items():
        if key == "properties":
            names.update(value)
        if isinstance(value, dict):
            names |= _property_names(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict):
                    names |= _property_names(item)
    return names


_KEYS = st.sampled_from(sorted(_property_names(_SCHEMA))) | st.text(max_size=4)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 60)
    | st.integers()
    | st.integers(-3, 60).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["ns", "us", "ms", "gate-based", "majorana", "ns-e4", "dynamics", ""])
)
_VALUES = _LEAVES | st.lists(_LEAVES, max_size=2) | st.dictionaries(_KEYS, _LEAVES, max_size=2)


def _containers(node, path=()):
    """Every object and array in ``node`` with its path, parents first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _containers(child, (*path, key))


def _mutate(data, job):
    _, node = data.draw(st.sampled_from(list(_containers(job))))
    op = data.draw(st.sampled_from(["set", "delete", "add"]))
    if isinstance(node, dict):
        if op == "delete" and node:
            del node[data.draw(st.sampled_from(list(node)))]
            return
        key = data.draw(st.sampled_from(list(node)) if op == "set" and node else _KEYS)
        node[key] = data.draw(_VALUES)
    elif op == "delete" and node:
        node.pop(data.draw(st.integers(0, len(node) - 1)))
    elif op == "set" and node:
        node[data.draw(st.integers(0, len(node) - 1))] = data.draw(_VALUES)
    else:
        node.append(data.draw(_VALUES))


def _our_pointer(job):
    try:
        _schema_pass(job)
    except SchemaError as exc:
        return exc.pointer
    return None


def _assert_snapshot(job):
    """A valid job's schema pass returns an equal copy that shares no
    object or array with it."""
    snapshot = _schema_pass(job)
    assert snapshot == job
    ours = {id(node) for _, node in _containers(snapshot)}
    assert not ours & {id(node) for _, node in _containers(job)}


@pytest.mark.parametrize("job", VALID_JOBS)
def test_seed_jobs_are_valid(job):
    assert not list(_ORACLE.iter_errors(job))
    assert _our_pointer(job) is None
    _assert_snapshot(job)


@given(st.data())
@settings(deadline=None, derandomize=True, max_examples=800)
def test_schema_pass_agrees_with_jsonschema(data):
    job = copy.deepcopy(data.draw(st.sampled_from(VALID_JOBS)))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, job)
    errors = list(_ORACLE.iter_errors(job))
    pointer = _our_pointer(job)
    assert (pointer is not None) == bool(errors)
    if pointer is None:
        _assert_snapshot(job)
    if len(errors) == 1 and not errors[0].context:
        assert pointer == _pointer(*errors[0].absolute_path)


_MAJORANA = VALID_JOBS[2]["qubit"]


@pytest.mark.parametrize(
    "job, pointer",
    [
        ({"application": {"ising": {"N": 100.0, "T": 1}}}, "/application/ising/N"),
        ({"c_factor": True}, "/c_factor"),
        ({"application": {}}, "/application"),
        ({"application": {"ising": {}, "counts": {}}}, "/application"),
        ({"qubit": {"instruction_set": "x"}}, "/qubit"),
        ({"qubit": {**_MAJORANA, "instruction_set": "x"}}, "/qubit/instruction_set"),
        ({"frontier_factors": [2, 0.5]}, "/frontier_factors/1"),
    ],
)
def test_strict_pointers(job, pointer):
    """Integral floats are not integers, bools are not numbers, and an
    object (its required keys too) is checked before its children."""
    assert _our_pointer({"qubit": "ns-e4", "application": "dynamics", **job}) == pointer
