"""The numeric domain: one table of bounds, read by the schema and by each
parameter type when it is built.

Every number a job or a library caller supplies is checked against
``qre.bounds.BOUNDS``. Inside the table nothing the estimator derives
overflows, so every job ends in exit 0, 1 or 2 with one stderr line.
"""

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qre import (
    SURFACE_GATE,
    AlgorithmCounts,
    BudgetSplit,
    EstimatorError,
    LogicalRequirements,
    ParameterError,
    PhysicalQubitParams,
    QecCodeModel,
    SearchBounds,
    SynthesisModel,
    application_preset_names,
    estimate,
    frontier,
    logical_counts,
    parse_job,
    perfect_qubit_estimate,
    qubit_preset,
    qubit_preset_names,
    render,
    run,
)
from qre.bounds import BOUNDS, check
from qre.cli import main
from qre.jobs import _SCHEMA


def _numeric_nodes(schema, path=()):
    if schema.get("type") in ("number", "integer"):
        yield path, schema
    for key, child in schema.get("properties", {}).items():
        yield from _numeric_nodes(child, (*path, key))
    if "items" in schema:
        yield from _numeric_nodes(schema["items"], (*path, "items"))
    for index, branch in enumerate(schema.get("anyOf", ())):
        yield from _numeric_nodes(branch, (*path, index))


def test_every_schema_number_is_bounded_from_the_table():
    nodes = list(_numeric_nodes(_SCHEMA))
    assert len(nodes) > 30
    for path, node in nodes:
        assert "minimum" in node and "maximum" in node, path
        assert (node["minimum"], node["maximum"]) in BOUNDS.values(), path


# Where each parameter type sits in a job, and the job path of each field
# that the job names differently or nests.
_TYPE_NODES = {
    PhysicalQubitParams: (
        ("qubit",),
        {"t_meas": ("t_meas", "value"), "t_gate": ("t_gate", "value")},
    ),
    QecCodeModel: (
        ("codes", 0),
        {
            "tile_quadratic": ("qubits_per_tile", "quadratic"),
            "tile_linear": ("qubits_per_tile", "linear"),
            "tile_constant": ("qubits_per_tile", "constant"),
            "step_gate_factor": ("step_time", "gate_factor"),
            "step_meas_factor": ("step_time", "meas_factor"),
        },
    ),
    AlgorithmCounts: (("application", "counts"), {}),
    LogicalRequirements: (("application", "requirements"), {}),
    BudgetSplit: (("budget_split",), {}),
    SynthesisModel: (("overrides", "synthesis"), {}),
    SearchBounds: (("overrides", "factory"), {}),
}
# A job states what counts give; the type also admits what they derive.
_NARROWER = {"logical_qubits", "min_time_steps", "t_states"}


@pytest.mark.parametrize("record", _TYPE_NODES, ids=lambda record: record.__name__)
def test_schema_numbers_come_from_the_field_bounds(record):
    """Each type's numbers in the schema are its ``field_bounds``, typed from
    its annotations; where a job's bound is narrower, it lies inside the type's."""
    base, paths = _TYPE_NODES[record]
    expected = set()
    for field, kind in record.field_bounds.items():
        path = paths.get(field, (field,))
        expected.add(path)
        node = _node_at(_SCHEMA, (*base, *path))
        lo, hi = BOUNDS[kind]
        if record is LogicalRequirements and field in _NARROWER:
            assert lo <= node["minimum"] and node["maximum"] <= hi, field
            assert (node["minimum"], node["maximum"]) != (lo, hi), field
        else:
            assert (node["minimum"], node["maximum"]) == (lo, hi), field
        if path[-1] == "value":  # a duration, in the job's unit
            assert node["type"] == "number"
        else:
            integer = record.__annotations__[field] is int
            assert node["type"] == ("integer" if integer else "number"), field
    node = _node_at(_SCHEMA, base)
    node = next((s for s in node.get("anyOf", ()) if s["type"] == "object"), node)
    assert {path for path, _ in _numeric_nodes(node)} == expected


# --- main() over jobs drawn from the schema's shapes ------------------------

_GATE_QUBIT = {
    "name": "gate",
    "instruction_set": "gate-based",
    "t_gate": {"value": 50, "unit": "ns"},
    "t_meas": {"value": 100, "unit": "ns"},
    "p_clifford": 1e-4,
    "p_t": 1e-4,
}
_MAJORANA_QUBIT = {
    "instruction_set": "majorana",
    "t_meas": {"value": 1, "unit": "us"},
    "p_clifford": 1e-6,
    "p_t": 0.01,
}
_APPLICATIONS = [
    {
        "counts": {
            "algorithm_qubits": 100,
            "measurements": 1e6,
            "rotations": 1e4,
            "t_gates": 1e4,
            "toffoli_gates": 1e5,
            "rotation_layers": 1e3,
            "error_budget": 1e-3,
        }
    },
    {
        "requirements": {
            "logical_qubits": 100,
            "min_time_steps": 1e6,
            "t_states": 1e6,
            "error_budget": 1e-3,
        }
    },
    {"ising": {"N": 100, "T": 10, "M_meas": 100, "error_budget": 1e-3}},
]
_CODE = {
    "name": "wide",
    "instruction_set": "gate-based",
    "error_prefactor": 0.03,
    "threshold": 0.01,
    "qubits_per_tile": {"quadratic": 2, "linear": 0, "constant": 0},
    "step_time": {"gate_factor": 4, "meas_factor": 2},
}
_EXTRAS = {
    "c_factor": 2,
    "frontier_factors": [1, 2.5],
    "budget_split": {"logical": 0.3, "distillation": 0.3, "synthesis": 0.3},
    "overrides": {
        "synthesis": {"scale": 0.53, "offset": 5.3},
        "max_code_distance": 41,
        "factory": {"max_rounds": 2, "min_distance": 3, "max_distance": 15, "max_final_copies": 2},
    },
    "codes": [_CODE],
}


def _node_at(schema, path):
    """The schema node of the job value at ``path``."""
    for key in path:
        if "anyOf" in schema:
            schema = next(s for s in schema["anyOf"] if s["type"] == "object")
        schema = schema["items"] if isinstance(key, int) else schema["properties"][key]
    return schema


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_leaves(value, (*path, index))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _put(job, path, value):
    for key in path[:-1]:
        job = job[key]
    job[path[-1]] = value


def _edges(lo, hi, integer):
    """Values at, just inside and just past each end of a range."""
    if integer:
        return [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1]
    return [
        math.nextafter(lo, -math.inf),
        lo,
        math.nextafter(lo, math.inf),
        math.nextafter(hi, -math.inf),
        hi,
        math.nextafter(hi, math.inf),
    ]


_WILD = [1e308, 10**400, math.nan, math.inf, -math.inf]


@st.composite
def _jobs(draw):
    job = {
        "qubit": draw(st.sampled_from(["ns-e4", _GATE_QUBIT, _MAJORANA_QUBIT])),
        "application": draw(st.sampled_from(_APPLICATIONS)),
    }
    for key in sorted(_EXTRAS):
        if draw(st.booleans()):
            job[key] = _EXTRAS[key]
    job = copy.deepcopy(job)
    leaves = list(_numeric_leaves(job))
    for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3, unique=True)):
        node = _node_at(_SCHEMA, path)
        edges = _edges(node["minimum"], node["maximum"], node["type"] == "integer")
        # Half the draws stay in range, where values reach the estimator.
        _put(job, path, draw(st.sampled_from(edges[1:5]) | st.sampled_from(edges + _WILD)))
    return job


_FACTOR_VALUES = [str(v) for v in _edges(*BOUNDS["stretch"], False) + _WILD]


def _assert_one_line(job, command="estimate", flags=()):
    """Run ``main()`` on ``job``: exit 0 with output, or 1 or 2 with one line."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(job))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--job", path, *flags])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue()


@given(job=_jobs(), command=st.sampled_from(["estimate", "frontier"]), data=st.data())
@settings(deadline=None, derandomize=True, max_examples=1000)
def test_main_ends_every_job_in_one_line(job, command, data):
    flags = []
    if command == "frontier" and data.draw(st.booleans()):
        # The "=" form, since argparse would read "-inf" as an option.
        factors = data.draw(st.lists(st.sampled_from(_FACTOR_VALUES), min_size=1, max_size=2))
        flags.append("--factors=" + ",".join(factors))
    elif command == "frontier":
        job.setdefault("frontier_factors", [1, 2])
    _assert_one_line(job, command, flags)


@pytest.mark.parametrize(
    "job",
    [
        *({"qubit": _GATE_QUBIT, "application": app, **_EXTRAS} for app in _APPLICATIONS),
        {"qubit": _MAJORANA_QUBIT, "application": _APPLICATIONS[0]},
    ],
    ids=["counts", "requirements", "ising", "majorana"],
)
def test_main_at_every_edge_of_every_number(job):
    """Each numeric leaf in turn at each edge and wild value, the rest as is:
    the single-number corners that random draws reach only now and then."""
    for path in _numeric_leaves(job):
        node = _node_at(_SCHEMA, path)
        for value in _edges(node["minimum"], node["maximum"], node["type"] == "integer") + _WILD:
            bent = copy.deepcopy(job)
            _put(bent, path, value)
            _assert_one_line(bent)


# --- construction and estimate() for library callers ------------------------

_COUNTS = AlgorithmCounts(100, 1e6, 1e4, 1e4, 1e5, 1e3, 1e-3)
_REQUIREMENTS = LogicalRequirements(100, 1e6, 1e6, 1e-3, split=BudgetSplit(0.1, 0.1, 0.1))

_FIELDS = [
    (SynthesisModel(), "scale", "synthesis"),
    (SynthesisModel(), "offset", "synthesis"),
    (BudgetSplit(0.3, 0.3, 0.3), "logical", "budget_share"),
    (BudgetSplit(0.3, 0.3, 0.3), "distillation", "budget_share"),
    (BudgetSplit(0.3, 0.3, 0.3), "synthesis", "budget_share"),
    (_COUNTS, "algorithm_qubits", "qubits"),
    (_COUNTS, "measurements", "count"),
    (_COUNTS, "rotations", "count"),
    (_COUNTS, "t_gates", "count"),
    (_COUNTS, "toffoli_gates", "count"),
    (_COUNTS, "rotation_layers", "count"),
    (_COUNTS, "error_budget", "error_budget"),
    (_REQUIREMENTS, "logical_qubits", "logical_qubits"),
    (_REQUIREMENTS, "min_time_steps", "derived_time_steps"),
    (_REQUIREMENTS, "t_states", "derived_count"),
    (_REQUIREMENTS, "error_budget", "error_budget"),
    (qubit_preset("ns-e4"), "t_meas", "duration"),
    (qubit_preset("ns-e4"), "t_gate", "duration"),
    (qubit_preset("ns-e4"), "p_clifford", "probability"),
    (qubit_preset("ns-e4"), "p_t", "probability"),
    (SURFACE_GATE, "error_prefactor", "error_prefactor"),
    (SURFACE_GATE, "threshold", "probability"),
    (SURFACE_GATE, "tile_quadratic", "tile_coefficient"),
    (SURFACE_GATE, "tile_linear", "tile_coefficient"),
    (SURFACE_GATE, "tile_constant", "tile_coefficient"),
    (SURFACE_GATE, "step_gate_factor", "step_factor"),
    (SURFACE_GATE, "step_meas_factor", "step_factor"),
    (SearchBounds(), "max_rounds", "max_rounds"),
    (SearchBounds(), "min_distance", "factory_distance"),
    (SearchBounds(), "max_distance", "factory_distance"),
    (SearchBounds(), "max_final_copies", "max_final_copies"),
]


@pytest.mark.parametrize(
    "obj, field, bound", _FIELDS, ids=[f"{type(o).__name__}.{f}" for o, f, _ in _FIELDS]
)
def test_validate_rejects_past_its_bound(obj, field, bound):
    """Building a value past its bound raises: directly, through _replace() and
    through _make()."""
    lo, hi = BOUNDS[bound]
    if isinstance(getattr(obj, field), int):
        past = [hi + 1, lo - 1]
    else:
        past = [math.nextafter(hi, math.inf), math.nextafter(lo, -math.inf)]
    kwargs = obj._asdict()
    for value in [*past, 10**400]:
        with pytest.raises(ParameterError):
            type(obj)(**{**kwargs, field: value})
        with pytest.raises(ParameterError):
            obj._replace(**{field: value})
        with pytest.raises(ParameterError):
            type(obj)._make({**kwargs, field: value}.values())


def test_records_are_frozen_and_hash_by_value():
    """Records are the factory search's cache keys: no field can be assigned,
    and an equal copy hashes equal."""
    est = estimate(qubit_preset("ns-e4"), _REQUIREMENTS)
    params = {type(obj): obj for obj, _, _ in _FIELDS}.values()
    for obj in [*params, est, est.factory, est.factory.rounds[-1], est.factory.rounds[-1].unit]:
        field = obj._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        twin = copy.deepcopy(obj)
        assert twin is not obj and twin == obj and hash(twin) == hash(obj)


@pytest.mark.parametrize("c_factor", [math.nextafter(1e6, math.inf), 10**400, math.nan, 0.5])
def test_estimate_rejects_stretch_past_its_bound(c_factor):
    with pytest.raises(ParameterError):
        estimate(qubit_preset("ns-e4"), _REQUIREMENTS, c_factor)
    with pytest.raises(ParameterError):
        frontier(qubit_preset("ns-e4"), _REQUIREMENTS, (c_factor,))


def test_perfect_qubit_estimate_rejects_step_time_past_its_bound():
    top = BOUNDS["duration"][1]
    assert perfect_qubit_estimate(_REQUIREMENTS, top).runtime == _REQUIREMENTS.min_time_steps * top
    for step_time in (top + 1, 1e300, 10**400):
        with pytest.raises(ParameterError, match="step_time"):
            perfect_qubit_estimate(_REQUIREMENTS, step_time)


def test_in_bound_counts_give_in_bound_requirements():
    """Counts at their maxima, with synthesis constants at theirs and every
    budget at its floor, still resolve: the requirement bounds admit them."""
    top = BOUNDS["count"][1]
    floor = BOUNDS["error_budget"][0]
    counts = AlgorithmCounts(BOUNDS["qubits"][1], top, top, top, top, top, floor)
    synthesis = SynthesisModel(BOUNDS["synthesis"][1], BOUNDS["synthesis"][1])
    reqs = logical_counts(counts, BudgetSplit(floor, floor, floor), synthesis)
    assert reqs.t_states > top and reqs.min_time_steps > top
    for name in ("ns-e4", "maj-ns-e6"):
        with contextlib.suppress(EstimatorError):  # a result or a domain error, no overflow
            estimate(qubit_preset(name), reqs, BOUNDS["stretch"][1])


def test_distance_cap_env_is_checked_against_the_table(tmp_path, monkeypatch, capsys):
    """The CLI writes ``QRE_DMAX`` into the job, where the schema checks it."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"qubit": "ns-e4", "application": "dynamics"}))
    lo, hi = BOUNDS["code_distance"]
    for value in (hi, lo):
        monkeypatch.setenv("QRE_DMAX", str(value))
        assert main(["validate", "--job", str(path)]) == 0
    for value in (hi + 1, lo - 1, 10**400):
        monkeypatch.setenv("QRE_DMAX", str(value))
        assert main(["validate", "--job", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("(at /overrides/max_code_distance)\n")


def test_distance_cap_leaves_factory_distances_alone():
    """``max_code_distance`` caps the algorithm's patches only; the factory
    search keeps its own distance range."""
    job = parse_job(
        {
            "qubit": "ns-e4",
            "application": {
                "requirements": {
                    "logical_qubits": 1,
                    "min_time_steps": 1,
                    "t_states": 1e9,
                    "error_budget": 1e-3,
                }
            },
            "overrides": {"max_code_distance": 3},
        }
    )
    (est,) = run(job).estimates
    assert est.distance == 3
    assert [r.unit.distance for r in est.factory.rounds] == [5, 11]


def test_warm_preset_op_makes_few_checks(monkeypatch):
    """A warm preset op (parse, run, render) makes at most 6.34 ``check``
    calls on average (456 over 72 ops, 6.33, measured): an all-defaults
    parameter object is shared, not rebuilt and checked again, and
    requirements check their four fields, not three budget shares besides."""
    jobs = [
        {"qubit": qubit, "application": app, "c_factor": c_factor}
        for qubit in qubit_preset_names()
        for app in application_preset_names()
        for c_factor in (1, 2, 4, 8)
    ]
    for job in jobs:  # fill the caches
        render(run(parse_job(job)), "json")
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qre"]
    patched = [m for m in modules if getattr(m, "check", None) is check]
    assert sys.modules["qre.bounds"] in patched and len(patched) > 1
    for module in patched:
        monkeypatch.setattr(module, "check", counted)
    for job in jobs:
        render(run(parse_job(job)), "json")
    assert len(calls) / len(jobs) <= 6.34
