"""Job-file parsing, schema diagnostics and the command line."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qre import (
    BUILTIN_CODES,
    BudgetSplit,
    DistanceCapError,
    ParameterError,
    Report,
    SURFACE_GATE,
    SchemaError,
    SynthesisModel,
    application_preset,
    application_preset_names,
    estimate,
    ising_counts,
    logical_counts,
    parse_job,
    qubit_preset,
    render,
    run,
)
import qre
from qre.bounds import BOUNDS
from qre.cli import main


def _job(**extra):
    obj = {"qubit": "ns-e4", "application": "dynamics"}
    obj.update(extra)
    return obj


class TestParse:
    def test_preset_job(self):
        job = parse_job(_job())
        assert job.qubit.name == "ns-e4"
        assert job.requirements == application_preset("dynamics").resolve()
        assert job.notes == application_preset("dynamics").notes
        assert job.requirements.logical_qubits == 230
        assert job.factors == (1.0,)

    def test_ising_application(self):
        job = parse_job(
            {"qubit": "ns-e4", "application": {"ising": {"N": 100, "T": 20}}}
        )
        assert job.requirements.logical_qubits == 230
        assert job.requirements.t_states == 602_000
        assert job.notes == ()

    def test_inline_qubit_and_counts(self):
        job = parse_job(
            {
                "qubit": {
                    "instruction_set": "gate-based",
                    "t_gate": {"value": 50, "unit": "ns"},
                    "t_meas": {"value": 100, "unit": "ns"},
                    "p_clifford": 1e-4,
                    "p_t": 1e-4,
                },
                "application": {
                    "counts": {
                        "algorithm_qubits": 100,
                        "measurements": 1e6,
                        "error_budget": 0.01,
                    }
                },
                "budget_split": {
                    "logical": 0.5,
                    "distillation": 0.25,
                    "synthesis": 0.25,
                },
            }
        )
        assert job.qubit.t_gate == 50
        assert job.requirements.logical_qubits == 230
        assert job.requirements.logical_budget == pytest.approx(0.005)

    def test_inline_requirements(self):
        job = parse_job(
            {
                "qubit": "us-e3",
                "application": {
                    "requirements": {
                        "logical_qubits": 50,
                        "min_time_steps": 1e5,
                        "t_states": 1e4,
                        "error_budget": 1e-2,
                    }
                },
            }
        )
        assert job.requirements.t_states == 1e4
        assert job.requirements.distillation_budget == pytest.approx(1e-2 / 3)

    def test_custom_code(self):
        job = parse_job(
            _job(
                codes=[
                    {
                        "name": "wide-surface",
                        "instruction_set": "gate-based",
                        "error_prefactor": 0.03,
                        "threshold": 0.01,
                        "qubits_per_tile": {"quadratic": 4},
                        "step_time": {"gate_factor": 4, "meas_factor": 2},
                    }
                ]
            )
        )
        names = [code.name for code in job.codes]
        assert "wide-surface" in names and "surface-gate" in names

    def test_codes_list_each_model_once(self):
        # Copies of the built-ins and of an earlier custom code are the entries
        # already there; a new model follows the built-ins in job order.
        custom = SURFACE_GATE._replace(name="wide", error_prefactor=0.05)
        copies = [code.to_json() for code in (*BUILTIN_CODES, custom, custom)]
        assert parse_job(_job(codes=copies)).codes == BUILTIN_CODES + (custom,)

    def test_frontier_factors(self):
        job = parse_job(_job(frontier_factors=[1, 2, 4]))
        assert job.factors == (1.0, 2.0, 4.0)

    @pytest.mark.parametrize(
        ("extra", "factors"),
        [
            ({"c_factor": 3}, (3.0,)),
            ({"frontier_factors": [1, 2.5]}, (1.0, 2.5)),
            ({"c_factor": 3, "frontier_factors": [1, 2.5]}, (1.0, 2.5)),
        ],
        ids=["c_factor", "frontier", "both"],
    )
    def test_factors_rule(self, extra, factors):
        """A job runs its frontier_factors when it has them, else its
        c_factor, else 1 (test_preset_job); every factor is a float."""
        job = parse_job(_job(**extra))
        assert job.factors == factors
        assert all(type(f) is float for f in job.factors)

    def test_overrides(self):
        job = parse_job(
            _job(
                application={"ising": {"N": 100, "T": 20}},
                overrides={
                    "max_code_distance": 9,
                    "synthesis": {"scale": 0.6, "offset": 5.0},
                    "factory": {"max_rounds": 2},
                }
            )
        )
        assert job.distance_cap == 9
        synthesis = SynthesisModel(scale=0.6, offset=5.0)
        expected = logical_counts(ising_counts(100, 20, 1e-3), synthesis=synthesis)
        assert job.requirements == expected
        assert job.requirements.t_states != 602_000  # the default synthesis model's count
        assert job.factory_bounds.max_rounds == 2

    def test_echo_is_a_snapshot(self):
        """The report echoes the job as parsed; the caller's later edits to
        its nested objects and lists do not reach it."""
        obj = _job(
            application={"ising": {"N": 100, "T": 20}},
            overrides={"synthesis": {"scale": 0.6}},
            frontier_factors=[1, 2],
        )
        report = run(parse_job(obj))
        before = render(report)
        obj["application"]["ising"]["N"] = 400
        obj["overrides"]["synthesis"]["scale"] = 0.9
        obj["frontier_factors"].append(4)
        obj["frontier_factors"][0] = 8
        assert render(report) == before


class TestSchemaDiagnostics:
    @pytest.mark.parametrize(
        ("obj", "pointer"),
        [
            ({"application": "dynamics"}, "/"),
            ({"qubit": "ns-e4", "application": "dynamics", "bogus": 1}, "/"),
            ({"qubit": 3, "application": "dynamics"}, "/qubit"),
            (
                {"qubit": "ns-e4", "application": {"ising": {"N": "x", "T": 1}}},
                "/application/ising/N",
            ),
        ],
    )
    def test_pointers(self, obj, pointer):
        with pytest.raises(SchemaError) as exc:
            parse_job(obj)
        assert exc.value.pointer == pointer

    def test_unknown_qubit_preset(self):
        with pytest.raises(SchemaError, match="unknown preset") as exc:
            parse_job({"qubit": "trapped-ion", "application": "dynamics"})
        assert exc.value.pointer == "/qubit"

    def test_unknown_application_preset(self):
        with pytest.raises(SchemaError) as exc:
            parse_job({"qubit": "ns-e4", "application": "sorting"})
        assert exc.value.pointer == "/application"

    def test_non_square_lattice(self):
        with pytest.raises(SchemaError, match="perfect square") as exc:
            parse_job({"qubit": "ns-e4", "application": {"ising": {"N": 5, "T": 1}}})
        assert exc.value.pointer == "/application/ising/N"

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_job(["not", "a", "job"])


class TestDistanceCap:
    def test_job_cap(self, tmp_path, capsys):
        """The job's cap is echoed in the report, and the run keeps to it."""
        path = _write(tmp_path, _job(overrides={"max_code_distance": 41}))
        assert main(["estimate", "--job", path]) == 0
        assert json.loads(capsys.readouterr().out)["job"]["overrides"] == {"max_code_distance": 41}
        path = _write(
            tmp_path,
            {"qubit": "us-e3", "application": "dynamics", "overrides": {"max_code_distance": 5}},
        )
        assert main(["estimate", "--job", path]) == 1
        assert "distance" in capsys.readouterr().err

    def test_parse_job_reads_no_environment(self, tmp_path, capsys, monkeypatch):
        """Neither the library nor the CLI reads ``QRE_DMAX``: a set value,
        even one that would block the run or is not a number, changes no
        byte and no exit code."""
        expected = render(run(parse_job(_job())), "json")
        path = _write(tmp_path, _job())
        commands = [["estimate"], ["frontier", "--factors", "1,2"], ["validate"]]

        def outcomes():
            return [(main([*argv, "--job", path]), capsys.readouterr()) for argv in commands]

        unset = outcomes()
        assert [code for code, _ in unset] == [0, 0, 0]
        for value in ("3", "41", "tiny"):
            monkeypatch.setenv("QRE_DMAX", value)
            assert render(run(parse_job(_job())), "json") == expected
            assert outcomes() == unset

    def test_cap_can_block_a_run(self):
        job = parse_job({"qubit": "us-e3", "application": "dynamics",
                         "overrides": {"max_code_distance": 5}})
        with pytest.raises(DistanceCapError):
            run(job)


# Splits the sum rule accepts with no room to spare: each sums to just over 1.
_EDGE_SPLITS = {
    "dynamics": BudgetSplit(0.14, 0.729, 0.1310000010000001),
    "factoring": BudgetSplit(0.14, 0.729, 0.1310000010000001),
    "chemistry": BudgetSplit(0.751, 0.064, 0.18500000100000008),
}


@pytest.mark.parametrize("app", _EDGE_SPLITS)
def test_edge_split_runs_as_estimate_does(tmp_path, capsys, app):
    """A split that builds is the only budget check: the job runs, and its
    report is what ``estimate()`` gives with that split."""
    split = _EDGE_SPLITS[app]
    obj = _job(application=app, budget_split=split._asdict())
    assert main(["estimate", "--job", _write(tmp_path, obj)]) == 0
    preset = application_preset(app)
    est = estimate(qubit_preset("ns-e4"), preset.resolve(split))
    report = Report(parse_job(obj), (est,))
    assert capsys.readouterr().out == render(report) + "\n"


@st.composite
def _splits(draw):
    """Budget splits that build; many sum to the sum rule's limit, 1 + 1e-9."""
    lo, hi = BOUNDS["budget_share"]
    total = draw(st.sampled_from([1 + 1e-9, 1.0]) | st.floats(3 * lo, 1 + 1e-9))
    logical = max(lo, total * draw(st.floats(0, 1)))
    distillation = max(lo, (total - logical) * draw(st.floats(0, 1)))
    try:
        return BudgetSplit(logical, distillation, min(hi, total - logical - distillation))
    except ParameterError:
        assume(False)


_PRESET_BUDGETS = {
    name: application_preset(name).resolve().error_budget for name in application_preset_names()
}


@given(split=_splits(), eps=st.floats(*BOUNDS["error_budget"]))
@example(split=_EDGE_SPLITS["dynamics"], eps=1e-3)
@example(split=_EDGE_SPLITS["chemistry"], eps=BOUNDS["error_budget"][0])
@settings(deadline=None, derandomize=True, max_examples=200)
def test_every_split_that_builds_resolves_on_every_route(split, eps):
    """Each application route takes any split that builds, and divides the
    job's error budget by it."""
    inline = {
        "counts": {"algorithm_qubits": 100, "rotations": 1e4, "rotation_layers": 1e3},
        "requirements": {"logical_qubits": 100, "min_time_steps": 1e6, "t_states": 1e6},
        "ising": {"N": 100, "T": 20},
    }
    routes = list(_PRESET_BUDGETS.items())
    routes += [({key: {**value, "error_budget": eps}}, eps) for key, value in inline.items()]
    for application, budget in routes:
        reqs = parse_job(_job(application=application, budget_split=split._asdict())).requirements
        assert reqs.split == split and reqs.error_budget == budget
        assert reqs.logical_budget == split.logical * budget
        assert reqs.distillation_budget == split.distillation * budget


def _write(tmp_path, obj, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def factoring_job(tmp_path):
    return _write(tmp_path, {"qubit": "us-e4", "application": "factoring"})


class TestCli:
    def test_estimate_json_is_deterministic(self, factoring_job, capsys):
        assert main(["estimate", "--job", factoring_job]) == 0
        first = capsys.readouterr().out
        assert main(["estimate", "--job", factoring_job]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        est = payload["estimates"][0]
        assert est["distance"] == 13
        assert est["factory_count"] == 14
        # Canonical form: parse and re-serialize reproduces the bytes.
        canonical = json.dumps(
            payload, sort_keys=True, indent=2, separators=(",", ": ")
        )
        assert first == canonical + "\n"

    def test_estimate_markdown(self, factoring_job, capsys):
        assert main(["estimate", "--job", factoring_job, "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "| stretch |" in out
        assert "| 1 | surface-gate | 13 | 14 |" in out
        assert "8.7M" in out
        assert "accounting" in out

    @pytest.mark.parametrize("t_states", [5e-324, 1e-310, 0.5])
    def test_few_t_states_still_get_a_factory(self, tmp_path, capsys, t_states):
        """However few T states a job asks for, one factory serves them, and
        the per-state error target stays finite (a count below one is served
        as one state, so 5e-324 does not overflow it)."""
        requirements = {
            "logical_qubits": 10,
            "min_time_steps": 100,
            "t_states": t_states,
            "error_budget": 0.001,
        }
        job = _job(application={"requirements": requirements})
        target = parse_job(job).requirements.max_t_state_error
        assert math.isfinite(target) and target == pytest.approx(0.001 / 3)
        path = _write(tmp_path, job)
        assert main(["estimate", "--job", path]) == 0
        assert json.loads(capsys.readouterr().out)["estimates"][0]["factory_count"] >= 1

    def test_frontier_csv(self, tmp_path, capsys):
        path = _write(tmp_path, {"qubit": "ns-e4", "application": "dynamics"})
        code = main(["frontier", "--job", path, "--factors", "1,2,4,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and not out.endswith("\n\n")
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("c_factor,code,distance")

    def test_formats_are_the_renderers(self, factoring_job, capsys):
        """``render`` and both commands' ``--format`` accept the same names."""
        report = run(parse_job({"qubit": "us-e4", "application": "factoring"}))
        with pytest.raises(ParameterError, match=r"\('json', 'md', 'csv'\)"):
            render(report, "xml")
        for command in ("estimate", "frontier"):
            with pytest.raises(SystemExit) as info:
                main([command, "--job", factoring_job, "--format", "xml"])
            assert info.value.code == 2
            assert "(choose from 'json', 'md', 'csv')" in capsys.readouterr().err
        assert main(["estimate", "--job", factoring_job, "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == (
            "c_factor,code,distance,time_steps,runtime_ns,physical_qubits,"
            "factory_count,factory_qubits,factory_fraction"
        )
        assert len(row.split(",")) == len(header.split(","))

    def test_estimate_without_factory(self, tmp_path, capsys):
        """No T states, no factory: null in json, a zero count and share in md and csv."""
        requirements = {
            "logical_qubits": 50, "min_time_steps": 1e5, "t_states": 0, "error_budget": 1e-2,
        }
        path = _write(tmp_path, _job(application={"requirements": requirements}))
        out = {}
        for fmt in ("json", "md", "csv"):
            assert main(["estimate", "--job", path, "--format", fmt]) == 0
            out[fmt] = capsys.readouterr().out
        est = json.loads(out["json"])["estimates"][0]
        assert est["factory"] is None
        assert est["factory_count"] == 0
        assert est["physical_qubits"] == est["breakdown"]["algorithm_qubits"] == 4900
        assert est["breakdown"]["factory_qubits"] == 0
        assert est["breakdown"]["factory_fraction"] == 0.0
        assert est["breakdown"]["t_error_used"] == 0.0
        assert "| 1 | surface-gate | 7 | 0 | 0% | 4900 | 280 ms |" in out["md"].splitlines()
        assert out["csv"].splitlines()[1] == "1,surface-gate,7,100000,280000000,4900,0,0,0.0"

    def test_markdown_escapes_a_pipe_in_a_code_name(self, tmp_path, capsys):
        """A custom code named ``a|b`` fills one md cell, as ``a\\|b``, and a
        backslash is doubled before it; a line break in a name is a space."""
        for name, cell in (
            ("a|b", "a\\|b"),
            ("a\\", "a\\\\"),
            ("a\\|b", "a\\\\\\|b"),
            ("a\nb", "a b"),
            ("a\r\nb", "a  b"),
        ):
            code = {
                "name": name,
                "instruction_set": "gate-based",
                "error_prefactor": 0.03,
                "threshold": 0.01,
                "qubits_per_tile": {"quadratic": 1},
                "step_time": {"gate_factor": 1, "meas_factor": 1},
            }
            path = _write(tmp_path, _job(codes=[code]))
            assert main(["estimate", "--job", path, "--format", "md"]) == 0
            header, _, row, blank = capsys.readouterr().out.splitlines()[:4]
            assert row.startswith(f"| 1 | {cell} | ") and blank == ""
            # A pipe is escaped when an odd run of backslashes precedes it.
            pipes = re.findall(r"(?<!\\)(?:\\\\)*\|", row)
            assert len(pipes) == header.count("|")

    def test_frontier_needs_factors(self, factoring_job, tmp_path, capsys):
        """A job with no factors, or only a c_factor, has no sweep to run."""
        for path in (factoring_job, _write(tmp_path, _job(c_factor=3), "c_factor.json")):
            assert main(["frontier", "--job", path]) == 2
            assert capsys.readouterr().err == (
                "error: frontier needs --factors or frontier_factors in the job (at /)\n"
            )

    def test_estimate_runs_the_frontier_factors_over_c_factor(self, tmp_path, capsys):
        """Both commands sweep a job's frontier_factors; its c_factor is ignored."""
        path = _write(tmp_path, _job(c_factor=3, frontier_factors=[1, 2.5, 8]))
        assert main(["estimate", "--job", path]) == 0
        estimates = json.loads(capsys.readouterr().out)["estimates"]
        assert [e["c_factor"] for e in estimates] == [1.0, 2.5, 8.0]

    def test_factor_flag_replaces_the_job_list(self, tmp_path, capsys):
        """``--factors`` is written into the job, so the report echoes what ran."""
        path = _write(tmp_path, _job(frontier_factors=[4]))
        assert main(["frontier", "--job", path, "--factors", "1,2", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"frontier_factors": [\n      1.0,\n      2.0\n    ]' in out
        assert [e["c_factor"] for e in json.loads(out)["estimates"]] == [1.0, 2.0]

    @pytest.mark.parametrize("factors", ["1,2", "1,two"], ids=["factors", "bad-factors"])
    def test_extra_inputs_leave_a_non_object_job_to_the_schema(self, tmp_path, capsys, factors):
        """``--factors``, well formed or not, is written only into an object:
        any other job reaches the schema as it is."""
        for obj in ([1, 2], "job", None):
            assert main(["frontier", "--factors", factors, "--job", _write(tmp_path, obj)]) == 2
            err = capsys.readouterr().err
            assert err.endswith("(at /)\n") and err.count("\n") == 1

    def test_empty_factor_list_in_job(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {"qubit": "ns-e4", "application": "dynamics", "frontier_factors": []},
        )
        for command in ("estimate", "frontier"):
            assert main([command, "--job", path]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.rstrip().endswith("(at /frontier_factors)")

    def test_validate(self, factoring_job, capsys):
        assert main(["validate", "--job", factoring_job]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["estimate", "--job", str(tmp_path / "nope.json")]) == 2
        assert "cannot read job file" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--job", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"qubit": "\xff"}')
        assert main(["validate", "--job", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and err.count("\n") == 1

    def test_a_cheap_rotation_runs(self, tmp_path, capsys):
        """Synthesis constants that need no T gate for a rotation leave its
        counts as they are, rather than a negative step count failing a
        derived bound."""
        counts = {
            "algorithm_qubits": 10,
            "measurements": 100,
            "rotations": 0.001,
            "t_gates": 1000,
            "toffoli_gates": 0,
            "rotation_layers": 1,
            "error_budget": 0.9,
        }
        job = _job(
            application={"counts": counts},
            overrides={"synthesis": {"scale": 1000, "offset": 0}},
        )
        assert parse_job(job).requirements.t_states == 1000
        assert main(["estimate", "--job", _write(tmp_path, job)]) == 0

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        path = _write(tmp_path, {"qubit": "ns-e4"})
        assert main(["estimate", "--job", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_estimator_failure_exit_code(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {
                "qubit": {
                    "instruction_set": "gate-based",
                    "t_gate": {"value": 50, "unit": "ns"},
                    "t_meas": {"value": 100, "unit": "ns"},
                    "p_clifford": 0.5,
                    "p_t": 0.5,
                },
                "application": "dynamics",
            },
        )
        assert main(["estimate", "--job", path]) == 1
        assert "above threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [None, "qubits", "apps", "codes"])
    def test_presets_output_is_exact(self, capsys, kind):
        assert main(["presets"] if kind is None else ["presets", kind]) == 0
        sections = [f"{name}:\n{lines}" for name, lines in _PRESET_SECTIONS.items()]
        expected = {None: "\n\n".join(sections), **dict(zip(_PRESET_SECTIONS, sections))}
        assert capsys.readouterr() == (expected[kind] + "\n", "")

    def test_presets_unknown_section(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["presets", "bogus"])
        assert info.value.code == 2
        assert capsys.readouterr() == (
            "",
            "error: argument kind: invalid choice: 'bogus' (choose from 'qubits', 'apps', 'codes')\n",
        )


# The `qre presets` sections, byte for byte.
_PRESET_SECTIONS = {
    "qubits": """\
  us-e3        gate-based t_gate=100000ns t_meas=100000ns p_clifford=0.001 p_t=1e-06
  us-e4        gate-based t_gate=100000ns t_meas=100000ns p_clifford=0.0001 p_t=1e-06
  ns-e3        gate-based t_gate=50ns t_meas=100ns p_clifford=0.001 p_t=0.001
  ns-e4        gate-based t_gate=50ns t_meas=100ns p_clifford=0.0001 p_t=0.0001
  maj-ns-e4    majorana   t_meas=100ns p_clifford=0.0001 p_t=0.05
  maj-ns-e6    majorana   t_meas=100ns p_clifford=1e-06 p_t=0.01""",
    "apps": """\
  dynamics     Quantum dynamics of a 10x10 transverse-field Ising lattice
  chemistry    Ground-state energy of a correlated materials-science Hamiltonian
  factoring    Factoring a 2048-bit integer (cryptographically relevant RSA size)""",
    "codes": """\
  surface-gate   gate-based
  surface-meas   majorana
  hastings-haah  majorana""",
}


_INLINE_QUBIT = (
    '{"instruction_set": "gate-based", "t_gate": {"value": 50, "unit": "ns"}, '
    '"t_meas": {"value": %s, "unit": "ns"}, "p_clifford": 1e-4, "p_t": 1e-4}'
)
_COUNTS = (
    '{"counts": {"algorithm_qubits": 10, "rotations": %s, "rotation_layers": 10, '
    '"error_budget": 0.001}}'
)
# The built-in surface code at half its tile: another model under the same name.
_HALF_TILE = {**SURFACE_GATE.to_json(), "qubits_per_tile": {"quadratic": 1}}


class TestHostileInput:
    """Non-finite and overflowing numbers end in one error line, never a traceback."""

    @pytest.mark.parametrize(
        "text, command, expected",
        [
            ('{"qubit": "ns-e4", "application": "dynamics", "c_factor": NaN}', "estimate", 2),
            (
                '{"qubit": %s, "application": "dynamics"}' % (_INLINE_QUBIT % "Infinity"),
                "estimate",
                2,
            ),
            ('{"qubit": "ns-e4", "application": %s}' % (_COUNTS % "Infinity"), "estimate", 2),
            ('{"qubit": "ns-e4", "application": %s}' % (_COUNTS % "-Infinity"), "validate", 2),
            (
                '{"qubit": "ns-e4", "application": "dynamics", "frontier_factors": [1e308]}',
                "frontier",
                2,
            ),
            # Counts errors are reported at /application/counts, as bad input.
            ('{"qubit": "ns-e4", "application": %s}' % (_COUNTS % "1e308"), "estimate", 2),
            (
                '{"qubit": {"instruction_set": "gate-based", "t_gate": {"value": 50, "unit": "ns"}, '
                '"t_meas": {"value": 1e300, "unit": "ms"}, "p_clifford": 1e-4, "p_t": 1e-4}, '
                '"application": "dynamics"}',
                "estimate",
                2,
            ),
            # json.load refuses integers over 4 300 digits with a ValueError.
            (
                '{"qubit": "ns-e4", "application": "dynamics", "c_factor": 1%s}' % ("0" * 5000),
                "validate",
                2,
            ),
        ],
        ids=[
            "nan-c-factor",
            "infinite-duration",
            "infinite-rotations",
            "minus-infinity",
            "huge-factor",
            "huge-rotations",
            "huge-duration",
            "long-integer",
        ],
    )
    def test_cli_exits_with_one_line(self, tmp_path, capsys, text, command, expected):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert main([command, "--job", str(path)]) == expected
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "obj, pointer",
        [
            (_job(application={"ising": {"N": 1e300, "T": 1}}), "/application/ising/N"),
            (_job(application={"ising": {"N": 100.0, "T": 1}}), "/application/ising/N"),
            (_job(overrides={"factory": {"max_rounds": 2.0}}), "/overrides/factory/max_rounds"),
            (_job(overrides={"factory": {"min_distance": 3.0}}), "/overrides/factory/min_distance"),
            (
                _job(application={"counts": {"algorithm_qubits": 10.0, "error_budget": 1e-3}}),
                "/application/counts/algorithm_qubits",
            ),
            (_job(overrides={"factory": {"max_rounds": 5}}), "/overrides/factory/max_rounds"),
            (_job(overrides={"factory": {"max_distance": 1001}}), "/overrides/factory/max_distance"),
            (
                _job(overrides={"factory": {"max_final_copies": 100}}),
                "/overrides/factory/max_final_copies",
            ),
            (
                _job(overrides={"factory": {"min_distance": 4, "max_distance": 4}}),
                "/overrides/factory",
            ),
            (
                _job(
                    codes=[
                        {
                            "name": "",
                            "instruction_set": "gate-based",
                            "error_prefactor": 0.03,
                            "threshold": 0.01,
                            "qubits_per_tile": {"quadratic": 4},
                            "step_time": {"gate_factor": 4, "meas_factor": 2},
                        }
                    ]
                ),
                "/codes/0",
            ),
            (_job(codes=[_HALF_TILE]), "/codes/0/name"),
            (
                _job(codes=[{**_HALF_TILE, "name": "x"}, {**SURFACE_GATE.to_json(), "name": "x"}]),
                "/codes/1/name",
            ),
        ],
        ids=[
            "huge-float-sites",
            "integral-float-sites",
            "integral-float-rounds",
            "integral-float-min-distance",
            "integral-float-qubits",
            "rounds-over-cap",
            "distance-over-cap",
            "copies-over-cap",
            "even-only-distances",
            "unnamed-code",
            "built-in-name-another-model",
            "custom-name-two-models",
        ],
    )
    def test_cli_rejects_at_pointer(self, tmp_path, capsys, obj, pointer):
        """Integers must be JSON integers, the factory search is capped and
        holds at least one (odd) distance, and a code needs a name, which
        stands for one model only."""
        assert main(["estimate", "--job", _write(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.endswith(f"(at {pointer})\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "factors, expected", [("1e308", 2), ("1,inf", 2), ("nan", 2), ("0.5", 2)]
    )
    def test_cli_factor_flag(self, tmp_path, capsys, factors, expected):
        """The schema checks ``--factors``; the last factor is the bad one."""
        path = _write(tmp_path, _job())
        assert main(["frontier", "--job", path, "--factors", factors]) == expected
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith(f"(at /frontier_factors/{factors.count(',')})\n")

    def test_cli_factor_flag_must_be_numbers(self, tmp_path, capsys):
        assert main(["frontier", "--job", _write(tmp_path, _job()), "--factors", "1,two"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --factors ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["frontier", "--job", "j.json", "--factors", "-inf"], ["estimate"]],
        ids=["option-like-factor", "missing-job"],
    )
    def test_cli_argv_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "obj, pointer",
        [
            (_job(c_factor=float("nan")), "/c_factor"),
            (_job(frontier_factors=[1, float("inf")]), "/frontier_factors/1"),
            (
                _job(qubit=json.loads(_INLINE_QUBIT % "1e999")),
                "/qubit/t_meas/value",
            ),
            (
                _job(application=json.loads(_COUNTS % "-1e999")),
                "/application/counts/rotations",
            ),
        ],
    )
    def test_parse_job_rejects_non_finite(self, obj, pointer):
        with pytest.raises(SchemaError, match="finite") as info:
            parse_job(obj)
        assert info.value.pointer == pointer

    @pytest.mark.parametrize("depth", [1000, 100_000])
    def test_cli_deep_nesting(self, tmp_path, capsys, depth):
        path = tmp_path / "deep.json"
        path.write_text(
            '{"qubit": "ns-e4", "application": "dynamics", "x": %s}' % ("[" * depth + "]" * depth)
        )
        assert main(["validate", "--job", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "too deeply" in err

    def test_parse_job_deep_nesting(self):
        """The schema walk descends only into known keys, so depth cannot
        exhaust the stack: the first bad node is named."""
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        for key, pointer in (("x", "/"), ("frontier_factors", "/frontier_factors/0")):
            with pytest.raises(SchemaError) as info:
                parse_job(_job(**{key: deep}))
            assert info.value.pointer == pointer


def test_cli_import_needs_no_scipy_or_numpy():
    # concurrent.futures (with logging), dataclasses (with inspect), csv and
    # copy would each cost a cold start more than they give.
    banned = (
        "scipy", "numpy", "jsonschema", "referencing", "rpds", "attr", "attrs", "concurrent",
        "dataclasses", "inspect", "csv", "__future__", "copy",
    )
    code = (
        "import sys, qre.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {banned!r}))"
    )
    src = str(Path(qre.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


_FULL = "/dev/full"


@pytest.mark.parametrize(
    "argv, sink",
    [
        (["presets"], None),
        (["estimate", "--job"], None),
        (["estimate", "--format", "md", "--job"], None),
        (["frontier", "--factors", "1,2", "--job"], None),
        pytest.param(
            ["estimate", "--job"],
            _FULL,
            marks=pytest.mark.skipif(not os.path.exists(_FULL), reason=f"{_FULL} is missing"),
        ),
    ],
    ids=["presets", "json", "md", "csv", "full"],
)
def test_closed_stdout_ends_without_traceback(tmp_path, argv, sink):
    """A reader that leaves early (``qre ... | head``) gets exit 1 and no
    traceback, nor a failed flush at exit; a full device gets exit 1 and one
    error line. Stdout is buffered, as by default."""
    if argv[-1] == "--job":
        argv = [*argv, _write(tmp_path, _job())]
    src = str(Path(qre.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if sink is None:
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails
    else:
        write = os.open(sink, os.O_WRONLY)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "qre.cli", *argv],
            env={**env, "PYTHONPATH": path},
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write)
    if sink is None:
        assert (result.returncode, result.stderr) == (1, b"")
    else:
        assert result.returncode == 1
        assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1


@pytest.mark.parametrize("fmt, code", [("md", 1), ("csv", 1), ("json", 0)])
def test_unencodable_report_ends_without_traceback(tmp_path, fmt, code):
    """A report that stdout's encoding cannot write ends in one error line
    and exit 1, with nothing on stdout; JSON escapes it to ASCII."""
    job = _write(tmp_path, _job(codes=[{**_HALF_TILE, "name": "h\u00e4lf"}]))
    src = str(Path(qre.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qre.cli", "estimate", "--job", job, "--format", fmt],
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "ascii"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == code
    if code:
        assert result.stdout == ""
        assert result.stderr.startswith("error: stdout cannot encode the report")
        assert result.stderr.count("\n") == 1
    else:
        assert "h\\u00e4lf" in result.stdout and result.stderr == ""


@pytest.mark.parametrize(
    "application",
    ["dynamics", json.loads(_COUNTS % "1000")],
    ids=["preset", "inline-counts"],
)
def test_traced_cli_records_every_layer(tmp_path, application):
    """The benchmark's traced child process still wraps every layer it names,
    and marks the first factory search as cold; an inline application
    resolves through the same path as a preset."""
    trace = tmp_path / "trace.json"
    job = _write(tmp_path, {"qubit": "ns-e4", "application": application})
    child = Path(__file__).parents[1] / "perfbench" / "cli_child.py"
    src = str(Path(qre.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(child), str(trace), "estimate", "--job", job],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        check=True,
        timeout=120,
    )
    spans = json.loads(trace.read_text())["spans"]
    assert {span[0] for span in spans} == {
        "jobs.parse_job",
        "counting.resolve",
        "report.run",
        "report.render",
        "estimator.estimate",
        "codes.select_code",
        "distillation.search_factory",
    }
    cold = [s[4] for s in spans if s[0] == "distillation.search_factory" and s[4]]
    assert len(cold) == 1
    assert cold[0]["cold"] is True and cold[0]["evaluate_calls"] >= 1
