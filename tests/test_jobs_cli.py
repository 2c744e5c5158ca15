"""Job-file parsing, schema diagnostics and the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qre import (
    DistanceCapError,
    ParameterError,
    SchemaError,
    parse_job,
    run,
)
import qre
from qre.cli import main


def _job(**extra):
    obj = {"qubit": "ns-e4", "application": "dynamics"}
    obj.update(extra)
    return obj


class TestParse:
    def test_preset_job(self):
        job = parse_job(_job())
        assert job.qubit.name == "ns-e4"
        assert job.application_name == "dynamics"
        assert job.requirements.logical_qubits == 230
        assert job.c_factor == 1.0
        assert job.frontier_factors is None

    def test_ising_application(self):
        job = parse_job(
            {"qubit": "ns-e4", "application": {"ising": {"N": 100, "T": 20}}}
        )
        assert job.requirements.logical_qubits == 230
        assert job.requirements.t_states == 602_000
        assert job.application_name is None

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

    def test_frontier_factors(self):
        job = parse_job(_job(frontier_factors=[1, 2, 4]))
        assert job.frontier_factors == (1.0, 2.0, 4.0)

    def test_overrides(self):
        job = parse_job(
            _job(
                overrides={
                    "max_code_distance": 9,
                    "synthesis": {"scale": 0.6, "offset": 5.0},
                    "factory": {"max_rounds": 2},
                }
            )
        )
        assert job.distance_cap == 9
        assert job.synthesis.scale == 0.6
        assert job.factory_bounds.max_rounds == 2


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
    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("QRE_DMAX", "41")
        job = parse_job(_job(overrides={"max_code_distance": 9}))
        assert job.distance_cap == 9

    def test_environment_cap(self, monkeypatch):
        monkeypatch.setenv("QRE_DMAX", "41")
        assert parse_job(_job()).distance_cap == 41

    def test_bad_environment_value(self, monkeypatch):
        monkeypatch.setenv("QRE_DMAX", "tiny")
        with pytest.raises(ParameterError, match="QRE_DMAX"):
            parse_job(_job())

    def test_cap_can_block_a_run(self):
        job = parse_job({"qubit": "us-e3", "application": "dynamics",
                         "overrides": {"max_code_distance": 5}})
        with pytest.raises(DistanceCapError):
            run(job)


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

    def test_frontier_csv(self, tmp_path, capsys):
        path = _write(tmp_path, {"qubit": "ns-e4", "application": "dynamics"})
        code = main(["frontier", "--job", path, "--factors", "1,2,4,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and not out.endswith("\n\n")
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("c_factor,code,distance")

    def test_frontier_needs_factors(self, factoring_job, capsys):
        assert main(["frontier", "--job", factoring_job]) == 2
        assert "frontier needs --factors" in capsys.readouterr().err

    def test_empty_factor_list_in_job(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {"qubit": "ns-e4", "application": "dynamics", "frontier_factors": []},
        )
        assert main(["frontier", "--job", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1

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

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for token in ("qubits:", "apps:", "codes:", "maj-ns-e6", "hastings-haah"):
            assert token in out

    def test_presets_section_filter(self, capsys):
        assert main(["presets", "apps"]) == 0
        out = capsys.readouterr().out
        assert "chemistry" in out
        assert "hastings-haah" not in out


_INLINE_QUBIT = (
    '{"instruction_set": "gate-based", "t_gate": {"value": 50, "unit": "ns"}, '
    '"t_meas": {"value": %s, "unit": "ns"}, "p_clifford": 1e-4, "p_t": 1e-4}'
)
_COUNTS = (
    '{"counts": {"algorithm_qubits": 10, "rotations": %s, "rotation_layers": 10, '
    '"error_budget": 0.001}}'
)


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
        ],
    )
    def test_cli_rejects_at_pointer(self, tmp_path, capsys, obj, pointer):
        """Integers must be JSON integers, and the factory search is capped."""
        assert main(["estimate", "--job", _write(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.endswith(f"(at {pointer})\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("factors, expected", [("1e308", 2), ("1,inf", 2), ("nan", 2)])
    def test_cli_factor_flag(self, tmp_path, capsys, factors, expected):
        path = _write(tmp_path, _job())
        assert main(["frontier", "--job", path, "--factors", factors]) == expected
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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
    # concurrent.futures (with logging) is only for frontier(parallel=True).
    # dataclasses (with inspect) and csv cost a cold start more than they give.
    banned = (
        "scipy", "numpy", "jsonschema", "referencing", "rpds", "attr", "attrs", "concurrent",
        "dataclasses", "inspect", "csv",
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
