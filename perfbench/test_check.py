"""The output checker accepts qre's estimates and rejects tampered ones.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import check  # noqa: E402
import qre  # noqa: E402


def _render(job: dict) -> str:
    return qre.render(qre.run(qre.parse_job(job)), "json")


@pytest.fixture(scope="module")
def report() -> str:
    return _render({"qubit": "ns-e4", "application": "dynamics", "c_factor": 2})


def _tampered(text: str, change) -> str:
    obj = json.loads(text)
    change(obj["estimates"][0])
    return json.dumps(obj, sort_keys=True, indent=2)


def test_published_logical_counts():
    assert check.check_published_counts() == []


def test_accepts_preset_estimate(report):
    assert check.check_report(report) == []
    assert check.check_cli(0, report + "\n", report) == []


def test_accepts_new_hardware_point():
    qubit = {
        "name": "no-preset",
        "instruction_set": "majorana",
        "t_meas": {"value": 2500, "unit": "ns"},
        "p_clifford": 3e-5,
        "p_t": 0.02,
    }
    assert check.check_report(_render({"qubit": qubit, "application": "chemistry"})) == []


def test_rejects_distance_minus_two(report):
    def lower(est):
        est["distance"] -= 2

    assert check.check_report(_tampered(report, lower))


@pytest.mark.parametrize("delta", [1, -1])
def test_rejects_factory_count_off_by_one(report, delta):
    def shift(est):
        est["factory_count"] += delta

    assert check.check_report(_tampered(report, shift))


def test_rejects_changed_output_error(report):
    def worsen(est):
        est["factory"]["output_error"] *= 1.001

    assert check.check_report(_tampered(report, worsen))


@pytest.mark.parametrize(
    "key, offset", [('"distance"', 2), ('"display"', 3), ('"f_accounting"', 3)]
)
def test_rejects_one_changed_byte(report, key, offset):
    at = report.index(key) + len(key) + offset
    changed = report[:at] + chr(ord(report[at]) ^ 1) + report[at + 1 :]
    assert len(changed.encode()) == len(report.encode())
    assert check.check_cli(0, changed, report)
    assert check.check_same(changed, report)


def test_rejects_failed_process(report):
    assert check.check_cli(1, report, report)


def test_rejects_steps_falling_with_stretch(report):
    stretched = json.loads(report)
    stretched["job"]["c_factor"] = 4
    est = stretched["estimates"][0]
    est["c_factor"] = 4.0
    est["time_steps"] -= 1
    assert check.check_stretch_monotone([report, json.dumps(stretched)])
    assert check.check_stretch_monotone([report]) == []

