"""Canonical JSON across the preset matrix, pinned byte for byte.

``golden/preset_matrix.txt`` holds the rendered JSON report of every cell of
the 6 qubit × 3 application preset matrix, once with ``c_factor`` 1 and once
as a ``frontier`` sweep over stretch factors (1, 2, 4, 8). Each report is
preceded by a ``# <qubit> <application> <mode>`` header line. Any change to
the estimator that alters a single byte of output fails here.

Regenerate only when a change of output is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

from qre import application_preset_names, parse_job, qubit_preset_names, render, run

GOLDEN = Path(__file__).parent / "golden" / "preset_matrix.txt"

_MODES = (
    ("c_factor=1", {"c_factor": 1}),
    ("frontier=1,2,4,8", {"frontier_factors": [1, 2, 4, 8]}),
)


def _cells():
    for qubit in qubit_preset_names():
        for application in application_preset_names():
            for label, extra in _MODES:
                job = {"qubit": qubit, "application": application, **extra}
                yield f"# {qubit} {application} {label}", job


def _render_matrix() -> list[str]:
    return [
        f"{header}\n{render(run(parse_job(job)), 'json')}\n" for header, job in _cells()
    ]


def test_preset_matrix_is_byte_identical():
    sections = _render_matrix()
    expected = GOLDEN.read_text(encoding="utf-8")
    if "".join(sections) != expected:
        for section in sections:
            header = section.split("\n", 1)[0]
            assert section in expected, f"output changed for cell {header!r}"
        raise AssertionError("golden file holds cells this matrix does not render")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_render_matrix()), encoding="utf-8")
