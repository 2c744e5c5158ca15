"""Report assembly and rendering.

:func:`run` executes a parsed job; :func:`render` serializes the result.
JSON output is canonical (sorted keys, fixed separators) so identical runs
produce identical bytes. The markdown table follows the column order of
the published comparison tables: distance, factories, factory share,
physical qubits, run time.
"""

from __future__ import annotations

import io
import json
from typing import Any, NamedTuple

from ._version import __version__
from .display import format_duration, format_percent, format_qubit_count
from .errors import ParameterError
from .estimator import F_ACCOUNTING, PhysicalEstimate, estimate, frontier
from .jobs import JobSpec

_FORMATS = ("json", "md", "csv")

_CSV_FIELDS = (
    "c_factor",
    "code",
    "distance",
    "time_steps",
    "runtime_ns",
    "physical_qubits",
    "factory_count",
    "factory_qubits",
    "factory_fraction",
)


class Report(NamedTuple):
    version: str
    job: Any
    estimates: tuple[PhysicalEstimate, ...]
    notes: tuple[str, ...]


def run(job: JobSpec) -> Report:
    """Execute a job: a single estimate, or a frontier sweep if requested."""
    kwargs = dict(
        codes=job.codes,
        distance_cap=job.distance_cap,
        factory_bounds=job.factory_bounds,
    )
    if job.frontier_factors is not None:
        estimates = frontier(job.qubit, job.requirements, job.frontier_factors, **kwargs)
    else:
        estimates = (estimate(job.qubit, job.requirements, job.c_factor, **kwargs),)
    return Report(
        version=__version__,
        job=job.echo,
        estimates=estimates,
        notes=job.notes,
    )


def render(report: Report, format: str = "json") -> str:
    if format == "json":
        return _render_json(report)
    if format == "md":
        return _render_md(report)
    if format == "csv":
        return _render_csv(report)
    raise ParameterError(f"unknown report format {format!r}; expected one of {_FORMATS}")


def _render_json(report: Report) -> str:
    payload = {
        "version": report.version,
        "job": report.job,
        "notes": list(report.notes),
        "estimates": [e.to_json() for e in report.estimates],
    }
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "))


def _render_md(report: Report) -> str:
    lines = [
        "| stretch | code | distance | factories | factory share | physical qubits | run time |",
        "| ---: | --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for e in report.estimates:
        lines.append(
            "| {} | {} | {} | {} | {} | {} | {} |".format(
                format_c_factor(e.c_factor),
                e.code.name,
                e.distance,
                e.factory_count,
                format_percent(e.factory_fraction),
                format_qubit_count(e.physical_qubits),
                format_duration(e.runtime, digits=2),
            )
        )
    lines.append("")
    lines.append(
        f"Factory counts use {F_ACCOUNTING} accounting; counterparts under "
        "other accountings may differ by +-1."
    )
    for note in report.notes:
        lines.append(f"Note: {note}.")
    return "\n".join(lines)


def format_c_factor(value: float) -> str:
    return str(int(value)) if value == int(value) else str(value)


def _render_csv(report: Report) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for e in report.estimates:
        writer.writerow(
            [
                format_c_factor(e.c_factor),
                e.code.name,
                e.distance,
                e.time_steps,
                e.runtime,
                e.physical_qubits,
                e.factory_count,
                e.factory_qubits,
                repr(e.factory_fraction),
            ]
        )
    # Like json and md, no final newline: the caller's print adds one.
    return buffer.getvalue().removesuffix("\n")
