"""Report assembly and rendering.

:func:`run` executes a parsed job; :func:`render` serializes the result.
JSON output is canonical (sorted keys, fixed separators) so identical runs
produce identical bytes. The markdown table follows the column order of
the published comparison tables: distance, factories, factory share,
physical qubits, run time.
"""

import io
import json
from typing import NamedTuple

from ._version import __version__
from .display import format_duration, format_percent, format_qubit_count
from .errors import ParameterError
from .distillation import F_ACCOUNTING
from .estimator import PhysicalEstimate, frontier
from .jobs import JobSpec


class Report(NamedTuple):
    """A parsed job and the estimates :func:`run` made of it."""

    job: JobSpec
    estimates: tuple[PhysicalEstimate, ...]


def run(job: JobSpec) -> Report:
    """Execute a job: one estimate per stretch factor in ``job.factors``."""
    estimates = frontier(
        job.qubit,
        job.requirements,
        job.factors,
        codes=job.codes,
        distance_cap=job.distance_cap,
        factory_bounds=job.factory_bounds,
    )
    return Report(job, estimates)


def render(report: Report, format: str = "json") -> str:
    renderer = RENDERERS.get(format)
    if renderer is None:
        raise ParameterError(
            f"unknown report format {format!r}; expected one of {tuple(RENDERERS)}"
        )
    return renderer(report)


def _render_json(report: Report) -> str:
    payload = {
        "version": __version__,
        "job": report.job.echo,
        "notes": list(report.job.notes),
        "estimates": [_estimate_json(e) for e in report.estimates],
    }
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "))


def _estimate_json(e: PhysicalEstimate) -> dict:
    """One estimate as a JSON object: durations are exact nanoseconds next
    to a display string, and the factory is null when no T states are needed."""
    f = e.factory
    factory = None
    if f is not None:
        factory = {
            "rounds": [
                {
                    "kind": r.unit.kind.value,
                    "level": r.unit.level.value,
                    "distance": r.unit.distance,
                    "copies": r.copies,
                }
                for r in f.rounds
            ],
            "qubit_count": f.qubit_count,
            "duration": {"ns": f.duration, "display": format_duration(f.duration)},
            "output_error": f.output_error,
            "output_count": f.output_count,
            "acceptance_probabilities": list(f.acceptance_probabilities),
        }
    return {
        "c_factor": e.c_factor,
        "code": e.code.name,
        "distance": e.distance,
        "time_steps": e.time_steps,
        "step_time": {"ns": e.step_time, "display": format_duration(e.step_time)},
        "runtime": {"ns": e.runtime, "display": format_duration(e.runtime)},
        "physical_qubits": e.physical_qubits,
        "factory": factory,
        "factory_count": e.factory_count,
        "breakdown": {
            "algorithm_qubits": e.algorithm_qubits,
            "factory_qubits": e.factory_qubits,
            "factory_fraction": e.factory_fraction,
            "logical_error_used": e.logical_error_used,
            "t_error_used": e.t_error_used,
        },
        "f_accounting": F_ACCOUNTING,
    }


def _render_md(report: Report) -> str:
    lines = [
        "| stretch | code | distance | factories | factory share | physical qubits | run time |",
        "| ---: | --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for e in report.estimates:
        # Backslashes first: GFM reads a doubled one as a literal backslash.
        name = e.code.name.replace("\\", r"\\").replace("|", r"\|")
        lines.append(
            "| {} | {} | {} | {} | {} | {} | {} |".format(
                format_c_factor(e.c_factor),
                name.replace("\r", " ").replace("\n", " "),
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
    lines.extend(f"Note: {note}." for note in report.job.notes)
    return "\n".join(lines)


def format_c_factor(value: float) -> str:
    return str(int(value)) if value == int(value) else str(value)


# Header -> value of one estimate's CSV row, in column order.
_CSV_COLUMNS = {
    "c_factor": lambda e: format_c_factor(e.c_factor),
    "code": lambda e: e.code.name,
    "distance": lambda e: e.distance,
    "time_steps": lambda e: e.time_steps,
    "runtime_ns": lambda e: e.runtime,
    "physical_qubits": lambda e: e.physical_qubits,
    "factory_count": lambda e: e.factory_count,
    "factory_qubits": lambda e: e.factory_qubits,
    "factory_fraction": lambda e: repr(e.factory_fraction),
}


def _render_csv(report: Report) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for e in report.estimates:
        writer.writerow([value(e) for value in _CSV_COLUMNS.values()])
    # Like json and md, no final newline: the caller's print adds one.
    return buffer.getvalue().removesuffix("\n")


# Format name -> renderer; the CLI's --format choices are its keys.
RENDERERS = {"json": _render_json, "md": _render_md, "csv": _render_csv}
