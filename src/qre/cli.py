"""Command-line interface.

Exit codes: 0 on success, 1 for domain errors (infeasible targets, bad
parameters) or a closed stdout, 2 for invalid job input.
"""

import argparse
import json
import os
import sys
from typing import Any, NoReturn

from ._version import __version__
from .codes import BUILTIN_CODES
from .counting import application_preset, application_preset_names
from .errors import EstimatorError, SchemaError
from .jobs import parse_job
from .qubits import qubit_preset, qubit_preset_names
from .report import RENDERERS, render, run


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one stderr line, as for any other input."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qre",
        description="Physical resource estimation for fault-tolerant quantum programs.",
    )
    parser.add_argument("--version", action="version", version=f"qre {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate physical resources for a job")
    est.add_argument("--job", required=True, help="path to a JSON job file")
    est.add_argument("--format", choices=RENDERERS, default="json")

    fro = sub.add_parser("frontier", help="sweep the space-time tradeoff of a job")
    fro.add_argument("--job", required=True, help="path to a JSON job file")
    fro.add_argument(
        "--factors",
        help="comma-separated schedule stretch factors, e.g. 1,2,4,8 "
        "(falls back to frontier_factors in the job)",
    )
    fro.add_argument("--format", choices=RENDERERS, default="csv")

    pre = sub.add_parser("presets", help="list built-in presets")
    pre.add_argument("kind", nargs="?", choices=["qubits", "apps", "codes"])

    val = sub.add_parser("validate", help="validate a job file and exit")
    val.add_argument("--job", required=True, help="path to a JSON job file")
    return parser


def _load_job_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read job file: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"job file is not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("job file nests too deeply to parse") from None


def _load_job(args: argparse.Namespace) -> Any:
    """The job file's JSON with ``--factors`` written in, for the schema to
    check and the report to echo. Only an object is written to."""
    obj = _load_job_file(args.job)
    text = getattr(args, "factors", None)
    if text is not None and isinstance(obj, dict):
        try:
            obj["frontier_factors"] = [float(part) for part in text.split(",")]
        except ValueError:
            raise SchemaError(f"--factors must be comma-separated numbers, got {text!r}") from None
    return obj


def _describe_qubit(name: str) -> str:
    q = qubit_preset(name)
    parts = [f"{q.instruction_set.value:<10}"]
    if q.t_gate is not None:
        parts.append(f"t_gate={q.t_gate}ns")
    parts.append(f"t_meas={q.t_meas}ns")
    parts.append(f"p_clifford={q.p_clifford:g}")
    parts.append(f"p_t={q.p_t:g}")
    return " ".join(parts)


def _cmd_presets(kind: str | None) -> int:
    sections = []
    if kind in (None, "qubits"):
        lines = [f"  {name:<12} {_describe_qubit(name)}" for name in qubit_preset_names()]
        sections.append("qubits:\n" + "\n".join(lines))
    if kind in (None, "apps"):
        lines = []
        for name in application_preset_names():
            preset = application_preset(name)
            lines.append(f"  {name:<12} {preset.description}")
        sections.append("apps:\n" + "\n".join(lines))
    if kind in (None, "codes"):
        lines = [
            f"  {code.name:<14} {code.instruction_set.value}" for code in BUILTIN_CODES
        ]
        sections.append("codes:\n" + "\n".join(lines))
    print("\n\n".join(sections), flush=True)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "presets":
        return _cmd_presets(args.kind)

    job = parse_job(_load_job(args))
    if args.command == "validate":
        print("ok", flush=True)
        return 0
    if args.command == "frontier" and "frontier_factors" not in job.echo:
        raise SchemaError("frontier needs --factors or frontier_factors in the job")
    print(render(run(job), args.format), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # The reader left: send the rest to devnull, so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
