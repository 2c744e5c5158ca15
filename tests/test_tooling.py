"""Project tooling: the declared Python floor and the CI workflow."""

import ast
import re
from pathlib import Path

import pytest
import yaml

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "qre"
# Every file the workflow runs on the floor: the package, its tests and the benchmark.
_SOURCES = [
    path
    for folder in (_PACKAGE, _ROOT / "tests", _ROOT / "perfbench")
    for path in sorted(folder.glob("*.py"))
]


def _floor() -> tuple[int, int]:
    # A regex, not tomllib: tomllib is new in 3.11, above the floor it reads.
    text = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def _parses_at(source: str, version: tuple[int, int]) -> bool:
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError:
        return False
    return True


def _source_id(path: Path) -> str:
    return path.name if path.parent == _PACKAGE else path.relative_to(_ROOT).as_posix()


@pytest.mark.parametrize("path", _SOURCES, ids=_source_id)
def test_sources_parse_at_the_declared_floor(path):
    """Each module's grammar is the declared floor's: the package's, the
    tests' and the benchmark's. This checks syntax only: a library API added
    after the floor still passes."""
    assert _parses_at(path.read_text(encoding="utf-8"), _floor())


def test_floor_check_rejects_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert not _parses_at(source, _floor())
    assert _parses_at(source, (3, 11))


def test_workflow_runs_tier_one():
    workflow = yaml.safe_load((_ROOT / ".github" / "workflows" / "tests.yml").read_text())
    # PyYAML reads the bare key `on` as the boolean True.
    assert set(workflow[True]) == {"push", "pull_request"}
    (job,) = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    commands = [step.get("run") for step in job["steps"]]
    assert 'pip install -e ".[test]"' in commands
    tier_one = re.search(r"^\*\*Tier-1 verify:\*\* `(.*)`$", (_ROOT / "ROADMAP.md").read_text(), re.MULTILINE)
    assert commands[-1] == tier_one.group(1)
