"""README.md's examples run against the library as it is."""

import json
import re
from pathlib import Path

import pytest

from qre import parse_job, render, run

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", _README, re.DOTALL | re.MULTILINE)


def test_library_block_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-2:] == ["(1.0, 2.5)", "0.0005 0.00025"]


@pytest.mark.parametrize("block", _blocks("json"))
def test_job_block_runs(block):
    report = run(parse_job(json.loads(block)))
    assert json.loads(render(report))["estimates"]
