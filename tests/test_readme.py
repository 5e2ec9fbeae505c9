"""The README's examples read and print what its text says."""

import contextlib
import io
import re
from importlib import resources
from pathlib import Path

from qualred import Operator, TraceStatus, parse_game, parse_path_script, run_path

from conftest import fixture_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_output_matches_its_comments(monkeypatch):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if "print(" in line]
    monkeypatch.chdir(resources.files("qualred").joinpath("fixtures"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_path_script_example_runs_on_its_fixture():
    text = README.read_text(encoding="utf-8")
    script = re.search(r"## Path scripts\n.*?```\n(.*?)```", text, re.S).group(1)
    game = parse_game(fixture_text("fxf1.qg"))
    steps = parse_path_script(script, game)
    assert steps == [{0: {"b"}}, {1: {"d"}}]
    assert run_path(game, Operator.DOUBLE, steps).status is TraceStatus.CONVERGED
