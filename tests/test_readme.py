"""The README's Library example prints what its comments say."""

import contextlib
import io
import re
from importlib import resources
from pathlib import Path

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
