"""The README's runtime promises, read off the package source.

The runtime is pure standard library: every module the package imports is
in the standard library or is qualred itself. The only environment
variable read is QUALRED_COLOR.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qualred").glob("*.py"))
ENV = {"environ", "environb", "getenv", "getenvb"}


def _trees():
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES]


def _readme() -> str:
    return re.sub(r"\s+", " ", (ROOT / "README.md").read_text(encoding="utf-8"))


def _imports(tree: ast.AST):
    """The top-level name of each module imported, None for a relative
    import within the package, and "?" for an import by a runtime name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module.split(".")[0] if node.level == 0 else None
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("import_module", "__import__"):
                yield "?"


def _env_reads(tree: ast.AST):
    """The variable each reference to the environment reads, or None
    where it does not read one literal name, as in dict(os.environ)."""
    parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    for node in ast.walk(tree):
        if getattr(node, "attr", getattr(node, "id", None)) not in ENV:
            continue
        ref, up = node, parent[node]
        if isinstance(up, ast.Attribute) and up.attr == "get":
            ref, up = up, parent[up]
        key = None
        if isinstance(up, ast.Call) and up.func is ref and up.args:
            key = up.args[0]
        elif isinstance(up, ast.Subscript) and up.value is ref:
            key = up.slice
        yield key.value if isinstance(key, ast.Constant) else None


def test_runtime_imports_only_the_standard_library():
    assert "Runtime is pure standard library." in _readme()
    for name, tree in _trees():
        for module in _imports(tree):
            assert module in (None, "qualred") or module in sys.stdlib_module_names, (name, module)


def test_qualred_color_is_the_only_environment_variable_read():
    assert "The only environment variable read is `QUALRED_COLOR`" in _readme()
    reads = {name: list(_env_reads(tree)) for name, tree in _trees()}
    assert {v for vs in reads.values() for v in vs} == {"QUALRED_COLOR"}, reads


def test_the_scanners_see_what_they_look_for():
    tree = ast.parse(
        "import os, numpy.linalg\nfrom . import games\nimportlib.import_module('x')\n"
        "os.environ.get('A')\nos.environ['B']\nos.getenv('C')\ndict(os.environ)\n"
    )
    assert list(_imports(tree)) == ["os", "numpy", None, "?"]
    assert sorted(_env_reads(tree), key=str) == ["A", "B", "C", None]
