"""No module imports a name it never uses, no package module reaches into
another's private names, and the README's example runs as written.

An ``ast`` scan stands in for a linter: every name an import binds must be
read somewhere in the module, as a ``Name`` or as the base of an
``Attribute``.  ``__init__.py`` is skipped, since its imports are re-exports.
A second scan finds ``_name`` taken from another package module: the span
tracer of ``bench/spans.py`` wraps public functions only, so a stage called
through a private name would vanish from the per-layer trace.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "antidist").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import numpy as np\nfrom os import path, sep\nprint(path.join)\n") == [
        "line 1: np",
        "line 2: sep",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_reaches(source: str) -> list[str]:
    """``from .m import _x`` and ``m._x`` for a module ``m`` bound by ``from . import``;
    dunder names are public."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scan_finds_a_private_reach():
    source = ("from . import conditions, linalg as la\nfrom .states import StateSet, _take\n"
              "la.adjoint(la.__name__)\nconditions._hermitian_povm(StateSet, _take)\n")
    assert private_reaches(source) == ["line 2: states._take", "line 4: conditions._hermitian_povm"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "antidist").glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_another_private_name(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


def test_readme_library_example_prints_its_comments():
    # each print line of the README's python block ends in a comment holding its output
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
