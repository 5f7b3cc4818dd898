"""Static check of the library sources: no module imports a name it does
not use.  No linter is assumed; the check walks each module's syntax
tree with the standard ast module."""

import ast
from pathlib import Path

import pytest

import caustica

MODULES = sorted(p for p in Path(caustica.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by the module's top-level imports that no expression
    of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import math\nimport warnings\nx = math.pi\n") == [
        "warnings (line 2)"]
    assert _unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []
