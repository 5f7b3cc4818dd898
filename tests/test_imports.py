"""Static check of the library sources: no module imports a name it does
not use, no function imports a name it does not read itself, no module
uses scipy.optimize, and none imports dataclasses (every record is a
named tuple).  No linter is assumed; the check walks each module's
syntax tree with the standard ast module."""

import ast
from pathlib import Path

import pytest

import caustica

MODULES = sorted(Path(caustica.__file__).resolve().parent.glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_imports(scope):
    """The import statements of a module or function, not counting those
    of the functions defined inside it."""
    todo = list(scope.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def _unused(scope):
    """Names bound by the scope's own imports that no expression of the
    scope reads, with their lines."""
    read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    bound = [(alias.asname or alias.name.split(".")[0], node.lineno)
             for node in _scope_imports(scope) for alias in node.names]
    return [f"{name} (line {line})" for name, line in bound if name not in read]


def _unused_imports(source):
    """Names bound by the module's own imports that no expression of the
    module reads."""
    return sorted(_unused(ast.parse(source)))


def _unused_local_imports(source):
    """Names bound by a function's own imports that no expression of that
    function reads."""
    tree = ast.parse(source)
    return sorted(u for fn in ast.walk(tree) if isinstance(fn, _FUNCTIONS)
                  for u in _unused(fn))


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import math\nimport warnings\nx = math.pi\n") == [
        "warnings (line 2)"]
    assert _unused_imports("from a import b as c\nc()\n") == []


def test_the_check_sees_an_unused_local_import():
    assert _unused_local_imports(
        "def f():\n"
        "    from .a import b, c\n"
        "    return b()\n") == ["c (line 2)"]
    # A name a function imports must be read in that function, not
    # merely somewhere in the module; a nested function's read counts.
    assert _unused_local_imports(
        "import b\n"
        "def f():\n"
        "    import b\n"
        "def g():\n"
        "    return b\n") == ["b (line 3)"]
    assert _unused_local_imports(
        "def f():\n"
        "    import b\n"
        "    def g():\n"
        "        return b\n"
        "    return g\n") == []


def _uses(source, module):
    """Lines where the source imports the dotted module or a name from
    it, or reads it as an attribute, in any form."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(f"{name}.".startswith(f"{module}.") for name in names):
            lines.append(node.lineno)
    return lines


def test_the_check_sees_scipy_optimize():
    for source in ("import scipy.optimize\n",
                   "from scipy.optimize import brentq\n",
                   "from scipy import optimize\n",
                   "import scipy\nscipy.optimize.brentq\n",
                   "def f():\n    from scipy.optimize._zeros import brentq\n"):
        assert _uses(source, "scipy.optimize"), source
    assert _uses('"""A port of scipy.optimize.brentq."""\n'
                 "from scipy.special import elliprf\n", "scipy.optimize") == []


def test_the_check_sees_dataclasses():
    for source in ("import dataclasses\n",
                   "from dataclasses import dataclass\n",
                   "import dataclasses as dc\n",
                   "def f():\n    from dataclasses import field\n"):
        assert _uses(source, "dataclasses"), source
    assert _uses("from typing import NamedTuple\n"
                 "import dataclasses_json\n", "dataclasses") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_scipy_optimize(path):
    assert _uses(path.read_text(), "scipy.optimize") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # legendre is loaded by no subcommand, so only this check covers it.
    assert _uses(path.read_text(), "dataclasses") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_import_is_read_where_it_is_made(path):
    assert _unused_local_imports(path.read_text()) == []
