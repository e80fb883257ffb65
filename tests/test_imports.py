"""The package needs nothing beyond the one runtime dependency that
``pyproject.toml`` declares, numpy: a module that imports another installed
package would pass here and fail on a clean install.  And every module is
one the command line runs: a module that only tests reach is not part of
the pipeline."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "motionlift"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "motionlift"}


def _imported_packages(path: Path):
    """The top-level package of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _relative_imports(path: Path):
    """The package modules a source file imports relatively."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.partition(".")[0]
            else:  # from . import io
                yield from (alias.name for alias in node.names)


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "gabor.py" in sources
    stray = [(path.name, top) for path in sources for top in _imported_packages(path)
             if top not in ALLOWED]
    assert stray == []


def test_every_module_is_reached_from_the_cli():
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_relative_imports(PACKAGE / f"{name}.py"))
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert "gabor" in reached
    assert modules - reached == set()
